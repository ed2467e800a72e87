"""Relevance-feedback engines.

Section 2 of the paper surveys the two basic strategies every interactive
retrieval system combines:

* **query-point movement** — move the query towards the good matches
  (Rocchio's formula; the score-weighted average that Ishikawa et al. proved
  optimal, Equation 2), and
* **re-weighting** — adjust the importance of individual feature components
  (the MARS ``1/σ`` heuristic and the provably optimal ``1/σ²`` rule).

Both act on the weighted-Euclidean ``(Δ, W)`` parameters, the one feedback
model the loop runs; the strategy ablation compares movement alone with
movement plus optimal re-weighting inside that family.

:mod:`repro.feedback.engine` assembles the strategies into the feedback loop
of Figure 5: evaluate, collect scores, compute new query parameters, repeat
until the result list stabilises.  :mod:`repro.feedback.scheduler` batches
that loop across queries: a frontier of in-flight loops advances iteration
*i* of every active query in one shot, byte-identical to the sequential
loop.  FeedbackBypass sits *next to* this loop — it predicts good starting
parameters and stores the parameters the loop converges to.
"""

from repro.feedback.scores import (
    JudgmentBatch,
    RelevanceJudgment,
    RelevanceScale,
    score_results_by_category,
    score_results_by_category_batch,
)
from repro.feedback.query_point_movement import (
    optimal_query_point,
    optimal_query_point_frontier,
    rocchio_update,
    segment_boundaries,
)
from repro.feedback.reweighting import (
    ReweightingRule,
    mars_weights,
    optimal_weights,
    reweight,
    reweight_frontier,
)
from repro.feedback.engine import FeedbackEngine, FeedbackLoopResult, FeedbackState, LoopCursor
from repro.feedback.scheduler import FeedbackFrontier, LoopRequest, LoopScheduler

__all__ = [
    "JudgmentBatch",
    "RelevanceJudgment",
    "RelevanceScale",
    "score_results_by_category",
    "score_results_by_category_batch",
    "optimal_query_point",
    "optimal_query_point_frontier",
    "rocchio_update",
    "segment_boundaries",
    "ReweightingRule",
    "mars_weights",
    "optimal_weights",
    "reweight",
    "reweight_frontier",
    "FeedbackEngine",
    "FeedbackLoopResult",
    "FeedbackState",
    "LoopCursor",
    "FeedbackFrontier",
    "LoopRequest",
    "LoopScheduler",
]
