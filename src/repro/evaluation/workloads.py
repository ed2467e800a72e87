"""Query-workload generators.

The paper samples queries uniformly from the evaluation images.  Real
interactive systems often see the *same* query re-issued — which is exactly
the case FeedbackBypass turns into a complete bypass of the feedback loop.
This module provides the generator for that stream shape and the experiment
that quantifies how the benefit grows with the repetition rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.metrics import average_precision_recall
from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.features.datasets import ImageDataset
from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.validation import check_dimension, check_in_range


def repeated_query_workload(
    dataset: ImageDataset,
    n_queries: int,
    *,
    repeat_rate: float = 0.3,
    working_set_size: int = 20,
    seed: int = 0,
) -> np.ndarray:
    """A stream in which a fraction of queries are re-issues of earlier ones.

    With probability ``repeat_rate`` the next query is drawn from the last
    ``working_set_size`` fresh queries already issued (most-recently-used
    bias); otherwise the next fresh query is issued.  This is the regime in
    which FeedbackBypass can skip feedback loops entirely.

    Fresh queries and repetition are drawn from two independent streams of
    ``seed``, so every rate issues the same fresh queries in the same order
    (the fresh subsequence is a prefix of the ``repeat_rate=0`` stream) and
    a higher rate repeats at a superset of the positions a lower one does:
    streams at different rates differ in repetition only.
    """
    check_dimension(n_queries, "n_queries")
    check_in_range(repeat_rate, 0.0, 1.0, name="repeat_rate")
    check_dimension(working_set_size, "working_set_size")
    fresh = dataset.sample_query_indices(
        n_queries, ensure_rng(derive_seed(seed, "repeated_workload", "fresh"))
    )
    repeat_rng = ensure_rng(derive_seed(seed, "repeated_workload", "repeat"))
    repeats = repeat_rng.random(n_queries) < repeat_rate
    picks = repeat_rng.random(n_queries)

    history: list[int] = []
    indices = np.empty(n_queries, dtype=np.intp)
    for position in range(n_queries):
        if history and repeats[position]:
            window = history[-working_set_size:]
            indices[position] = window[int(picks[position] * len(window))]
        else:
            query = int(fresh[len(history)])
            indices[position] = query
            history.append(query)
    return indices


@dataclass
class RepeatRateBenefitResult:
    """FeedbackBypass benefit as a function of the query repetition rate."""

    repeat_rates: np.ndarray
    bypass_precision: np.ndarray
    default_precision: np.ndarray
    already_seen_precision: np.ndarray
    default_loop_iterations: np.ndarray  # mean loop length from the default parameters
    bypass_loop_iterations: np.ndarray   # mean loop length from the prediction


def repeat_rate_benefit(
    dataset: ImageDataset,
    *,
    repeat_rates: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75),
    n_queries: int = 200,
    k: int = 30,
    epsilon: float = 0.05,
    seed: int = 0,
) -> RepeatRateBenefitResult:
    """Measure how the FeedbackBypass advantage grows with query repetition.

    For every repetition rate a fresh session processes a repeated-query
    workload; the reported metrics are averaged over the second half of the
    stream (after the tree has had a chance to see the working set).  Every
    rate draws its workload from the same ``seed``, so the rates share one
    fresh-query stream and differ only in repetition.  The feedback loop runs
    from the default parameters and from the prediction for every query: the
    first does not depend on the bypass, the second is what repetition
    shortens.
    """
    bypass_series = []
    default_series = []
    seen_series = []
    default_iterations = []
    bypass_iterations = []
    for rate in repeat_rates:
        config = SessionConfig(k=k, epsilon=epsilon, measure_bypass_loop=True)
        session = InteractiveSession.for_dataset(dataset, config)
        workload = repeated_query_workload(dataset, n_queries, repeat_rate=rate, seed=seed)
        outcomes = session.run_stream(workload)
        late = outcomes[len(outcomes) // 2 :]
        bypass_precision, _ = average_precision_recall(
            (o.bypass.precision, o.bypass.recall) for o in late
        )
        default_precision, _ = average_precision_recall(
            (o.default.precision, o.default.recall) for o in late
        )
        seen_precision, _ = average_precision_recall(
            (o.already_seen.precision, o.already_seen.recall) for o in late
        )
        bypass_series.append(bypass_precision)
        default_series.append(default_precision)
        seen_series.append(seen_precision)
        default_iterations.append(float(np.mean([o.loop_iterations_default for o in late])))
        bypass_iterations.append(float(np.mean([o.loop_iterations_bypass for o in late])))

    return RepeatRateBenefitResult(
        repeat_rates=np.asarray(repeat_rates, dtype=np.float64),
        bypass_precision=np.asarray(bypass_series),
        default_precision=np.asarray(default_series),
        already_seen_precision=np.asarray(seen_series),
        default_loop_iterations=np.asarray(default_iterations),
        bypass_loop_iterations=np.asarray(bypass_iterations),
    )
