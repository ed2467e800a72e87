"""Evaluation harness: metrics, the simulated user, sessions and experiments.

This subpackage reproduces Section 5 of the paper:

* :mod:`repro.evaluation.metrics` — precision, recall, precision gain,
* :mod:`repro.evaluation.simulated_user` — the category-oracle judge used to
  automate the feedback loops,
* :mod:`repro.evaluation.session` — the interactive session combining the
  retrieval engine, the feedback engine and FeedbackBypass, evaluating the
  Default / FeedbackBypass / AlreadySeen strategies per query,
* :mod:`repro.evaluation.experiments` — the figure-level experiments
  (learning curves, k sweeps, per-category robustness, tree growth),
* :mod:`repro.evaluation.efficiency` — the Saved-Cycles / Saved-Objects
  experiment,
* :mod:`repro.evaluation.workloads` — query streams (uniform, skewed,
  repeated) and the repeat-rate experiment,
* :mod:`repro.evaluation.figures` — the ``FIGURES`` registry: for every
  series the paper plots (and every ablation), the experiment call, the
  plain-text table it renders and the paper's claims as named predicates,
  which ``benchmarks/test_figures.py`` asserts.

Like the paper, the package measures efficiency in counts (feedback
cycles and objects saved), never with a clock.  Served-path speed is the
job of the ``bench`` benchmark at the repository root, which drives the
serving layer from outside; nothing here imports :mod:`repro.serving`.
"""

from repro.evaluation.metrics import (
    average_precision_recall,
    precision,
    precision_gain,
    recall,
)
from repro.evaluation.session import (
    InteractiveSession,
    QueryOutcome,
    SessionConfig,
    StrategyMetrics,
)
from repro.evaluation.simulated_user import CategoryJudge, SimulatedUser
from repro.evaluation.experiments import (
    CategoryRobustnessResult,
    KSweepResult,
    LearningCurveResult,
    TrainingTransferResult,
    TreeGrowthResult,
    category_robustness,
    k_sweep,
    learning_curve,
    training_k_transfer,
    tree_growth,
)
from repro.evaluation.efficiency import EfficiencyResult, saved_cycles_experiment
from repro.evaluation.workloads import (
    RepeatRateBenefitResult,
    category_skewed_workload,
    repeat_rate_benefit,
    repeated_query_workload,
    uniform_workload,
)
from repro.evaluation.figures import FIGURES, Figure, Table, format_series_table

__all__ = [
    "average_precision_recall",
    "precision",
    "precision_gain",
    "recall",
    "InteractiveSession",
    "QueryOutcome",
    "SessionConfig",
    "StrategyMetrics",
    "SimulatedUser",
    "CategoryJudge",
    "CategoryRobustnessResult",
    "KSweepResult",
    "LearningCurveResult",
    "TrainingTransferResult",
    "TreeGrowthResult",
    "category_robustness",
    "k_sweep",
    "learning_curve",
    "training_k_transfer",
    "tree_growth",
    "EfficiencyResult",
    "saved_cycles_experiment",
    "RepeatRateBenefitResult",
    "category_skewed_workload",
    "repeat_rate_benefit",
    "repeated_query_workload",
    "uniform_workload",
    "FIGURES",
    "Figure",
    "Table",
    "format_series_table",
]
