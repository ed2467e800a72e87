"""Figure-level experiments.

Every function here regenerates the data series behind one of the paper's
evaluation figures; the :data:`~repro.evaluation.figures.FIGURES` registry
holds the call, the table and the paper's claims of each.  They all
follow the same pattern: build an :class:`~repro.evaluation.session.InteractiveSession`
for the given dataset, stream randomly sampled queries through it, and
aggregate the per-query outcomes into the series the paper plots.  The
figures' absolute values depend on the (synthetic) corpus; the shapes —
Default < FeedbackBypass < AlreadySeen, learning over time, logarithmic tree
depth — are what the reproduction checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.oqp import OptimalQueryParameters
from repro.evaluation.metrics import average_precision_recall, precision_gain
from repro.evaluation.session import InteractiveSession, QueryOutcome, SessionConfig
from repro.features.datasets import ImageDataset
from repro.feedback.reweighting import ReweightingRule
from repro.utils.rng import derive_seed, ensure_rng
from repro.utils.validation import ValidationError, check_dimension

#: Default values of k the paper sweeps over.
DEFAULT_K_VALUES: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80)


def _block_average(outcomes: list[QueryOutcome], attribute: str) -> tuple[float, float]:
    """Average (precision, recall) of one strategy over a block of outcomes."""
    pairs = [
        (getattr(outcome, attribute).precision, getattr(outcome, attribute).recall)
        for outcome in outcomes
    ]
    return average_precision_recall(pairs)


# ---------------------------------------------------------------------- #
# Figure 10 / Figure 12: learning curves
# ---------------------------------------------------------------------- #
@dataclass
class LearningCurveResult:
    """Precision / recall of the three strategies as the tree learns.

    ``checkpoints[i]`` is the number of queries processed after block ``i``;
    the metric arrays hold the block averages (queries inside that block were
    predicted with the tree trained on all earlier blocks).
    """

    k: int
    checkpoints: np.ndarray
    default_precision: np.ndarray
    bypass_precision: np.ndarray
    already_seen_precision: np.ndarray
    default_recall: np.ndarray
    bypass_recall: np.ndarray
    already_seen_recall: np.ndarray
    session: InteractiveSession = field(repr=False)

    def precision_gains(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (bypass gain %, already-seen gain %) per checkpoint (Fig. 10 b)."""
        bypass = np.asarray(
            [precision_gain(b, d) for b, d in zip(self.bypass_precision, self.default_precision)]
        )
        seen = np.asarray(
            [
                precision_gain(s, d)
                for s, d in zip(self.already_seen_precision, self.default_precision)
            ]
        )
        return bypass, seen


def learning_curve(
    dataset: ImageDataset,
    *,
    k: int = 50,
    n_queries: int = 1000,
    checkpoint_every: int = 100,
    epsilon: float = 0.05,
    reweighting_rule: ReweightingRule = ReweightingRule.OPTIMAL,
    seed: int = 0,
    session: InteractiveSession | None = None,
) -> LearningCurveResult:
    """Reproduce the learning-curve experiment (Figures 10 and 12).

    Streams ``n_queries`` randomly sampled queries through a fresh session
    and records block-averaged precision and recall for the Default,
    FeedbackBypass and AlreadySeen strategies every ``checkpoint_every``
    queries.
    """
    check_dimension(checkpoint_every, "checkpoint_every")
    check_dimension(n_queries, "n_queries")
    if session is None:
        config = SessionConfig(k=k, epsilon=epsilon, reweighting_rule=reweighting_rule)
        session = InteractiveSession.for_dataset(dataset, config)
    rng = ensure_rng(derive_seed(seed, "learning_curve", k))
    indices = dataset.sample_query_indices(n_queries, rng)
    outcomes = session.run_stream(indices)

    checkpoints: list[int] = []
    series: dict[str, list[float]] = {
        "default_precision": [],
        "bypass_precision": [],
        "already_seen_precision": [],
        "default_recall": [],
        "bypass_recall": [],
        "already_seen_recall": [],
    }
    block: list[QueryOutcome] = []
    for position, outcome in enumerate(outcomes, start=1):
        block.append(outcome)
        if position % checkpoint_every == 0 or position == len(indices):
            checkpoints.append(position)
            for strategy, name in (
                ("default", "default"),
                ("bypass", "bypass"),
                ("already_seen", "already_seen"),
            ):
                block_precision, block_recall = _block_average(block, strategy)
                series[f"{name}_precision"].append(block_precision)
                series[f"{name}_recall"].append(block_recall)
            block = []

    return LearningCurveResult(
        k=k,
        checkpoints=np.asarray(checkpoints, dtype=np.intp),
        default_precision=np.asarray(series["default_precision"]),
        bypass_precision=np.asarray(series["bypass_precision"]),
        already_seen_precision=np.asarray(series["already_seen_precision"]),
        default_recall=np.asarray(series["default_recall"]),
        bypass_recall=np.asarray(series["bypass_recall"]),
        already_seen_recall=np.asarray(series["already_seen_recall"]),
        session=session,
    )


# ---------------------------------------------------------------------- #
# Figure 11: precision / recall vs. k after training
# ---------------------------------------------------------------------- #
@dataclass
class KSweepResult:
    """Precision and recall of the three strategies for several values of k."""

    k_values: np.ndarray
    default_precision: np.ndarray
    bypass_precision: np.ndarray
    already_seen_precision: np.ndarray
    default_recall: np.ndarray
    bypass_recall: np.ndarray
    already_seen_recall: np.ndarray


def k_sweep(
    dataset: ImageDataset,
    *,
    training_k: int = 50,
    n_training_queries: int = 1000,
    n_evaluation_queries: int = 100,
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
    epsilon: float = 0.05,
    seed: int = 0,
    session: InteractiveSession | None = None,
) -> KSweepResult:
    """Reproduce the k sweep of Figure 11.

    A session is first trained with ``n_training_queries`` at ``training_k``
    (or an already-trained ``session`` is supplied); afterwards fresh
    evaluation queries measure precision and recall of the three strategies
    for every ``k`` in ``k_values``.
    """
    if session is None:
        config = SessionConfig(k=training_k, epsilon=epsilon)
        session = InteractiveSession.for_dataset(dataset, config)
        rng = ensure_rng(derive_seed(seed, "k_sweep_train"))
        session.run_stream(dataset.sample_query_indices(n_training_queries, rng))

    rng = ensure_rng(derive_seed(seed, "k_sweep_eval"))
    evaluation_indices = dataset.sample_query_indices(n_evaluation_queries, rng)
    dimension = session.collection.dimension
    default_parameters = OptimalQueryParameters.default(dimension)

    results: dict[str, list[float]] = {name: [] for name in (
        "default_precision", "bypass_precision", "already_seen_precision",
        "default_recall", "bypass_recall", "already_seen_recall",
    )}
    for k in k_values:
        per_strategy: dict[str, list[tuple[float, float]]] = {
            "default": [], "bypass": [], "already_seen": []
        }
        for query_index in evaluation_indices:
            query_index = int(query_index)
            query_point = session.collection.vector(query_index)
            predicted = session.bypass.mopt(query_point)

            default_metrics = session.evaluate_first_round(query_index, default_parameters, k=k)
            bypass_metrics = session.evaluate_first_round(query_index, predicted, k=k)
            loop = session.run_feedback_loop(query_index, default_parameters, k=k)
            optimal = OptimalQueryParameters(
                delta=loop.final_state.query_point - query_point,
                weights=loop.final_state.weights,
            )
            seen_metrics = session.evaluate_first_round(query_index, optimal, k=k)

            per_strategy["default"].append((default_metrics.precision, default_metrics.recall))
            per_strategy["bypass"].append((bypass_metrics.precision, bypass_metrics.recall))
            per_strategy["already_seen"].append((seen_metrics.precision, seen_metrics.recall))

        for name in ("default", "bypass", "already_seen"):
            block_precision, block_recall = average_precision_recall(per_strategy[name])
            results[f"{name}_precision"].append(block_precision)
            results[f"{name}_recall"].append(block_recall)

    return KSweepResult(
        k_values=np.asarray(k_values, dtype=np.intp),
        default_precision=np.asarray(results["default_precision"]),
        bypass_precision=np.asarray(results["bypass_precision"]),
        already_seen_precision=np.asarray(results["already_seen_precision"]),
        default_recall=np.asarray(results["default_recall"]),
        bypass_recall=np.asarray(results["bypass_recall"]),
        already_seen_recall=np.asarray(results["already_seen_recall"]),
    )


# ---------------------------------------------------------------------- #
# Figure 13: transfer across training k
# ---------------------------------------------------------------------- #
@dataclass
class TrainingTransferResult:
    """Bypass precision / recall per (training k, evaluation size)."""

    training_k_values: np.ndarray
    evaluation_sizes: np.ndarray
    precision: np.ndarray  # shape (len(training_k_values), len(evaluation_sizes))
    recall: np.ndarray


def training_k_transfer(
    dataset: ImageDataset,
    *,
    training_k_values: tuple[int, ...] = (20, 50, 80),
    evaluation_sizes: tuple[int, ...] = DEFAULT_K_VALUES,
    n_training_queries: int = 500,
    n_evaluation_queries: int = 100,
    epsilon: float = 0.05,
    seed: int = 0,
) -> TrainingTransferResult:
    """Reproduce Figure 13: does training with larger k transfer to any result size?

    One FeedbackBypass instance is trained per value in ``training_k_values``;
    every trained instance is then evaluated (predictions only) on the same
    fresh queries for every evaluation result-set size.
    """
    rng_eval = ensure_rng(derive_seed(seed, "transfer_eval"))
    evaluation_indices = dataset.sample_query_indices(n_evaluation_queries, rng_eval)

    precision_matrix = np.zeros((len(training_k_values), len(evaluation_sizes)))
    recall_matrix = np.zeros_like(precision_matrix)

    for row, training_k in enumerate(training_k_values):
        config = SessionConfig(k=int(training_k), epsilon=epsilon)
        session = InteractiveSession.for_dataset(dataset, config)
        rng_train = ensure_rng(derive_seed(seed, "transfer_train", training_k))
        session.run_stream(dataset.sample_query_indices(n_training_queries, rng_train))

        for column, size in enumerate(evaluation_sizes):
            pairs = []
            for query_index in evaluation_indices:
                query_index = int(query_index)
                predicted = session.bypass.mopt(session.collection.vector(query_index))
                metrics = session.evaluate_first_round(query_index, predicted, k=int(size))
                pairs.append((metrics.precision, metrics.recall))
            precision_matrix[row, column], recall_matrix[row, column] = average_precision_recall(pairs)

    return TrainingTransferResult(
        training_k_values=np.asarray(training_k_values, dtype=np.intp),
        evaluation_sizes=np.asarray(evaluation_sizes, dtype=np.intp),
        precision=precision_matrix,
        recall=recall_matrix,
    )


# ---------------------------------------------------------------------- #
# Figure 14: per-category robustness
# ---------------------------------------------------------------------- #
@dataclass
class CategoryRobustnessResult:
    """Per-category precision and recall of the three strategies."""

    categories: list[str]
    default_precision: np.ndarray
    bypass_precision: np.ndarray
    already_seen_precision: np.ndarray
    default_recall: np.ndarray
    bypass_recall: np.ndarray
    already_seen_recall: np.ndarray
    query_counts: np.ndarray


def category_robustness(
    dataset: ImageDataset,
    *,
    k: int = 50,
    n_queries: int = 1000,
    epsilon: float = 0.05,
    seed: int = 0,
    session: InteractiveSession | None = None,
    outcomes: list[QueryOutcome] | None = None,
) -> CategoryRobustnessResult:
    """Reproduce Figure 14: how predictions behave per query category.

    Either reuses the ``outcomes`` of an already-run stream or runs a fresh
    one, then groups the per-query metrics by the query's category.
    """
    if outcomes is None:
        if session is None:
            config = SessionConfig(k=k, epsilon=epsilon)
            session = InteractiveSession.for_dataset(dataset, config)
        rng = ensure_rng(derive_seed(seed, "category_robustness"))
        outcomes = session.run_stream(dataset.sample_query_indices(n_queries, rng))
    if not outcomes:
        raise ValidationError("category robustness needs at least one query outcome")

    categories = sorted({outcome.category for outcome in outcomes})
    arrays: dict[str, list[float]] = {name: [] for name in (
        "default_precision", "bypass_precision", "already_seen_precision",
        "default_recall", "bypass_recall", "already_seen_recall",
    )}
    counts: list[int] = []
    for category in categories:
        members = [outcome for outcome in outcomes if outcome.category == category]
        counts.append(len(members))
        for strategy in ("default", "bypass", "already_seen"):
            block_precision, block_recall = _block_average(members, strategy)
            arrays[f"{strategy}_precision"].append(block_precision)
            arrays[f"{strategy}_recall"].append(block_recall)

    return CategoryRobustnessResult(
        categories=categories,
        default_precision=np.asarray(arrays["default_precision"]),
        bypass_precision=np.asarray(arrays["bypass_precision"]),
        already_seen_precision=np.asarray(arrays["already_seen_precision"]),
        default_recall=np.asarray(arrays["default_recall"]),
        bypass_recall=np.asarray(arrays["bypass_recall"]),
        already_seen_recall=np.asarray(arrays["already_seen_recall"]),
        query_counts=np.asarray(counts, dtype=np.intp),
    )


# ---------------------------------------------------------------------- #
# Figure 16: Simplex-Tree growth
# ---------------------------------------------------------------------- #
@dataclass
class TreeGrowthResult:
    """Average traversal length and depth of the tree as queries accumulate."""

    checkpoints: np.ndarray
    average_traversal: np.ndarray
    depth: np.ndarray
    stored_points: np.ndarray


def tree_growth(
    dataset: ImageDataset,
    *,
    k: int = 50,
    n_queries: int = 700,
    checkpoint_every: int = 100,
    epsilon: float = 0.05,
    n_probe_points: int = 200,
    seed: int = 0,
) -> TreeGrowthResult:
    """Reproduce Figure 16: traversal length and depth of the Simplex Tree.

    After every checkpoint the tree is probed with a fixed set of query
    points to measure the average number of simplices a lookup traverses,
    reported alongside the tree depth (the worst case).
    """
    config = SessionConfig(k=k, epsilon=epsilon)
    session = InteractiveSession.for_dataset(dataset, config)
    rng = ensure_rng(derive_seed(seed, "tree_growth"))
    indices = dataset.sample_query_indices(n_queries, rng)
    probe_rng = ensure_rng(derive_seed(seed, "tree_growth_probe"))
    probe_indices = dataset.sample_query_indices(n_probe_points, probe_rng)
    probe_points = session.collection.vectors[np.asarray(probe_indices, dtype=np.intp)]

    checkpoints: list[int] = []
    traversals: list[float] = []
    depths: list[int] = []
    stored: list[int] = []
    for position, query_index in enumerate(indices, start=1):
        session.run_query(int(query_index))
        if position % checkpoint_every == 0 or position == len(indices):
            average, depth = session.bypass.tree.traversal_profile(probe_points)
            checkpoints.append(position)
            traversals.append(average)
            depths.append(depth)
            stored.append(session.bypass.n_stored_queries)

    return TreeGrowthResult(
        checkpoints=np.asarray(checkpoints, dtype=np.intp),
        average_traversal=np.asarray(traversals),
        depth=np.asarray(depths, dtype=np.intp),
        stored_points=np.asarray(stored, dtype=np.intp),
    )
