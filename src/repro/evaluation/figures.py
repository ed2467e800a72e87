"""The paper's experiments, one registry entry per reproduced series.

:data:`FIGURES` maps a series name — the Section 5 figures 10–16, the
Figure 1 demonstration and five ablations of the design choices — to a
:class:`Figure`: the experiment call with its arguments, the table it
renders, and the paper's claims about it as named predicates.  Each claim's
docstring quotes the statement it checks, as this reproduction records the
paper's Sections 1, 2, 4.2 and 5.  ``benchmarks/test_figures.py`` runs every
entry on the benchmark corpus, writes its table to ``benchmarks/results/``
and asserts every claim; ``examples/run_paper_experiments.py`` prints any
subset.  A claim that does not hold on a run is appended to the rendered
table as a finding (:meth:`Figure.report`), so a recorded series never hides
a failed claim.

Every entry runs as ``figure.run(dataset, seed)``: the corpus the series is
measured on and the seed of its query streams.  The ablation over histogram
layouts builds its own corpora (a corpus has one layout), at the seed given.
Like the rest of the package, the entries measure counts and precisions,
never a clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.analysis import storage_estimate
from repro.core.oqp import OptimalQueryParameters
from repro.database.collection import FeatureCollection
from repro.database.knn import LinearScanIndex
from repro.database.mtree import MTreeIndex
from repro.database.vptree import VPTreeIndex
from repro.distances.base import DistanceFunction
from repro.distances.minkowski import euclidean
from repro.evaluation.efficiency import saved_cycles_experiment
from repro.evaluation.experiments import (
    category_robustness,
    k_sweep,
    learning_curve,
    training_k_transfer,
    tree_growth,
)
from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.evaluation.workloads import repeat_rate_benefit
from repro.features.datasets import ImageDataset, build_imsi_like_dataset
from repro.features.normalization import drop_last_bin
from repro.feedback.reweighting import ReweightingRule
from repro.utils.rng import derive_seed, ensure_rng

__all__ = ["FIGURES", "Figure", "Table", "format_series_table"]


def format_series_table(header: list[str], rows: list[list]) -> str:
    """Render a simple fixed-width table (floats with three decimals)."""
    widths = [len(name) for name in header]
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered = [
            f"{value:.3f}" if isinstance(value, (float, np.floating)) else str(value)
            for value in row
        ]
        rendered_rows.append(rendered)
        widths = [max(width, len(cell)) for width, cell in zip(widths, rendered)]
    lines = ["  ".join(name.ljust(width) for name, width in zip(header, widths))]
    lines.append("  ".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(rendered, widths)))
    return "\n".join(lines)


@dataclass(frozen=True)
class Table:
    """A titled series: one header over one or more labelled blocks of rows.

    Figure 15 has one block per k (labelled ``k = …``); every other series
    has a single unlabelled block.
    """

    title: str
    header: list[str]
    blocks: list[tuple[str, list[list]]]

    def render(self) -> str:
        parts = []
        for label, rows in self.blocks:
            text = format_series_table(self.header, rows)
            parts.append(f"{label}\n{text}" if label else text)
        return self.title + "\n" + "\n\n".join(parts)


def _table(title: str, header: list[str], rows: list[list]) -> Table:
    return Table(title, header, [("", rows)])


@dataclass(frozen=True)
class Figure:
    """One reproduced series: its experiment, its table and the paper's claims."""

    run: Callable[[ImageDataset, int], Any]
    table: Callable[[Any], Table]
    claims: tuple[Callable[[Any], bool], ...]

    def failed_claims(self, result) -> list[Callable[[Any], bool]]:
        """The claims that do not hold on ``result``."""
        return [claim for claim in self.claims if not claim(result)]

    def report(self, result) -> str:
        """The rendered table, followed by every failed claim as a finding."""
        text = self.table(result).render()
        failed = self.failed_claims(result)
        if failed:
            findings = [f"- {claim.__name__}: {_quote(claim)}" for claim in failed]
            text += "\n\nFindings (paper claims that do not hold on this run):\n" + "\n".join(findings)
        return text


def _quote(claim: Callable) -> str:
    """The first paragraph of a claim's docstring, on one line."""
    return " ".join((claim.__doc__ or "").strip().split("\n\n")[0].split())


# ---------------------------------------------------------------------- #
# Figure 1: bypassing the feedback loop, aggregated over fresh queries
# ---------------------------------------------------------------------- #
_TOP_K = 5


def _bypass_demo(dataset: ImageDataset, seed: int) -> dict[str, np.ndarray]:
    """Relevant results in the top 5 under Default vs. predicted parameters.

    The bypass is trained on 300 queries; 60 fresh queries are then answered
    once with the default parameters and once with the prediction.
    """
    session = InteractiveSession.for_dataset(dataset, SessionConfig(k=30, epsilon=0.05))
    train_rng = ensure_rng(derive_seed(seed, "fig1_train"))
    session.run_stream(dataset.sample_query_indices(300, train_rng))

    eval_rng = ensure_rng(derive_seed(seed, "fig1_eval"))
    default_parameters = OptimalQueryParameters.default(session.collection.dimension)
    hits: dict[str, list[float]] = {"Default": [], "FeedbackBypass": []}
    for query_index in dataset.sample_query_indices(60, eval_rng):
        query_index = int(query_index)
        predicted = session.bypass.mopt(session.collection.vector(query_index))
        for label, parameters in (("Default", default_parameters), ("FeedbackBypass", predicted)):
            metrics = session.evaluate_first_round(query_index, parameters, k=_TOP_K)
            hits[label].append(metrics.precision * _TOP_K)
    return {label: np.asarray(values) for label, values in hits.items()}


def _bypass_demo_table(hits) -> Table:
    rows = [
        [label, float(values.mean()), float((values == 0).mean())]
        for label, values in hits.items()
    ]
    return _table(
        "Top-5 relevant results per strategy (Figure 1, aggregate)",
        ["strategy", f"avg relevant in top {_TOP_K}", "fraction of queries with 0 relevant"],
        rows,
    )


def predicted_parameters_retrieve_more_relevant(hits) -> bool:
    """Figure 1: "the default top-5 results contain no image of the query's
    category, while the results computed with the parameters predicted by
    FeedbackBypass contain 4 relevant images."

    Checked on average over the fresh queries.
    """
    return hits["FeedbackBypass"].mean() >= hits["Default"].mean()


# ---------------------------------------------------------------------- #
# Figure 10: precision and precision gain vs. processed queries (k = 50)
# ---------------------------------------------------------------------- #
def _learning_curve_table(result) -> Table:
    bypass_gain, seen_gain = result.precision_gains()
    rows = [
        [int(queries), default, bypass, seen, gain_bypass, gain_seen]
        for queries, default, bypass, seen, gain_bypass, gain_seen in zip(
            result.checkpoints,
            result.default_precision,
            result.bypass_precision,
            result.already_seen_precision,
            bypass_gain,
            seen_gain,
        )
    ]
    header = [
        "queries",
        "Pr(Default)",
        "Pr(FeedbackBypass)",
        "Pr(AlreadySeen)",
        "Gain(Bypass)%",
        "Gain(Seen)%",
    ]
    return _table(f"Learning curve (k={result.k})", header, rows)


def already_seen_above_default(result) -> bool:
    """Figure 10: "AlreadySeen sits well above [Default] from the start."

    Averaged over the checkpoints.
    """
    return result.already_seen_precision.mean() > result.default_precision.mean()


def bypass_reaches_above_default(result) -> bool:
    """Figure 10: "FeedbackBypass climbs from the Default level towards the
    AlreadySeen ceiling as the Simplex Tree learns the query mapping."

    At the last checkpoint the bypass precision is at least Default's.
    """
    return result.bypass_precision[-1] >= result.default_precision[-1]


def bypass_gain_grows_with_queries(result) -> bool:
    """Figure 10 (b): the precision gain of FeedbackBypass over Default grows
    "as the Simplex Tree learns the query mapping."

    The mean gain over the last third of the stream is at least the mean gain
    over its first third.
    """
    bypass_gain, _ = result.precision_gains()
    third = len(bypass_gain) // 3
    return bypass_gain[-third:].mean() >= bypass_gain[:third].mean()


# ---------------------------------------------------------------------- #
# Figure 11: precision and recall vs. k after training
# ---------------------------------------------------------------------- #
def _k_sweep_table(result) -> Table:
    rows = [
        [int(k), dp, bp, sp, dr, br, sr]
        for k, dp, bp, sp, dr, br, sr in zip(
            result.k_values,
            result.default_precision,
            result.bypass_precision,
            result.already_seen_precision,
            result.default_recall,
            result.bypass_recall,
            result.already_seen_recall,
        )
    ]
    header = ["k", "Pr(Default)", "Pr(Bypass)", "Pr(Seen)", "Re(Default)", "Re(Bypass)", "Re(Seen)"]
    return _table("Precision / recall vs. k", header, rows)


def already_seen_dominates_default_for_every_k(result) -> bool:
    """Figure 11: "for every k the ordering Default <= FeedbackBypass <=
    AlreadySeen holds."

    The AlreadySeen ceiling is at least Default at every k.
    """
    return bool(np.all(result.already_seen_precision >= result.default_precision - 1e-9))


def bypass_above_default_across_k(result) -> bool:
    """Figure 11: "for every k the ordering Default <= FeedbackBypass <=
    AlreadySeen holds."

    FeedbackBypass beats Default on average over the swept values of k.
    """
    return result.bypass_precision.mean() >= result.default_precision.mean()


def recall_grows_with_k(result) -> bool:
    """Figure 11: "precision decreases and recall increases with k."

    Recall is non-decreasing in k for Default and AlreadySeen (more results
    can only contain more relevant objects).
    """
    return bool(
        np.all(result.default_recall[1:] >= result.default_recall[:-1] - 1e-9)
        and np.all(result.already_seen_recall[1:] >= result.already_seen_recall[:-1] - 1e-9)
    )


# ---------------------------------------------------------------------- #
# Figure 12: FeedbackBypass learning curves for k = 20, 50, 80
# ---------------------------------------------------------------------- #
_PER_K = (20, 50, 80)


def _per_k_learning(dataset: ImageDataset, seed: int) -> dict:
    return {
        k: learning_curve(
            dataset, k=k, n_queries=250, checkpoint_every=50, epsilon=0.05, seed=seed + k
        )
        for k in _PER_K
    }


def _per_k_learning_table(curves) -> Table:
    header = ["queries"]
    for k in curves:
        header += [f"Pr(k={k})", f"Re(k={k})"]
    rows = []
    for position, queries in enumerate(next(iter(curves.values())).checkpoints):
        row = [int(queries)]
        for curve in curves.values():
            row += [float(curve.bypass_precision[position]), float(curve.bypass_recall[position])]
        rows.append(row)
    return _table("FeedbackBypass learning per k (Figure 12)", header, rows)


def per_k_recall_grows_with_k(curves) -> bool:
    """Figure 12: "precision is higher for smaller k while recall is higher
    for larger k."

    Checked on the recall side, averaged over each curve.
    """
    recalls = [curve.bypass_recall.mean() for curve in curves.values()]
    return recalls == sorted(recalls)


def every_per_k_curve_keeps_learning(curves) -> bool:
    """Figure 12: "every curve rises with the number of queries."

    Each curve ends no more than 0.05 below where it started.
    """
    return all(
        curve.bypass_precision[-1] >= curve.bypass_precision[0] - 0.05 for curve in curves.values()
    )


# ---------------------------------------------------------------------- #
# Figure 13: transfer across the training k
# ---------------------------------------------------------------------- #
def _transfer_table(result) -> Table:
    training = [int(k) for k in result.training_k_values]
    header = ["retrieved"] + [f"Pr(train k={k})" for k in training] + [f"Re(train k={k})" for k in training]
    rows = [
        [int(size)]
        + [float(value) for value in result.precision[:, column]]
        + [float(value) for value in result.recall[:, column]]
        for column, size in enumerate(result.evaluation_sizes)
    ]
    return _table("Training-k transfer (Figure 13)", header, rows)


def training_with_larger_k_transfers(result) -> bool:
    """Figure 13: "training with larger k is worthwhile even when fewer
    objects are later retrieved (most visible for k = 80)."

    Averaged over the retrieval sizes, the k = 80 instance is within 0.05 of
    the k = 20 instance or better.
    """
    mean_precision = result.precision.mean(axis=1)
    return mean_precision[-1] >= mean_precision[0] - 0.05


# ---------------------------------------------------------------------- #
# Figure 14: per-category precision and recall
# ---------------------------------------------------------------------- #
def _category_table(result) -> Table:
    rows = [
        [category, int(count), dp, bp, sp, dr, br, sr]
        for category, count, dp, bp, sp, dr, br, sr in zip(
            result.categories,
            result.query_counts,
            result.default_precision,
            result.bypass_precision,
            result.already_seen_precision,
            result.default_recall,
            result.bypass_recall,
            result.already_seen_recall,
        )
    ]
    header = [
        "category",
        "queries",
        "Pr(Default)",
        "Pr(Bypass)",
        "Pr(Seen)",
        "Re(Default)",
        "Re(Bypass)",
        "Re(Seen)",
    ]
    return _table("Per-category robustness", header, rows)


def every_category_is_measured(result) -> bool:
    """Figure 14: the Figure-10 measurements "separated by query category",
    one bar per category of the evaluation set.

    All seven evaluation categories of the IMSI-like corpus receive queries.
    """
    return len(result.categories) == 7


def feedback_helps_in_every_category(result) -> bool:
    """Figure 14: "FeedbackBypass helps wherever feedback itself helps (a
    visible gap between Default and AlreadySeen)."

    The AlreadySeen ceiling is at least Default in every category.
    """
    return bool(np.all(result.already_seen_precision >= result.default_precision - 1e-9))


def bypass_helps_most_categories(result) -> bool:
    """Figure 14: FeedbackBypass "helps wherever feedback itself helps ... and
    cannot help where feedback gains little."

    The bypass improves on Default in at least half of the categories.
    """
    improvements = result.bypass_precision - result.default_precision
    return (improvements > 0).sum() >= len(result.categories) // 2


# ---------------------------------------------------------------------- #
# Figure 15: Saved-Cycles and Saved-Objects for k = 20 and k = 50
# ---------------------------------------------------------------------- #
def _efficiency_table(result) -> Table:
    blocks = []
    for position, k in enumerate(result.k_values):
        rows = [
            [int(queries), cycles, objects, lost]
            for queries, cycles, objects, lost in zip(
                result.checkpoints,
                result.saved_cycles[position],
                result.saved_objects[position],
                result.lost_share[position],
            )
        ]
        blocks.append((f"k = {int(k)}", rows))
    return Table(
        "Efficiency (Figure 15)", ["queries", "Saved-Cycles", "Saved-Objects", "lost share"], blocks
    )


def prediction_saves_cycles(result) -> bool:
    """Figure 15: savings "grow with the number of processed queries,
    reaching about two cycles (≈100 retrieved objects at k = 50) after 1000
    queries."

    After warm-up the signed mean saving is positive at every checkpoint,
    for every k.
    """
    return bool(np.all(result.saved_cycles > 0.0))


def losing_queries_are_a_minority(result) -> bool:
    """Figure 15: the loop is run "from the default parameters and from the
    FeedbackBypass prediction — and the difference in iterations is the
    number of cycles (k-NN requests) the prediction saves."

    The share of queries whose loop from the prediction runs longer than
    from the defaults stays below one half at every checkpoint.
    """
    return bool(np.all((result.lost_share >= 0.0) & (result.lost_share < 0.5)))


def saved_objects_are_cycles_times_k(result) -> bool:
    """Section 5.3: Saved-Objects is "Saved-Cycles x k: every saved cycle is
    one k-NN request the underlying database never has to answer."
    """
    expected = result.saved_cycles * result.k_values[:, None]
    return bool(np.allclose(result.saved_objects, expected, rtol=1e-7, atol=1e-9))


# ---------------------------------------------------------------------- #
# Figure 16: traversal length vs. depth of the Simplex Tree
# ---------------------------------------------------------------------- #
def _tree_growth_table(result) -> Table:
    rows = [
        [int(queries), traversal, int(depth), int(stored)]
        for queries, traversal, depth, stored in zip(
            result.checkpoints, result.average_traversal, result.depth, result.stored_points
        )
    ]
    header = ["queries", "avg simplices traversed", "tree depth", "stored points"]
    return _table("Simplex-Tree growth (Figure 16)", header, rows)


def depth_never_shrinks(result) -> bool:
    """Figure 16: depth grows "logarithmically with the number of processed
    queries."

    The depth is non-decreasing across checkpoints.
    """
    return bool(np.all(np.diff(result.depth) >= 0))


def traversal_stays_below_depth(result) -> bool:
    """Figure 16: "the average traversal length staying clearly below the
    depth — lookups are fast even as the tree grows."
    """
    return bool(np.all(result.average_traversal <= result.depth + 1))


def depth_grows_sublinearly(result) -> bool:
    """Figure 16: "both quantities growing logarithmically with the number of
    processed queries."

    The final depth is under half the number of stored points.
    """
    return bool(result.depth[-1] < result.stored_points[-1] / 2)


# ---------------------------------------------------------------------- #
# Ablation: storage vs. the dimensionality of the query space
# ---------------------------------------------------------------------- #
_HISTOGRAM_LAYOUTS = ((4, 2), (4, 4), (8, 4))  # 8, 16 and 32 bins: D = 7, 15, 31


def _dimensionality(dataset: ImageDataset, seed: int) -> list[dict]:
    """Train on corpora with finer and finer histogram layouts (N = 2D).

    One corpus has one layout, so this series builds its own corpora (at 10%
    of the paper's size) instead of reading ``dataset``.
    """
    measurements = []
    for n_hue_bins, n_saturation_bins in _HISTOGRAM_LAYOUTS:
        corpus = build_imsi_like_dataset(
            scale=0.1, n_hue_bins=n_hue_bins, n_saturation_bins=n_saturation_bins, seed=seed
        )
        session = InteractiveSession.for_dataset(corpus, SessionConfig(k=30, epsilon=0.05))
        rng = ensure_rng(derive_seed(seed, "dimensionality", n_hue_bins, n_saturation_bins))
        session.run_stream(corpus.sample_query_indices(150, rng))
        report = storage_estimate(session.bypass.tree)
        measurements.append(
            {
                "n_bins": n_hue_bins * n_saturation_bins,
                "dimension": session.bypass.query_dimension,
                "stored": report.n_stored_points,
                "bytes_per_point": report.bytes_per_stored_point,
                "total_kib": report.total_bytes / 1024.0,
                "depth": session.bypass.tree.depth(),
            }
        )
    return measurements


def _dimensionality_table(measurements) -> Table:
    keys = ("n_bins", "dimension", "stored", "bytes_per_point", "total_kib", "depth")
    return _table(
        "Storage vs. query-space dimensionality",
        ["bins", "D", "stored points", "bytes / stored point", "total KiB", "depth"],
        [[m[key] for key in keys] for m in measurements],
    )


def storage_scales_linearly_with_dimension(measurements) -> bool:
    """Sections 1 and 6: the Simplex Tree's "storage requirements scale
    linearly with the dimensionality of the query space."

    From D = 7 to D = 31 (4.4x) the storage per stored point grows by at
    most 2.5x the dimension ratio, well below the ~20x of a quadratic
    dependence.
    """
    first, last = measurements[0], measurements[-1]
    growth = last["bytes_per_point"] / first["bytes_per_point"]
    return growth <= 2.5 * (last["dimension"] / first["dimension"])


# ---------------------------------------------------------------------- #
# Ablation: the insert threshold epsilon (Section 4.2)
# ---------------------------------------------------------------------- #
# The gate compares epsilon against errors on raw OQP components; after
# 1/sigma^2 re-weighting the weight components span values well above 1, so
# the discriminating thresholds sit in the 1..100 range.
_EPSILONS = (0.05, 1.0, 5.0, 20.0, 100.0)


def _epsilon_sweep(dataset: ImageDataset, seed: int) -> list[dict]:
    measurements = []
    for epsilon in _EPSILONS:
        result = learning_curve(
            dataset, k=30, n_queries=200, checkpoint_every=200, epsilon=epsilon, seed=seed
        )
        tree = result.session.bypass.tree
        measurements.append(
            {
                "epsilon": epsilon,
                "stored": result.session.bypass.n_stored_queries,
                "simplices": tree.n_simplices,
                "depth": tree.depth(),
                "bypass_precision": float(result.bypass_precision[-1]),
                "default_precision": float(result.default_precision[-1]),
            }
        )
    return measurements


def _epsilon_table(measurements) -> Table:
    keys = ("epsilon", "stored", "simplices", "depth", "bypass_precision", "default_precision")
    return _table(
        "Insert-threshold ablation",
        ["epsilon", "stored points", "simplices", "depth", "Pr(Bypass)", "Pr(Default)"],
        [[m[key] for key in keys] for m in measurements],
    )


def storage_shrinks_as_epsilon_grows(measurements) -> bool:
    """Section 4.2: epsilon "trades storage for prediction accuracy: low
    thresholds store almost every feedback point, high thresholds store only
    the points that change the approximation substantially."

    The number of stored points never grows with epsilon.
    """
    stored = [m["stored"] for m in measurements]
    return all(later <= earlier for earlier, later in zip(stored, stored[1:]))


def loosest_epsilon_halves_storage(measurements) -> bool:
    """Section 4.2: "high thresholds store only the points that change the
    approximation substantially."

    The loosest threshold stores at most half of what the strictest stores,
    and strictly less.
    """
    strictest, loosest = measurements[0]["stored"], measurements[-1]["stored"]
    return loosest < strictest and loosest <= strictest // 2


# ---------------------------------------------------------------------- #
# Ablation: the relevance-feedback strategy (Section 2)
# ---------------------------------------------------------------------- #
_STRATEGIES = (
    ("movement-only", ReweightingRule.NONE),
    ("MARS 1/sigma", ReweightingRule.MARS),
    ("optimal 1/sigma^2", ReweightingRule.OPTIMAL),
)


def _strategy_sweep(dataset: ImageDataset, seed: int) -> dict[str, dict]:
    measurements = {}
    for label, rule in _STRATEGIES:
        result = learning_curve(
            dataset,
            k=30,
            n_queries=200,
            checkpoint_every=200,
            epsilon=0.05,
            reweighting_rule=rule,
            seed=seed,
        )
        measurements[label] = {
            "default": float(result.default_precision[-1]),
            "bypass": float(result.bypass_precision[-1]),
            "already_seen": float(result.already_seen_precision[-1]),
        }
    return measurements


def _strategy_table(measurements) -> Table:
    return _table(
        "Feedback-strategy ablation",
        ["strategy", "Pr(Default)", "Pr(Bypass)", "Pr(AlreadySeen)"],
        [[label, m["default"], m["bypass"], m["already_seen"]] for label, m in measurements.items()],
    )


def reweighting_raises_the_ceiling(measurements) -> bool:
    """Section 2: "FeedbackBypass is orthogonal to the feedback model, but
    the quality of the parameters it stores obviously depends on it."

    Optimal 1/sigma^2 re-weighting reaches an AlreadySeen ceiling at least as
    high as query-point movement alone.
    """
    optimal = measurements["optimal 1/sigma^2"]["already_seen"]
    return optimal >= measurements["movement-only"]["already_seen"] - 1e-9


def every_strategy_improves_on_default(measurements) -> bool:
    """Section 5: AlreadySeen answers with "the parameters the feedback loop
    converges to for this very query, i.e. the upper bound the prediction
    approaches."

    Under every strategy the converged parameters (AlreadySeen) are at least
    as precise as the defaults.
    """
    return all(m["already_seen"] >= m["default"] - 1e-9 for m in measurements.values())


# ---------------------------------------------------------------------- #
# Ablation: the k-NN substrate (linear scan vs. VP-tree vs. M-tree)
# ---------------------------------------------------------------------- #
_KNN_K = 50


class _CountingDistance(DistanceFunction):
    """Delegates to a distance and counts the point-to-point evaluations."""

    def __init__(self, inner: DistanceFunction) -> None:
        super().__init__(inner.dimension)
        self._inner = inner
        self.evaluations = 0

    @property
    def n_parameters(self) -> int:
        return self._inner.n_parameters

    def parameters(self) -> np.ndarray:
        return self._inner.parameters()

    def with_parameters(self, parameters) -> DistanceFunction:
        return self._inner.with_parameters(parameters)

    def distance(self, first, second) -> float:
        self.evaluations += 1
        return self._inner.distance(first, second)

    def distances_to(self, query, points) -> np.ndarray:
        distances = self._inner.distances_to(query, points)
        self.evaluations += distances.size
        return distances


def _knn_substrate(dataset: ImageDataset, seed: int) -> dict:
    """Neighbourhoods and distance evaluations per query of the three engines.

    The scan evaluates the whole corpus by construction; the VP-tree is
    counted through a counting distance handed to its constructor, the
    M-tree through its own ``distance_computations`` counter.  Build-time
    evaluations are excluded.
    """
    collection = FeatureCollection(
        drop_last_bin(dataset.features), labels=[record.category for record in dataset.records]
    )
    distance = euclidean(collection.dimension)
    counting = _CountingDistance(distance)
    vp_tree = VPTreeIndex(collection, counting, seed=seed)
    m_tree = MTreeIndex(collection, distance, node_capacity=16, seed=seed)
    rng = ensure_rng(derive_seed(seed, "knn_ablation"))
    queries = collection.vectors[rng.integers(0, collection.size, size=100)]

    scan = LinearScanIndex(collection)
    reference = np.vstack([scan.search(query, _KNN_K, distance).distances() for query in queries])

    def agrees(engine) -> bool:
        found = np.vstack([engine.search(query, _KNN_K).distances() for query in queries])
        return bool(np.allclose(found, reference, atol=1e-9))

    counting.evaluations = 0
    vp_agrees = agrees(vp_tree)
    vp_evaluations = counting.evaluations
    before = m_tree.distance_computations
    m_agrees = agrees(m_tree)
    m_evaluations = m_tree.distance_computations - before
    return {
        "corpus_size": collection.size,
        "engines": {
            "linear-scan": (True, float(collection.size)),
            "vp-tree": (vp_agrees, vp_evaluations / len(queries)),
            "m-tree": (m_agrees, m_evaluations / len(queries)),
        },
    }


def _knn_table(result) -> Table:
    return _table(
        f"k-NN substrate ablation (corpus = {result['corpus_size']} vectors, k = {_KNN_K})",
        ["engine", "matches scan", "distance evaluations / query"],
        [[name, str(agrees), evaluations] for name, (agrees, evaluations) in result["engines"].items()],
    )


def access_methods_are_interchangeable(result) -> bool:
    """The paper "treats the access method as an exchangeable component (it
    cites X-trees and M-trees)."

    Both metric trees return the scan's neighbourhood distances.
    """
    return all(agrees for agrees, _ in result["engines"].values())


def metric_trees_prune(result) -> bool:
    """The paper cites "the M-tree as a typical access method behind the
    query processing step of an interactive retrieval system."

    Both trees evaluate fewer distances per query than the corpus size the
    scan evaluates.
    """
    return all(
        result["engines"][name][1] < result["corpus_size"] for name in ("vp-tree", "m-tree")
    )


# ---------------------------------------------------------------------- #
# Ablation: the query repetition rate (the "already-seen" regime)
# ---------------------------------------------------------------------- #
def _repeat_rate(dataset: ImageDataset, seed: int):
    return repeat_rate_benefit(
        dataset, repeat_rates=(0.0, 0.25, 0.5, 0.75), n_queries=200, k=30, epsilon=0.05, seed=seed
    )


def _repeat_rate_table(result) -> Table:
    rows = [
        [float(rate), default, bypass, seen, default_loop, bypass_loop]
        for rate, default, bypass, seen, default_loop, bypass_loop in zip(
            result.repeat_rates,
            result.default_precision,
            result.bypass_precision,
            result.already_seen_precision,
            result.default_loop_iterations,
            result.bypass_loop_iterations,
        )
    ]
    header = [
        "repeat rate",
        "Pr(Default)",
        "Pr(Bypass)",
        "Pr(AlreadySeen)",
        "iterations from Default",
        "iterations from Bypass",
    ]
    return _table("Query-repetition ablation", header, rows)


def repetition_keeps_the_bypass_advantage(result) -> bool:
    """Section 1: "for an already-seen query the prediction equals the stored
    optimal parameters and the feedback loop can be skipped outright."

    The bypass advantage over Default with heavy repetition is at least the
    advantage without repetition, less 0.05.
    """
    advantage = result.bypass_precision - result.default_precision
    return advantage[-1] >= advantage[0] - 0.05


def repetition_approaches_the_ceiling(result) -> bool:
    """Section 1: "for an already-seen query the prediction equals the stored
    optimal parameters."

    The gap between AlreadySeen and FeedbackBypass with heavy repetition is
    at most the gap without repetition, plus 0.05.
    """
    gap = result.already_seen_precision - result.bypass_precision
    return gap[-1] <= gap[0] + 0.05


def repetition_shortens_the_bypass_loop(result) -> bool:
    """Section 1: for an already-seen query "the feedback loop can be skipped
    outright."

    The loop started from the prediction is shorter with heavy repetition
    than without any.
    """
    return result.bypass_loop_iterations[-1] < result.bypass_loop_iterations[0]


FIGURES: dict[str, Figure] = {
    "fig01_bypass_demo": Figure(
        run=_bypass_demo,
        table=_bypass_demo_table,
        claims=(predicted_parameters_retrieve_more_relevant,),
    ),
    "fig10_learning_curve": Figure(
        run=lambda dataset, seed: learning_curve(
            dataset, k=50, n_queries=400, checkpoint_every=50, epsilon=0.05, seed=seed
        ),
        table=_learning_curve_table,
        claims=(already_seen_above_default, bypass_reaches_above_default, bypass_gain_grows_with_queries),
    ),
    "fig11_k_sweep": Figure(
        run=lambda dataset, seed: k_sweep(
            dataset,
            training_k=50,
            n_training_queries=300,
            n_evaluation_queries=60,
            k_values=(10, 20, 30, 40, 50, 60, 70, 80),
            epsilon=0.05,
            seed=seed,
        ),
        table=_k_sweep_table,
        claims=(already_seen_dominates_default_for_every_k, bypass_above_default_across_k, recall_grows_with_k),
    ),
    "fig12_per_k_learning": Figure(
        run=_per_k_learning,
        table=_per_k_learning_table,
        claims=(per_k_recall_grows_with_k, every_per_k_curve_keeps_learning),
    ),
    "fig13_training_k_transfer": Figure(
        run=lambda dataset, seed: training_k_transfer(
            dataset,
            training_k_values=(20, 50, 80),
            evaluation_sizes=(10, 20, 30, 40, 50, 60, 70, 80),
            n_training_queries=250,
            n_evaluation_queries=50,
            epsilon=0.05,
            seed=seed,
        ),
        table=_transfer_table,
        claims=(training_with_larger_k_transfers,),
    ),
    "fig14_category_robustness": Figure(
        run=lambda dataset, seed: category_robustness(
            dataset, k=50, n_queries=400, epsilon=0.05, seed=seed
        ),
        table=_category_table,
        claims=(every_category_is_measured, feedback_helps_in_every_category, bypass_helps_most_categories),
    ),
    "fig15_saved_cycles": Figure(
        run=lambda dataset, seed: saved_cycles_experiment(
            dataset,
            k_values=(20, 50),
            n_queries=300,
            checkpoint_every=50,
            warmup_queries=100,
            epsilon=0.05,
            seed=seed,
        ),
        table=_efficiency_table,
        claims=(prediction_saves_cycles, losing_queries_are_a_minority, saved_objects_are_cycles_times_k),
    ),
    "fig16_tree_depth": Figure(
        run=lambda dataset, seed: tree_growth(
            dataset, k=50, n_queries=400, checkpoint_every=50, epsilon=0.05, n_probe_points=150, seed=seed
        ),
        table=_tree_growth_table,
        claims=(depth_never_shrinks, traversal_stays_below_depth, depth_grows_sublinearly),
    ),
    "ablation_dimensionality": Figure(
        run=_dimensionality,
        table=_dimensionality_table,
        claims=(storage_scales_linearly_with_dimension,),
    ),
    "ablation_epsilon": Figure(
        run=_epsilon_sweep,
        table=_epsilon_table,
        claims=(storage_shrinks_as_epsilon_grows, loosest_epsilon_halves_storage),
    ),
    "ablation_feedback_strategy": Figure(
        run=_strategy_sweep,
        table=_strategy_table,
        claims=(reweighting_raises_the_ceiling, every_strategy_improves_on_default),
    ),
    "ablation_knn_index": Figure(
        run=_knn_substrate,
        table=_knn_table,
        claims=(access_methods_are_interchangeable, metric_trees_prune),
    ),
    "ablation_repeat_rate": Figure(
        run=_repeat_rate,
        table=_repeat_rate_table,
        claims=(
            repetition_keeps_the_bypass_advantage,
            repetition_approaches_the_ceiling,
            repetition_shortens_the_bypass_loop,
        ),
    ),
}
