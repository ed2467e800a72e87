"""Plain-text rendering of experiment results.

The figure benchmarks under ``benchmarks/`` print the same rows / series
the paper plots; these helpers keep that formatting in one place so the
benchmarks, the examples and the tracked ``benchmarks/results/*.txt`` stay
consistent.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.efficiency import EfficiencyResult
from repro.evaluation.experiments import (
    CategoryRobustnessResult,
    KSweepResult,
    LearningCurveResult,
    TreeGrowthResult,
)


def format_series_table(header: list[str], rows: list[list]) -> str:
    """Render a simple fixed-width table."""
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


def render_learning_curve(result: LearningCurveResult) -> str:
    """Figure 10 / 12: precision (and gains) per number of processed queries."""
    bypass_gain, seen_gain = result.precision_gains()
    rows = [
        [
            int(queries),
            default,
            bypass,
            seen,
            gain_bypass,
            gain_seen,
        ]
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
    return f"Learning curve (k={result.k})\n" + format_series_table(header, rows)


def render_k_sweep(result: KSweepResult) -> str:
    """Figure 11: precision and recall as k varies."""
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
    header = [
        "k",
        "Pr(Default)",
        "Pr(Bypass)",
        "Pr(Seen)",
        "Re(Default)",
        "Re(Bypass)",
        "Re(Seen)",
    ]
    return "Precision / recall vs. k\n" + format_series_table(header, rows)


def render_category_robustness(result: CategoryRobustnessResult) -> str:
    """Figure 14: per-category precision and recall."""
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
    return "Per-category robustness\n" + format_series_table(header, rows)


def render_efficiency(result: EfficiencyResult) -> str:
    """Figure 15: signed saved cycles and objects, and the share of queries that lost."""
    sections = []
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
        header = ["queries", "Saved-Cycles", "Saved-Objects", "lost share"]
        sections.append(f"k = {int(k)}\n" + format_series_table(header, rows))
    return "Efficiency (Figure 15)\n" + "\n\n".join(sections)


def render_engine_stats(stats: dict[str, int]) -> str:
    """Dispatch counters of a retrieval engine.

    Makes the engine's index-vs-scan routing visible: ``scan_fallbacks``
    counts the queries a metric index could not serve (feedback-adjusted
    distances), which previously happened silently.
    """
    rows = [[name, int(value)] for name, value in stats.items()]
    return "Retrieval-engine dispatch\n" + format_series_table(["counter", "value"], rows)






def render_tree_growth(result: TreeGrowthResult) -> str:
    """Figure 16: traversal length and depth of the Simplex Tree."""
    rows = [
        [int(queries), traversal, int(depth), int(stored)]
        for queries, traversal, depth, stored in zip(
            result.checkpoints, result.average_traversal, result.depth, result.stored_points
        )
    ]
    header = ["queries", "avg simplices traversed", "tree depth", "stored points"]
    return "Simplex-Tree growth (Figure 16)\n" + format_series_table(header, rows)
