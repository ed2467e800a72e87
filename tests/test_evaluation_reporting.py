"""Tests for repro.evaluation.reporting."""

import numpy as np

from repro.evaluation.efficiency import EfficiencyResult
from repro.evaluation.experiments import (
    CategoryRobustnessResult,
    KSweepResult,
    LearningCurveResult,
    TreeGrowthResult,
)
from repro.evaluation.reporting import (
    format_series_table,
    render_category_robustness,
    render_efficiency,
    render_k_sweep,
    render_learning_curve,
    render_tree_growth,
)


def _fake_learning_curve() -> LearningCurveResult:
    return LearningCurveResult(
        k=50,
        checkpoints=np.array([100, 200]),
        default_precision=np.array([0.2, 0.21]),
        bypass_precision=np.array([0.25, 0.3]),
        already_seen_precision=np.array([0.4, 0.42]),
        default_recall=np.array([0.05, 0.05]),
        bypass_recall=np.array([0.06, 0.07]),
        already_seen_recall=np.array([0.09, 0.1]),
        session=None,
    )


class TestFormatSeriesTable:
    def test_header_and_rows_present(self):
        table = format_series_table(["a", "b"], [[1, 2.5], [3, 4.125]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert "2.500" in table
        assert "4.125" in table and "4.1250" not in table

    def test_column_alignment(self):
        table = format_series_table(["metric", "v"], [["x", 1.0]])
        header, separator, row = table.splitlines()
        assert len(header) == len(separator)


class TestRenderers:
    def test_render_learning_curve(self):
        text = render_learning_curve(_fake_learning_curve())
        assert "Learning curve (k=50)" in text
        assert "Pr(FeedbackBypass)" in text
        assert "100" in text and "200" in text

    def test_render_k_sweep(self):
        result = KSweepResult(
            k_values=np.array([10, 20]),
            default_precision=np.array([0.2, 0.22]),
            bypass_precision=np.array([0.3, 0.31]),
            already_seen_precision=np.array([0.4, 0.45]),
            default_recall=np.array([0.02, 0.04]),
            bypass_recall=np.array([0.03, 0.05]),
            already_seen_recall=np.array([0.04, 0.08]),
        )
        text = render_k_sweep(result)
        assert "Pr(Bypass)" in text and "Re(Seen)" in text

    def test_render_category_robustness(self):
        result = CategoryRobustnessResult(
            categories=["Bird", "Fish"],
            default_precision=np.array([0.2, 0.3]),
            bypass_precision=np.array([0.25, 0.31]),
            already_seen_precision=np.array([0.4, 0.33]),
            default_recall=np.array([0.02, 0.05]),
            bypass_recall=np.array([0.03, 0.05]),
            already_seen_recall=np.array([0.05, 0.06]),
            query_counts=np.array([12, 7]),
        )
        text = render_category_robustness(result)
        assert "Bird" in text and "Fish" in text

    def test_render_efficiency(self):
        result = EfficiencyResult(
            k_values=np.array([20, 50]),
            checkpoints=np.array([300, 400]),
            saved_cycles=np.array([[1.0, 1.5], [1.8, 2.1]]),
            saved_objects=np.array([[20.0, 30.0], [90.0, 105.0]]),
            lost_share=np.array([[0.1, 0.05], [0.2, 0.0]]),
        )
        text = render_efficiency(result)
        assert "Saved-Cycles" in text and "k = 50" in text and "lost share" in text

    def test_render_tree_growth(self):
        result = TreeGrowthResult(
            checkpoints=np.array([100, 200]),
            average_traversal=np.array([3.2, 4.1]),
            depth=np.array([5, 7]),
            stored_points=np.array([60, 110]),
        )
        text = render_tree_growth(result)
        assert "tree depth" in text and "avg simplices traversed" in text
