"""Tests for repro.evaluation.metrics."""

import pytest

from repro.database.query import ResultSet
from repro.evaluation.metrics import (
    average_precision_recall,
    precision,
    precision_gain,
    recall,
)
from repro.utils.validation import ValidationError


@pytest.fixture()
def results() -> ResultSet:
    return ResultSet.from_arrays([0, 1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4, 0.5])


CATEGORIES = ["Bird", "Fish", "Bird", "Bird", "Mammal"]


class TestPrecision:
    def test_counts_relevant_fraction(self, results):
        assert precision(results, CATEGORIES, "Bird") == pytest.approx(3.0 / 5.0)

    def test_zero_when_nothing_relevant(self, results):
        assert precision(results, CATEGORIES, "Blossom") == 0.0

    def test_one_when_everything_relevant(self, results):
        assert precision(results, ["X"] * 5, "X") == 1.0

    def test_empty_results(self):
        assert precision(ResultSet(), [], "Bird") == 0.0

    def test_mismatched_categories_rejected(self, results):
        with pytest.raises(ValidationError):
            precision(results, ["Bird"], "Bird")


class TestRecall:
    def test_counts_fraction_of_category(self, results):
        assert recall(results, CATEGORIES, "Bird", category_size=6) == pytest.approx(0.5)

    def test_full_recall(self, results):
        assert recall(results, CATEGORIES, "Mammal", category_size=1) == 1.0

    def test_zero_recall(self, results):
        assert recall(results, CATEGORIES, "Blossom", category_size=10) == 0.0

    def test_invalid_category_size(self, results):
        with pytest.raises(ValidationError):
            recall(results, CATEGORIES, "Bird", category_size=0)


class TestPrecisionGain:
    def test_formula(self):
        assert precision_gain(0.4, 0.2) == pytest.approx(100.0)
        assert precision_gain(0.3, 0.2) == pytest.approx(50.0)

    def test_no_gain(self):
        assert precision_gain(0.2, 0.2) == pytest.approx(0.0)

    def test_negative_gain(self):
        assert precision_gain(0.1, 0.2) == pytest.approx(-50.0)

    def test_zero_default_and_zero_strategy(self):
        assert precision_gain(0.0, 0.0) == 0.0

    def test_zero_default_positive_strategy(self):
        assert precision_gain(0.3, 0.0) == float("inf")

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            precision_gain(-0.1, 0.2)


class TestAveragePrecisionRecall:
    def test_average(self):
        pairs = [(0.2, 0.1), (0.4, 0.3)]
        avg_precision, avg_recall = average_precision_recall(pairs)
        assert avg_precision == pytest.approx(0.3)
        assert avg_recall == pytest.approx(0.2)

    def test_empty_sequence(self):
        assert average_precision_recall([]) == (0.0, 0.0)

    def test_accepts_generator(self):
        pairs = ((p, p / 2) for p in (0.2, 0.4, 0.6))
        avg_precision, avg_recall = average_precision_recall(pairs)
        assert avg_precision == pytest.approx(0.4)
        assert avg_recall == pytest.approx(0.2)

    def test_rejects_malformed_pairs(self):
        with pytest.raises(ValidationError):
            average_precision_recall([(0.1, 0.2, 0.3)])
