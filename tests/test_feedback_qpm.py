"""Tests for repro.feedback.query_point_movement."""

import numpy as np
import pytest

from repro.feedback.query_point_movement import optimal_query_point
from repro.utils.validation import ValidationError


class TestOptimalQueryPoint:
    def test_unweighted_is_mean(self):
        good = np.array([[0.0, 0.0], [2.0, 4.0]])
        np.testing.assert_allclose(optimal_query_point(good), [1.0, 2.0])

    def test_equation_two_weighted_average(self):
        good = np.array([[0.0, 0.0], [1.0, 1.0]])
        scores = np.array([1.0, 3.0])
        np.testing.assert_allclose(optimal_query_point(good, scores), [0.75, 0.75])

    def test_single_good_result(self):
        good = np.array([[0.3, 0.7]])
        np.testing.assert_allclose(optimal_query_point(good), [0.3, 0.7])

    def test_zero_scored_results_ignored(self):
        good = np.array([[0.0, 0.0], [10.0, 10.0]])
        scores = np.array([1.0, 0.0])
        np.testing.assert_allclose(optimal_query_point(good, scores), [0.0, 0.0])

    def test_result_in_convex_hull(self):
        rng = np.random.default_rng(0)
        good = rng.random((10, 4))
        scores = rng.random(10)
        point = optimal_query_point(good, scores)
        assert np.all(point >= good.min(axis=0) - 1e-12)
        assert np.all(point <= good.max(axis=0) + 1e-12)

    def test_requires_good_results(self):
        with pytest.raises(ValidationError):
            optimal_query_point(np.zeros((0, 3)))

    def test_rejects_all_zero_scores(self):
        with pytest.raises(ValidationError):
            optimal_query_point(np.ones((2, 2)), np.zeros(2))

    def test_rejects_negative_scores(self):
        with pytest.raises(ValidationError):
            optimal_query_point(np.ones((2, 2)), np.array([1.0, -1.0]))

