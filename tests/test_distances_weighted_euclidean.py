"""Tests for repro.distances.weighted_euclidean."""

import numpy as np
import pytest

from repro.distances.minkowski import euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError


class TestDefaults:
    def test_default_is_plain_euclidean(self):
        rng = np.random.default_rng(0)
        first, second = rng.random(8), rng.random(8)
        weighted = WeightedEuclideanDistance.default(8)
        assert weighted.distance(first, second) == pytest.approx(euclidean(8).distance(first, second))

    def test_is_default_flag(self):
        assert WeightedEuclideanDistance.default(4).is_default()
        assert not WeightedEuclideanDistance(4, weights=[1.0, 2.0, 1.0, 1.0]).is_default()

    def test_weights_copy_is_returned(self):
        distance = WeightedEuclideanDistance(3, weights=[1.0, 2.0, 3.0])
        weights = distance.weights
        weights[0] = 99.0
        assert distance.weights[0] == 1.0


class TestDistanceComputation:
    def test_equation_one(self):
        # L2W(p, q; W) = sqrt(sum_i w_i (p_i - q_i)^2)
        distance = WeightedEuclideanDistance(3, weights=[1.0, 4.0, 9.0])
        value = distance.distance([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert value == pytest.approx(np.sqrt(1.0 + 4.0 + 9.0))

    def test_upweighted_component_dominates_ranking(self):
        distance = WeightedEuclideanDistance(2, weights=[100.0, 1.0])
        query = np.array([0.0, 0.0])
        close_on_heavy = np.array([0.01, 0.5])
        close_on_light = np.array([0.5, 0.01])
        assert distance.distance(query, close_on_heavy) < distance.distance(query, close_on_light)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(1)
        distance = WeightedEuclideanDistance(5, weights=rng.random(5) + 0.1)
        query = rng.random(5)
        points = rng.random((20, 5))
        batch = distance.distances_to(query, points)
        for row, point in enumerate(points):
            assert batch[row] == pytest.approx(distance.distance(query, point))

    def test_scaling_weights_scales_distances_uniformly(self):
        rng = np.random.default_rng(2)
        weights = rng.random(4) + 0.1
        query, point = rng.random(4), rng.random(4)
        base = WeightedEuclideanDistance(4, weights=weights).distance(query, point)
        scaled = WeightedEuclideanDistance(4, weights=4.0 * weights).distance(query, point)
        assert scaled == pytest.approx(2.0 * base)

    def test_symmetry_and_identity(self):
        distance = WeightedEuclideanDistance(3, weights=[0.5, 1.0, 2.0])
        rng = np.random.default_rng(3)
        first, second = rng.random(3), rng.random(3)
        assert distance.distance(first, second) == pytest.approx(distance.distance(second, first))
        assert distance.distance(first, first) == pytest.approx(0.0)


class TestParameters:
    def test_parameter_roundtrip(self):
        distance = WeightedEuclideanDistance(3, weights=[1.0, 2.0, 3.0])
        rebuilt = distance.with_parameters(distance.parameters())
        np.testing.assert_allclose(rebuilt.weights, distance.weights)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            WeightedEuclideanDistance(2, weights=[1.0, -1.0])

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ValidationError):
            WeightedEuclideanDistance(3, weights=[1.0, 2.0])
