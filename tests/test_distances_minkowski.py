"""Tests for repro.distances.minkowski."""

import numpy as np
import pytest

from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.utils.validation import ValidationError


class TestEuclidean:
    def test_known_distance(self):
        distance = euclidean(2)
        assert distance.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_identity(self):
        distance = euclidean(3)
        assert distance.distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.0)

    def test_symmetry(self):
        distance = euclidean(4)
        rng = np.random.default_rng(0)
        first, second = rng.random(4), rng.random(4)
        assert distance.distance(first, second) == pytest.approx(distance.distance(second, first))

    def test_triangle_inequality(self):
        distance = euclidean(5)
        rng = np.random.default_rng(1)
        a, b, c = rng.random(5), rng.random(5), rng.random(5)
        assert distance.distance(a, c) <= distance.distance(a, b) + distance.distance(b, c) + 1e-12

    def test_callable_interface(self):
        distance = euclidean(2)
        assert distance([0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)


class TestCityblock:
    def test_known_distance(self):
        distance = MinkowskiDistance(2, order=1.0)
        assert distance.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(7.0)

    def test_dominates_euclidean(self):
        rng = np.random.default_rng(2)
        first, second = rng.random(6), rng.random(6)
        assert MinkowskiDistance(6, order=1.0).distance(first, second) >= euclidean(6).distance(first, second)


class TestWeightedMinkowski:
    def test_weights_scale_components(self):
        distance = MinkowskiDistance(2, order=2.0, weights=[4.0, 0.0])
        assert distance.distance([0.0, 0.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_zero_weights_ignore_components(self):
        distance = MinkowskiDistance(3, weights=[1.0, 0.0, 1.0])
        assert distance.distance([0.0, 5.0, 0.0], [0.0, -5.0, 0.0]) == pytest.approx(0.0)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(3)
        distance = MinkowskiDistance(4, order=3.0, weights=rng.random(4) + 0.1)
        query = rng.random(4)
        points = rng.random((10, 4))
        batch = distance.distances_to(query, points)
        for row, point in enumerate(points):
            assert batch[row] == pytest.approx(distance.distance(query, point))

    def test_parameters_roundtrip(self):
        weights = np.array([1.0, 2.0, 3.0])
        distance = MinkowskiDistance(3, weights=weights)
        np.testing.assert_allclose(distance.parameters(), weights)
        rebuilt = distance.with_parameters([3.0, 2.0, 1.0])
        np.testing.assert_allclose(rebuilt.parameters(), [3.0, 2.0, 1.0])
        assert rebuilt.order == distance.order

    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            MinkowskiDistance(2, weights=[-1.0, 1.0])

    def test_rejects_order_below_one(self):
        with pytest.raises(ValidationError):
            MinkowskiDistance(2, order=0.5)

    def test_rejects_wrong_point_dimension(self):
        with pytest.raises(ValidationError):
            euclidean(3).distance([1.0, 2.0], [1.0, 2.0, 3.0])
