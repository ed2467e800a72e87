"""Tests for the matrix-form ``pairwise`` contract of every distance class."""

import numpy as np
import pytest

from repro.distances.minkowski import MinkowskiDistance
from repro.distances.weighted_euclidean import (
    WeightedEuclideanDistance,
    pairwise_per_query_weights,
)
from repro.utils.validation import ValidationError

DIMENSION = 6


def _distances(rng):
    return [
        WeightedEuclideanDistance(DIMENSION, weights=rng.random(DIMENSION) + 0.1),
        MinkowskiDistance(DIMENSION, order=1.0),
        MinkowskiDistance(DIMENSION, order=3.0, weights=rng.random(DIMENSION) + 0.1),
    ]


class TestPairwise:
    @pytest.fixture()
    def data(self, rng):
        return rng.random((12, DIMENSION)), rng.random((80, DIMENSION))

    def test_pairwise_matches_rowwise_distances(self, rng, data):
        queries, points = data
        for distance in _distances(rng):
            matrix = distance.pairwise(queries, points)
            assert matrix.shape == (queries.shape[0], points.shape[0])
            for row, query in zip(matrix, queries):
                np.testing.assert_allclose(
                    row, distance.distances_to(query, points), rtol=1e-9, atol=1e-9
                )

    def test_minkowski_pairwise_is_rowwise_exact(self, rng, data):
        # Minkowski's exact kernel runs row by row: bit-for-bit distances_to.
        queries, points = data
        minkowski = [d for d in _distances(rng) if isinstance(d, MinkowskiDistance)]
        assert len(minkowski) == 2
        for distance in minkowski:
            matrix = distance.pairwise(queries, points)
            for row, query in zip(matrix, queries):
                assert np.array_equal(row, distance.distances_to(query, points))

    def test_pairwise_agrees_with_scalar_distance(self, rng):
        queries = rng.random((3, DIMENSION))
        points = rng.random((4, DIMENSION))
        for distance in _distances(rng):
            matrix = distance.pairwise(queries, points)
            for i, query in enumerate(queries):
                for j, point in enumerate(points):
                    assert matrix[i, j] == pytest.approx(distance.distance(query, point), abs=1e-9)

    def test_pairwise_validates_shapes(self, rng):
        distance = WeightedEuclideanDistance(DIMENSION)
        with pytest.raises(ValidationError):
            distance.pairwise(rng.random((3, DIMENSION + 1)), rng.random((5, DIMENSION)))
        with pytest.raises(ValidationError):
            distance.pairwise(rng.random((3, DIMENSION)), rng.random((5, DIMENSION - 1)))

    def test_pairwise_large_offset_stays_accurate(self, rng):
        # The Gram expansion must stay usable when the data sits far from the
        # origin (the centring step); errors here would defeat the candidate
        # margin of the batch k-NN path.
        queries = rng.random((5, DIMENSION)) + 1e6
        points = rng.random((50, DIMENSION)) + 1e6
        distance = WeightedEuclideanDistance(DIMENSION)
        matrix = distance.pairwise(queries, points)
        for row, query in zip(matrix, queries):
            np.testing.assert_allclose(row, distance.distances_to(query, points), atol=1e-7)


class TestPairwisePerQueryWeights:
    def test_matches_one_distance_object_per_query(self, rng):
        queries = rng.random((6, DIMENSION))
        points = rng.random((40, DIMENSION))
        weights = rng.random((6, DIMENSION)) + 0.1
        matrix = pairwise_per_query_weights(queries, weights, points)
        for row, query, weight in zip(matrix, queries, weights):
            reference = WeightedEuclideanDistance(DIMENSION, weights=weight)
            np.testing.assert_allclose(
                row, reference.distances_to(query, points), rtol=1e-9, atol=1e-9
            )
