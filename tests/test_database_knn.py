"""Tests for repro.database.knn (linear scan)."""

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.knn import LinearScanIndex
from repro.distances.minkowski import euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError


@pytest.fixture()
def grid_collection() -> FeatureCollection:
    # A 5x5 grid of points in the plane: distances are easy to reason about.
    coordinates = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
    return FeatureCollection(coordinates)


class TestLinearScan:
    def test_nearest_neighbour_is_exact_match(self, grid_collection):
        index = LinearScanIndex(grid_collection)
        results = index.search([2.0, 2.0], 1, euclidean(2))
        assert results[0].index == 12  # point (2, 2)
        assert results[0].distance == pytest.approx(0.0)

    def test_results_sorted_by_distance(self, grid_collection):
        index = LinearScanIndex(grid_collection)
        results = index.search([2.1, 2.1], 10, euclidean(2))
        distances = results.distances()
        assert np.all(np.diff(distances) >= -1e-12)

    def test_k_larger_than_collection_is_clamped(self, grid_collection):
        index = LinearScanIndex(grid_collection)
        results = index.search([0.0, 0.0], 100, euclidean(2))
        assert len(results) == grid_collection.size

    def test_matches_brute_force(self, grid_collection):
        rng = np.random.default_rng(0)
        index = LinearScanIndex(grid_collection)
        distance = euclidean(2)
        for _ in range(10):
            query = rng.random(2) * 4.0
            results = index.search(query, 7, distance)
            brute = np.sort(distance.distances_to(query, grid_collection.vectors))[:7]
            np.testing.assert_allclose(results.distances(), brute, atol=1e-12)

    def test_weighted_distance_changes_ranking(self, grid_collection):
        index = LinearScanIndex(grid_collection)
        query = [0.0, 0.0]
        heavy_x = WeightedEuclideanDistance(2, weights=[100.0, 1.0])
        results = index.search(query, 3, heavy_x)
        # With x strongly weighted, the closest neighbours stay on x = 0.
        for item in results:
            assert grid_collection.vectors[item.index][0] == pytest.approx(0.0)

    def test_dimension_mismatch_rejected(self, grid_collection):
        index = LinearScanIndex(grid_collection)
        with pytest.raises(ValidationError):
            index.search([0.0, 0.0], 3, euclidean(3))

    def test_invalid_k_rejected(self, grid_collection):
        index = LinearScanIndex(grid_collection)
        with pytest.raises(ValidationError):
            index.search([0.0, 0.0], 0, euclidean(2))
