"""Tests for repro.database.vptree."""

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.knn import LinearScanIndex
from repro.database.vptree import VPTreeIndex
from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def random_collection() -> FeatureCollection:
    rng = np.random.default_rng(42)
    return FeatureCollection(rng.random((200, 6)))


@pytest.fixture(scope="module")
def tied_collection() -> FeatureCollection:
    """A collection with exact duplicates, guaranteeing ties in every metric."""
    rng = np.random.default_rng(17)
    vectors = rng.random((150, 6))
    vectors[10] = vectors[3]
    vectors[77] = vectors[3]
    vectors[120] = vectors[119]
    return FeatureCollection(vectors)


class TestVPTreeCorrectness:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_linear_scan(self, random_collection, k):
        distance = euclidean(6)
        tree = VPTreeIndex(random_collection, distance, seed=1)
        scan = LinearScanIndex(random_collection)
        rng = np.random.default_rng(0)
        for _ in range(10):
            query = rng.random(6)
            tree_result = tree.search(query, k)
            scan_result = scan.search(query, k, distance)
            np.testing.assert_allclose(
                tree_result.distances(), scan_result.distances(), atol=1e-10
            )

    def test_manhattan_metric(self, random_collection):
        distance = MinkowskiDistance(6, order=1.0)
        tree = VPTreeIndex(random_collection, distance, seed=2)
        scan = LinearScanIndex(random_collection)
        query = np.full(6, 0.5)
        np.testing.assert_allclose(
            tree.search(query, 10).distances(),
            scan.search(query, 10, distance).distances(),
            atol=1e-10,
        )

    def test_k_exceeding_collection_size(self, random_collection):
        tree = VPTreeIndex(random_collection, euclidean(6))
        assert len(tree.search(np.zeros(6), 10_000)) == random_collection.size

    def test_exact_match_found(self, random_collection):
        tree = VPTreeIndex(random_collection, euclidean(6))
        target = random_collection.vector(17)
        results = tree.search(target, 1)
        assert results[0].distance == pytest.approx(0.0)

    def test_small_leaf_size(self, random_collection):
        distance = euclidean(6)
        tree = VPTreeIndex(random_collection, distance, leaf_size=1, seed=3)
        scan = LinearScanIndex(random_collection)
        query = np.full(6, 0.25)
        np.testing.assert_allclose(
            tree.search(query, 15).distances(),
            scan.search(query, 15, distance).distances(),
            atol=1e-10,
        )


class TestVPTreeSharedTraversalBatch:
    """search_batch (one shared tree walk) vs the looped single-query search.

    The tier-1 contract of the index protocol: the shared traversal must be
    byte-identical to ``[search(q, k) for q in Q]`` for every metric the
    tree can be built with, including on exact distance ties.
    """

    def _distances(self):
        rng = np.random.default_rng(3)
        return [
            euclidean(6),
            MinkowskiDistance(6, order=1.0),
            WeightedEuclideanDistance(6, weights=rng.random(6) + 0.1),
        ]

    @pytest.mark.parametrize("leaf_size", [1, 4, 16])
    @pytest.mark.parametrize("k", [1, 7, 150])
    def test_byte_identical_to_looped_search(self, tied_collection, leaf_size, k):
        rng = np.random.default_rng(11)
        queries = rng.random((25, 6))
        queries[4] = tied_collection.vectors[3]  # sits exactly on a triplicate
        queries[9] = tied_collection.vectors[119]
        for distance in self._distances():
            tree = VPTreeIndex(tied_collection, distance, leaf_size=leaf_size, seed=7)
            batch = tree.search_batch(queries, k)
            assert len(batch) == queries.shape[0]
            for query, result in zip(queries, batch):
                reference = tree.search(query, k)
                np.testing.assert_array_equal(result.indices(), reference.indices())
                np.testing.assert_array_equal(result.distances(), reference.distances())

    def test_build_metric_may_be_passed_explicitly(self, random_collection):
        distance = euclidean(6)
        tree = VPTreeIndex(random_collection, distance, seed=1)
        queries = np.full((3, 6), 0.5)
        explicit = tree.search_batch(queries, 5, distance)
        implicit = tree.search_batch(queries, 5)
        for first, second in zip(explicit, implicit):
            np.testing.assert_array_equal(first.indices(), second.indices())

    def test_rejects_other_metric(self, random_collection):
        tree = VPTreeIndex(random_collection, euclidean(6))
        with pytest.raises(ValidationError):
            tree.search_batch(np.zeros((2, 6)), 5, MinkowskiDistance(6, order=1.0))

    def test_empty_batch(self, random_collection):
        tree = VPTreeIndex(random_collection, euclidean(6))
        assert tree.search_batch(np.zeros((0, 6)), 5) == []

    def test_duplicate_queries_get_identical_results(self, random_collection):
        tree = VPTreeIndex(random_collection, euclidean(6), seed=2)
        query = np.full(6, 0.3)
        first, second = tree.search_batch(np.vstack([query, query]), 9)
        np.testing.assert_array_equal(first.indices(), second.indices())
        np.testing.assert_array_equal(first.distances(), second.distances())


class TestVPTreeValidation:
    def test_rejects_dimension_mismatch(self, random_collection):
        with pytest.raises(ValidationError):
            VPTreeIndex(random_collection, euclidean(3))

    def test_rejects_search_with_other_metric(self, random_collection):
        tree = VPTreeIndex(random_collection, euclidean(6))
        with pytest.raises(ValidationError):
            tree.search(np.zeros(6), 5, distance=MinkowskiDistance(6, order=1.0))

    def test_rejects_bad_leaf_size(self, random_collection):
        with pytest.raises(ValidationError):
            VPTreeIndex(random_collection, euclidean(6), leaf_size=0)

    def test_rejects_invalid_k(self, random_collection):
        tree = VPTreeIndex(random_collection, euclidean(6))
        with pytest.raises(ValidationError):
            tree.search(np.zeros(6), 0)

    def test_single_point_collection(self):
        collection = FeatureCollection(np.array([[0.5, 0.5]]))
        tree = VPTreeIndex(collection, euclidean(2))
        results = tree.search([0.0, 0.0], 3)
        assert len(results) == 1
