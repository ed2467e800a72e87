"""Tests for repro.database.mtree."""

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.knn import LinearScanIndex
from repro.database.mtree import MTreeIndex
from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.utils.validation import ValidationError


@pytest.fixture(scope="module")
def random_collection() -> FeatureCollection:
    rng = np.random.default_rng(7)
    return FeatureCollection(rng.random((250, 5)))


@pytest.fixture(scope="module")
def built_tree(random_collection) -> MTreeIndex:
    return MTreeIndex(random_collection, euclidean(5), node_capacity=8, seed=1)


class TestMTreeCorrectness:
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_matches_linear_scan(self, random_collection, built_tree, k):
        distance = built_tree.distance
        scan = LinearScanIndex(random_collection)
        rng = np.random.default_rng(3)
        for _ in range(10):
            query = rng.random(5)
            np.testing.assert_allclose(
                built_tree.search(query, k).distances(),
                scan.search(query, k, distance).distances(),
                atol=1e-10,
            )

    def test_exact_match_found(self, random_collection, built_tree):
        target = random_collection.vector(101)
        assert built_tree.search(target, 1)[0].distance == pytest.approx(0.0)

    def test_results_sorted(self, built_tree):
        results = built_tree.search(np.full(5, 0.3), 30)
        assert np.all(np.diff(results.distances()) >= -1e-12)

    def test_k_exceeding_size(self, random_collection, built_tree):
        assert len(built_tree.search(np.zeros(5), 10_000)) == random_collection.size

    def test_manhattan_metric(self, random_collection):
        distance = MinkowskiDistance(5, order=1.0)
        tree = MTreeIndex(random_collection, distance, node_capacity=6, seed=2)
        scan = LinearScanIndex(random_collection)
        query = np.full(5, 0.6)
        np.testing.assert_allclose(
            tree.search(query, 12).distances(),
            scan.search(query, 12, distance).distances(),
            atol=1e-10,
        )

    def test_small_node_capacity(self, random_collection):
        distance = euclidean(5)
        tree = MTreeIndex(random_collection, distance, node_capacity=4, seed=5)
        scan = LinearScanIndex(random_collection)
        query = np.full(5, 0.1)
        np.testing.assert_allclose(
            tree.search(query, 20).distances(),
            scan.search(query, 20, distance).distances(),
            atol=1e-10,
        )


class TestMTreeStructure:
    def test_pruning_saves_distance_computations(self, random_collection):
        # A search should not have to compute the distance to every object
        # once the build is done (compare the increment against corpus size).
        tree = MTreeIndex(random_collection, euclidean(5), node_capacity=8, seed=9)
        before = tree.distance_computations
        tree.search(np.full(5, 0.5), 1)
        used = tree.distance_computations - before
        assert used < random_collection.size

    def test_distance_computation_counter_increases(self, random_collection):
        tree = MTreeIndex(random_collection, euclidean(5), node_capacity=8, seed=11)
        before = tree.distance_computations
        tree.search(np.zeros(5), 5)
        assert tree.distance_computations > before


class TestMTreeBatchTraversal:
    """The shared-traversal ``search_batch`` (the KNNIndex batch contract)."""

    def test_batch_equals_looped_search_bytewise(self, random_collection, built_tree):
        rng = np.random.default_rng(17)
        queries = rng.random((15, 5))
        queries[3] = random_collection.vectors[42]  # exact hit
        for k in (1, 6, 40, random_collection.size):
            batch = built_tree.search_batch(queries, k)
            for query, result in zip(queries, batch):
                single = built_tree.search(query, k)
                np.testing.assert_array_equal(result.indices(), single.indices())
                np.testing.assert_array_equal(result.distances(), single.distances())

    def test_batch_handles_duplicate_ties(self):
        rng = np.random.default_rng(23)
        vectors = rng.random((120, 4))
        vectors[11] = vectors[95]
        vectors[40] = vectors[95]
        collection = FeatureCollection(vectors)
        tree = MTreeIndex(collection, euclidean(4), node_capacity=5, seed=2)
        result = tree.search_batch(vectors[95][None, :], 3)[0]
        np.testing.assert_array_equal(result.indices(), [11, 40, 95])
        np.testing.assert_allclose(result.distances(), 0.0, atol=0.0)

    def test_batch_shares_metric_calls_across_queries(self, random_collection):
        # The point of the shared traversal: per visited entry the whole
        # batch is served by ONE vectorised distances_to call instead of
        # one call per query — that call count is what the wall-clock
        # follows, and it must drop by roughly the batch size.
        rng = np.random.default_rng(29)
        queries = rng.random((30, 5))

        class CountingDistance(type(euclidean(5))):
            calls = 0

            def distances_to(self, query, points):
                CountingDistance.calls += 1
                return super().distances_to(query, points)

        distance = CountingDistance(5, order=2.0)
        tree = MTreeIndex(random_collection, distance, node_capacity=8, seed=1)
        CountingDistance.calls = 0
        for query in queries:
            tree.search(query, 5)
        looped_calls = CountingDistance.calls
        CountingDistance.calls = 0
        batch = tree.search_batch(queries, 5)
        batched_calls = CountingDistance.calls
        assert batched_calls < looped_calls / 4
        for query, result in zip(queries, batch):
            np.testing.assert_array_equal(result.indices(), tree.search(query, 5).indices())

    def test_empty_batch(self, built_tree):
        assert built_tree.search_batch(np.empty((0, 5)), 3) == []

    def test_batch_rejects_other_metric(self, built_tree):
        with pytest.raises(ValidationError):
            built_tree.search_batch(np.zeros((2, 5)), 3, distance=MinkowskiDistance(5, order=1.0))


class TestMTreeValidation:
    def test_rejects_dimension_mismatch(self, random_collection):
        with pytest.raises(ValidationError):
            MTreeIndex(random_collection, euclidean(3))

    def test_rejects_tiny_capacity(self, random_collection):
        with pytest.raises(ValidationError):
            MTreeIndex(random_collection, euclidean(5), node_capacity=2)

    def test_rejects_search_with_other_metric(self, built_tree):
        with pytest.raises(ValidationError):
            built_tree.search(np.zeros(5), 5, distance=MinkowskiDistance(5, order=1.0))

    def test_single_point_collection(self):
        collection = FeatureCollection(np.array([[0.1, 0.9]]))
        tree = MTreeIndex(collection, euclidean(2))
        assert len(tree.search([0.0, 0.0], 4)) == 1
