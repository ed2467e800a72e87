"""Batch/loop equivalence and the KNNIndex protocol.

The core contract of the batch-first refactor: for every index and every
distance family, ``search_batch(Q, k)`` must equal ``[search(q, k) for q in
Q]`` byte for byte, and all engines must break distance ties identically
(by ascending collection index).
"""

import contextlib

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.index import KNNIndex, NeighborHeap, k_smallest, merge_topk
from repro.database.knn import LinearScanIndex
from repro.database.mtree import MTreeIndex
from repro.database.segments import LiveCollection
from repro.database.sharding import ShardedEngine
from repro.database.vptree import VPTreeIndex
from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError

DIMENSION = 5


@pytest.fixture(scope="module")
def collection() -> FeatureCollection:
    rng = np.random.default_rng(42)
    vectors = rng.random((300, DIMENSION))
    # Exact duplicates guarantee distance ties in every metric.
    vectors[37] = vectors[11]
    vectors[205] = vectors[11]
    vectors[120] = vectors[119]
    return FeatureCollection(vectors, labels=["x"] * 300)


@pytest.fixture(scope="module")
def queries(collection) -> np.ndarray:
    rng = np.random.default_rng(7)
    points = rng.random((20, DIMENSION))
    points[4] = collection.vectors[11]  # query sitting exactly on a duplicate
    points[9] = collection.vectors[119]
    return points


def _distance_functions():
    rng = np.random.default_rng(3)
    return [
        WeightedEuclideanDistance(DIMENSION, weights=rng.random(DIMENSION) + 0.1),
        MinkowskiDistance(DIMENSION, order=1.0),
    ]


def _indexes(collection, distance):
    return [
        LinearScanIndex(collection),
        VPTreeIndex(collection, distance, leaf_size=4, seed=5),
        MTreeIndex(collection, distance, node_capacity=5, seed=5),
    ]


@contextlib.contextmanager
def _engine_under_test(kind, collection):
    """``(engine, alive_ids)``: an engine over ``collection``'s alive rows."""
    if kind == "frozen":
        yield RetrievalEngine(collection), np.arange(collection.size)
    elif kind == "sharded":
        with ShardedEngine(collection, 3, n_workers=2) as engine:
            yield engine, np.arange(collection.size)
    else:
        # Base + one delta segment, tombstones in both (never on the
        # duplicated vectors, so the tie cases survive).
        live = LiveCollection(collection.vectors[:250])
        live.insert(collection.vectors[250:])
        junk = live.insert(np.full((3, DIMENSION), 0.5))
        live.delete(np.concatenate(([3, 50, 260], junk)))
        alive = np.setdiff1d(np.arange(collection.size), [3, 50, 260])
        yield RetrievalEngine(live), alive


def _assert_identical(first, second):
    assert np.array_equal(first.indices(), second.indices())
    assert np.array_equal(first.distances(), second.distances())


class TestBatchLoopEquivalence:
    @pytest.mark.parametrize("distance", _distance_functions(), ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_search_batch_equals_search_loop(self, collection, queries, distance, k):
        for index in _indexes(collection, distance):
            distance_arg = distance if isinstance(index, LinearScanIndex) else None
            batch = index.search_batch(queries, k, distance_arg)
            for query, result in zip(queries, batch):
                _assert_identical(result, index.search(query, k, distance_arg))

    @pytest.mark.parametrize("kind", ["frozen", "live", "sharded"])
    @pytest.mark.parametrize("k", [1, 7, 400])
    def test_engine_entry_points_equal_reference_scan(self, collection, queries, kind, k):
        # Batch == single-row holds by construction (one execution path), so
        # every entry point is anchored to the kept exact-definition
        # reference instead: LinearScanIndex.search over the alive rows.
        rng = np.random.default_rng(19)
        deltas = rng.normal(0.0, 0.02, queries.shape)
        weights = rng.random(queries.shape) - 0.1  # a few negatives: clipped at 0
        with _engine_under_test(kind, collection) as (engine, alive_ids):
            scan = LinearScanIndex(FeatureCollection(collection.vectors[alive_ids]))

            def reference(point, distance):
                result = scan.search(point, k, distance)
                return alive_ids[result.indices()], result.distances()

            def assert_reference(result, point, distance):
                indices, distances = reference(point, distance)
                assert np.array_equal(result.indices(), indices)
                assert np.array_equal(result.distances(), distances)

            plain = engine.search_batch(queries, k)
            parameterised = engine.search_batch_with_parameters(queries, k, deltas, weights)
            for row, (query, delta, weight) in enumerate(zip(queries, deltas, weights)):
                adjusted = WeightedEuclideanDistance(DIMENSION, weights=np.clip(weight, 0.0, None))
                assert_reference(plain[row], query, engine.default_distance)
                assert_reference(engine.search(query, k), query, engine.default_distance)
                assert_reference(parameterised[row], query + delta, adjusted)
                assert_reference(
                    engine.search_with_parameters(query, k, delta, weight), query + delta, adjusted
                )
            empty = np.zeros((0, DIMENSION))
            assert engine.search_batch(empty, k) == []
            assert engine.search_batch_with_parameters(empty, k, empty, empty) == []

    @pytest.mark.parametrize("distance", _distance_functions(), ids=lambda d: type(d).__name__)
    def test_all_indexes_agree_including_ties(self, collection, queries, distance):
        # Across engines the retrieved objects and their order must be
        # identical (the tie-break contract); the distance values themselves
        # may differ in the last bits because the engines evaluate the metric
        # through different (mathematically equal) code paths.
        scan, vptree, mtree = _indexes(collection, distance)
        for query in queries:
            reference = scan.search(query, 9, distance)
            for result in (vptree.search(query, 9), mtree.search(query, 9)):
                np.testing.assert_array_equal(reference.indices(), result.indices())
                np.testing.assert_allclose(
                    reference.distances(), result.distances(), rtol=1e-9, atol=1e-12
                )

    def test_ties_are_broken_by_ascending_index(self, collection):
        distance = euclidean(DIMENSION)
        scan = LinearScanIndex(collection)
        # Querying exactly at the triplicated vector: the three copies tie at
        # distance zero and must appear in ascending index order.
        result = scan.search(collection.vectors[11], 3, distance)
        np.testing.assert_array_equal(result.indices(), [11, 37, 205])
        np.testing.assert_allclose(result.distances(), 0.0, atol=0.0)


class TestSelectionHelpers:
    def test_k_smallest_breaks_ties_by_label(self):
        distances = np.array([0.5, 0.1, 0.5, 0.1, 0.3])
        indices, ordered = k_smallest(distances, 3)
        np.testing.assert_array_equal(indices, [1, 3, 4])
        np.testing.assert_allclose(ordered, [0.1, 0.1, 0.3])

    def test_k_smallest_boundary_tie_prefers_smaller_index(self):
        distances = np.array([0.2, 0.1, 0.2, 0.2])
        indices, _ = k_smallest(distances, 2)
        np.testing.assert_array_equal(indices, [1, 0])

    def test_merge_topk_zero_one_and_many_parts(self):
        near = (np.array([4, 9]), np.array([0.1, 0.3]))
        far = (np.array([2, 7]), np.array([0.3, 0.5]))
        # Zero parts (a budget reached nothing): well-formed empty results.
        assert [len(result) for result in merge_topk([], 3, n_queries=2)] == [0, 0]
        # One part is already in merged order: sliced to k.
        (single,) = merge_topk([[near]], 1, n_queries=1)
        np.testing.assert_array_equal(single.indices(), [4])
        # Many parts: the 0.3 tie across parts breaks by ascending label.
        (merged,) = merge_topk([[near], [far]], 3, n_queries=1)
        np.testing.assert_array_equal(merged.indices(), [4, 2, 9])
        assert np.array_equal(merged.distances(), [0.1, 0.3, 0.3])
        # k past the pooled size returns everything, still in order.
        (everything,) = merge_topk([[near], [far]], 10, n_queries=1)
        np.testing.assert_array_equal(everything.indices(), [4, 2, 9, 7])

    def test_neighbor_heap_tie_break(self):
        heap = NeighborHeap(2)
        for index in (5, 3, 9, 1):
            heap.offer(1.0, index)
        assert [index for _, index in heap.sorted_items()] == [1, 3]

    def test_neighbor_heap_bound(self):
        heap = NeighborHeap(2)
        assert heap.bound() == float("inf")
        heap.offer(0.3, 0)
        heap.offer(0.1, 1)
        assert heap.bound() == pytest.approx(0.3)


class TestProtocol:
    def test_all_engines_conform(self, collection):
        distance = euclidean(DIMENSION)
        for index in _indexes(collection, distance):
            assert isinstance(index, KNNIndex)

    def test_supports_capability(self, collection):
        build_distance = euclidean(DIMENSION)
        other = WeightedEuclideanDistance(DIMENSION, weights=np.full(DIMENSION, 2.0))
        scan, vptree, mtree = _indexes(collection, build_distance)
        assert scan.supports(build_distance) and scan.supports(other)
        assert vptree.supports(build_distance) and not vptree.supports(other)
        assert mtree.supports(build_distance) and not mtree.supports(other)
        assert not scan.supports(euclidean(DIMENSION + 1))


class TestEngineDispatch:
    def test_stats_count_hits_and_fallbacks(self, collection, queries):
        distance = euclidean(DIMENSION)
        vptree = VPTreeIndex(collection, distance, seed=1)
        engine = RetrievalEngine(collection, default_distance=distance, metric_index=vptree)
        engine.search(queries[0], 5)  # default distance -> index
        engine.search(queries[1], 5, distance=WeightedEuclideanDistance(DIMENSION))  # -> scan
        stats = engine.stats()
        assert stats["index_hits"] == 1
        assert stats["scan_fallbacks"] == 1
        assert stats["n_searches"] == 2
        engine.reset_counters()
        assert engine.stats()["index_hits"] == 0

    def test_engine_search_batch_equals_loop(self, collection, queries):
        engine = RetrievalEngine(collection)
        batch = engine.search_batch(queries, 6)
        engine_loop = RetrievalEngine(collection)
        for query, result in zip(queries, batch):
            _assert_identical(result, engine_loop.search(query, 6))
        assert engine.stats()["n_batches"] == 1
        assert engine.stats()["n_searches"] == len(queries)

    def test_engine_batch_uses_metric_index_when_supported(self, collection, queries):
        distance = euclidean(DIMENSION)
        vptree = VPTreeIndex(collection, distance, seed=1)
        engine = RetrievalEngine(collection, default_distance=distance, metric_index=vptree)
        engine.search_batch(queries, 4)
        assert engine.stats()["index_hits"] == len(queries)
        assert engine.stats()["scan_fallbacks"] == 0

    def test_search_batch_with_parameters_equals_loop(self, collection, queries):
        rng = np.random.default_rng(11)
        deltas = rng.normal(0.0, 0.02, queries.shape)
        weights = rng.random(queries.shape) + 0.2
        engine = RetrievalEngine(collection)
        batch = engine.search_batch_with_parameters(queries, 8, deltas, weights)
        for query, delta, weight, result in zip(queries, deltas, weights, batch):
            reference = engine.search_with_parameters(query, 8, delta=delta, weights=weight)
            _assert_identical(result, reference)

    def test_search_batch_with_parameters_validates_shapes(self, collection, queries):
        engine = RetrievalEngine(collection)
        with pytest.raises(ValidationError):
            engine.search_batch_with_parameters(
                queries, 5, np.zeros((3, DIMENSION)), np.ones_like(queries)
            )
