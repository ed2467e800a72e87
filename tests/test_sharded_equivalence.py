"""Randomized equivalence grid of the sharded multi-worker engine.

The sharding contract: for any shard count, worker count, per-shard index
type, distance family and result-set size — including ``k`` larger than a
shard and larger than the whole collection — the
:class:`~repro.database.sharding.ShardedEngine` must return result sets
byte-identical (indices *and* distance bits) to the unsharded
:class:`~repro.database.engine.RetrievalEngine`, and
:meth:`~repro.feedback.scheduler.LoopScheduler.run` on a sharded engine
must reproduce the sequential ``run_loop`` exactly.

The grid is randomized but seeded: every run draws the same configurations
and the same query batches, so failures reproduce.
"""

import inspect

import numpy as np
import pytest

from repro.database.budget import Budget
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.mtree import MTreeIndex
from repro.database.sharding import ShardedCollection, ShardedEngine, WorkerPool
from repro.database.vptree import VPTreeIndex
from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.feedback.scheduler import LoopRequest, LoopScheduler
from repro.utils.validation import ValidationError

DIMENSION = 6
SIZE = 149  # prime: every shard count produces uneven ranges


@pytest.fixture(scope="module")
def collection() -> FeatureCollection:
    rng = np.random.default_rng(2001)
    vectors = rng.random((SIZE, DIMENSION))
    # Exact duplicates spread across future shard boundaries guarantee
    # distance ties that the merge must break by ascending global index.
    vectors[2] = vectors[140]
    vectors[75] = vectors[140]
    vectors[40] = vectors[39]
    return FeatureCollection(vectors, labels=[f"c{i % 5}" for i in range(SIZE)])


@pytest.fixture(scope="module")
def queries(collection) -> np.ndarray:
    rng = np.random.default_rng(77)
    points = rng.random((12, DIMENSION))
    points[1] = collection.vectors[140]  # sits exactly on the triplicate
    points[6] = collection.vectors[39]
    return points


# Module-level factories: the grid's process-backend configurations ship
# them to worker processes, so they must be picklable (no lambdas).
def _vptree_factory(shard, distance):
    return VPTreeIndex(shard, distance, leaf_size=4, seed=11)


def _mtree_factory(shard, distance):
    return MTreeIndex(shard, distance, node_capacity=5, seed=11)


INDEX_FACTORIES = {
    "linear": None,
    "vptree": _vptree_factory,
    "mtree": _mtree_factory,
}


def _distance_for(name: str):
    if name == "euclidean":
        return euclidean(DIMENSION)
    if name == "weighted":
        rng = np.random.default_rng(13)
        return WeightedEuclideanDistance(DIMENSION, weights=rng.random(DIMENSION) + 0.1)
    return MinkowskiDistance(DIMENSION, order=1.0)


def _assert_identical(first, second, context=None):
    assert np.array_equal(first.indices(), second.indices()), context
    assert np.array_equal(first.distances(), second.distances()), context


def _sampled_grid(n_samples: int = 24):
    """A seeded random sample of the full configuration cross-product."""
    rng = np.random.default_rng(424242)
    shard_counts = [1, 2, 3, 5, 8]
    worker_counts = [1, 2, 4]
    index_types = list(INDEX_FACTORIES)
    distances = ["euclidean", "weighted", "cityblock"]
    backends = ["thread", "process"]
    configurations = []
    for _ in range(n_samples):
        n_shards = shard_counts[rng.integers(len(shard_counts))]
        shard_size = SIZE // n_shards
        k_choices = [1, 7, shard_size + 3, SIZE, SIZE + 50]  # k > shard, k >= corpus
        configurations.append(
            (
                n_shards,
                worker_counts[rng.integers(len(worker_counts))],
                index_types[rng.integers(len(index_types))],
                distances[rng.integers(len(distances))],
                int(k_choices[rng.integers(len(k_choices))]),
                backends[rng.integers(len(backends))],
            )
        )
    return configurations


class TestShardedSearchEquivalence:
    @pytest.mark.parametrize(
        "n_shards,n_workers,index_type,distance_name,k,backend",
        _sampled_grid(),
        ids=lambda value: str(value),
    )
    def test_randomized_grid_matches_unsharded(
        self, collection, queries, n_shards, n_workers, index_type, distance_name, k, backend
    ):
        distance = _distance_for(distance_name)
        factory = INDEX_FACTORIES[index_type]
        reference = RetrievalEngine(
            collection,
            default_distance=distance,
            metric_index=None if factory is None else factory(collection, distance),
        )
        context = (n_shards, n_workers, index_type, distance_name, k, backend)
        with ShardedEngine(
            collection,
            n_shards,
            n_workers=n_workers,
            backend=backend,
            default_distance=distance,
            index_factory=factory,
        ) as sharded:
            batch = sharded.search_batch(queries, k)
            expected = reference.search_batch(queries, k)
            for result, reference_result in zip(batch, expected):
                _assert_identical(result, reference_result, context)
            # Single-query path agrees too (and with the batch row).
            single = sharded.search(queries[1], k)
            _assert_identical(single, reference.search(queries[1], k), context)
            _assert_identical(single, batch[1], context)

    def test_per_query_parameters_match_unsharded(self, collection, queries):
        rng = np.random.default_rng(5)
        deltas = rng.normal(0.0, 0.02, queries.shape)
        weights = rng.random(queries.shape) + 0.2
        reference = RetrievalEngine(collection)
        for n_shards, n_workers in [(2, 1), (4, 2), (7, 4)]:
            with ShardedEngine(collection, n_shards, n_workers=n_workers) as sharded:
                batch = sharded.search_batch_with_parameters(queries, 9, deltas, weights)
                expected = reference.search_batch_with_parameters(queries, 9, deltas, weights)
                for result, reference_result in zip(batch, expected):
                    _assert_identical(result, reference_result, (n_shards, n_workers))
                single = sharded.search_with_parameters(queries[0], 9, deltas[0], weights[0])
                _assert_identical(
                    single, reference.search_with_parameters(queries[0], 9, deltas[0], weights[0])
                )

    def test_public_query_signatures_match_unsharded(self, collection, queries):
        # A sharded engine must be a drop-in wherever a caller passes the
        # unsharded engine's arguments (budget= on every query method).
        for name in (
            "search",
            "search_batch",
            "search_with_parameters",
            "search_batch_with_parameters",
            "execute",
        ):
            assert inspect.signature(getattr(ShardedEngine, name)) == inspect.signature(
                getattr(RetrievalEngine, name)
            ), name
        with ShardedEngine(collection, 3) as sharded:
            budget = Budget()
            arguments = (queries[0], 5, np.full(DIMENSION, 0.01), np.linspace(0.5, 2.0, DIMENSION))
            single = sharded.search_with_parameters(*arguments, budget=budget)
            _assert_identical(
                single, RetrievalEngine(collection).search_with_parameters(*arguments)
            )
            assert budget.coverage().complete

    def test_volume_counters_match_unsharded(self, collection, queries):
        # Every entry point books what the unsharded engine books — the
        # single-row wrappers count no batch, on the shard engines either.
        deltas = np.zeros_like(queries)
        weights = np.ones_like(queries)
        reference = RetrievalEngine(collection)
        with ShardedEngine(collection, 3, n_workers=2) as sharded:
            for engine in (reference, sharded):
                engine.search(queries[0], 5)
                engine.search_with_parameters(queries[0], 5, deltas[0], weights[0])
                engine.search_batch(queries, 5)
                engine.search_batch_with_parameters(queries, 5, deltas, weights)
            expected, stats = reference.stats(), sharded.stats()
        assert expected["n_batches"] == 2
        for name in ("n_searches", "n_batches", "n_objects_retrieved"):
            assert stats[name] == expected[name], name
        assert stats["scan_fallbacks"] == 3 * expected["scan_fallbacks"]
        for shard in stats["per_shard"]:
            assert shard["n_batches"] == expected["n_batches"]
            assert shard["n_searches"] == expected["n_searches"]

    @pytest.mark.parametrize(
        "n_workers,backend",
        [(1, "thread"), (2, "thread"), (4, "thread"), (2, "process")],
        ids=lambda value: str(value),
    )
    def test_workers_split_the_shards_never_the_work(
        self, collection, queries, n_workers, backend
    ):
        """The degree of parallelism shows in neither the answers nor the work.

        However many workers fan four shards out, on threads or processes,
        every shard engine answers each batch with exactly one batched
        dispatch covering every query, and the merged top-k (with ``k``
        larger than any shard) is byte-identical to the unsharded engine.
        """
        k, rounds = 50, 2
        reference = RetrievalEngine(collection)
        expected = [reference.search_batch(queries, k) for _ in range(rounds)][-1]
        with ShardedEngine(collection, 4, n_workers=n_workers, backend=backend) as sharded:
            for _ in range(rounds):
                for result, reference_result in zip(sharded.search_batch(queries, k), expected):
                    _assert_identical(result, reference_result, (n_workers, backend))
            stats = sharded.stats()
            shard_sizes = [shard.size for shard in sharded.sharded_collection.shards]
        assert max(shard_sizes) < k and sum(shard_sizes) == SIZE
        assert stats["n_batches"] == rounds
        assert stats["n_searches"] == rounds * len(queries)
        assert [shard["n_batches"] for shard in stats["per_shard"]] == [rounds] * 4
        assert [shard["n_searches"] for shard in stats["per_shard"]] == [
            rounds * len(queries)
        ] * 4
        assert stats["scan_fallbacks"] == 4 * reference.stats()["scan_fallbacks"]

    def test_cross_shard_ties_break_by_global_index(self, collection):
        # The triplicated vector lives at indices 2, 75 and 140 — three
        # different shards at n_shards=5.  Querying exactly there must
        # return the copies in ascending global index order at distance 0.
        with ShardedEngine(collection, 5) as sharded:
            result = sharded.search(collection.vectors[140], 3)
        np.testing.assert_array_equal(result.indices(), [2, 75, 140])
        np.testing.assert_allclose(result.distances(), 0.0, atol=0.0)


class TestShardedCollectionLayout:
    def test_partitioning_is_deterministic_and_complete(self, collection):
        for n_shards in (1, 2, 3, 5, 8, SIZE, SIZE + 10):
            sharded = ShardedCollection(collection, n_shards)
            assert sharded.n_shards == min(n_shards, SIZE)
            assert sum(shard.size for shard in sharded.shards) == SIZE
            rebuilt = np.vstack([shard.vectors for shard in sharded.shards])
            np.testing.assert_array_equal(rebuilt, collection.vectors)
            # Contiguous ranges: local + offset reproduces the global index.
            for shard_id, shard in enumerate(sharded.shards):
                locals_ = np.arange(shard.size)
                globals_ = sharded.to_global(shard_id, locals_)
                np.testing.assert_array_equal(
                    shard.vectors, collection.vectors[globals_]
                )
                assert shard.labels == tuple(
                    collection.labels[int(g)] for g in globals_
                )

    def test_layout_matches_array_split_convention(self, collection):
        # The documented contract: shard sizes follow numpy.array_split —
        # the first size % n_shards shards carry one extra vector.
        for n_shards in (1, 2, 4, 7, 10):
            sharded = ShardedCollection(collection, n_shards)
            expected = np.array_split(np.arange(SIZE), n_shards)
            assert [shard.size for shard in sharded.shards] == [len(part) for part in expected]
            np.testing.assert_array_equal(
                sharded.offsets, [int(part[0]) for part in expected]
            )

    def test_worker_pool_close_degrades_to_serial(self, collection):
        pool = WorkerPool(3)
        assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        pool.close()
        pool.close()  # idempotent
        # No executor is resurrected: later maps run inline and still work.
        assert pool._executor is None
        assert pool.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        assert pool._executor is None
        # A closed engine keeps answering (serially) with identical results.
        engine = ShardedEngine(collection, 3, n_workers=3)
        rng = np.random.default_rng(0)
        queries = rng.random((4, DIMENSION))
        expected = engine.search_batch(queries, 5)
        engine.close()
        assert engine.search_batch(queries, 5) == expected
        assert engine.pool._executor is None

    def test_shard_of_inverts_to_global(self, collection):
        sharded = ShardedCollection(collection, 4)
        for global_index in (0, 36, 37, 74, 75, 148):
            shard_id, local = sharded.shard_of(global_index)
            assert int(sharded.to_global(shard_id, [local])[0]) == global_index

    def test_validation(self, collection):
        with pytest.raises(ValidationError):
            ShardedCollection(collection, 0)
        sharded = ShardedCollection(collection, 3)
        with pytest.raises(ValidationError):
            sharded.shard_of(SIZE)
        with pytest.raises(ValidationError):
            sharded.to_global(3, [0])
        with pytest.raises(ValidationError):
            ShardedEngine(sharded, 4)  # conflicting shard count
        with pytest.raises(ValidationError):
            ShardedEngine(collection, 2, default_distance=euclidean(DIMENSION + 1))


class TestShardedFrontierEquivalence:
    @pytest.fixture(scope="class")
    def feedback_setup(self, collection):
        user = SimulatedUser(collection)
        rng = np.random.default_rng(99)
        indices = rng.integers(0, SIZE, size=10)
        requests = [
            LoopRequest(
                query_point=collection.vectors[int(index)],
                k=8,
                judge=user.judge_for_query(int(index)),
            )
            for index in indices
        ]
        return requests

    @pytest.mark.parametrize(
        "n_shards,n_workers,backend",
        [(1, 2, "thread"), (3, 1, "thread"), (4, 2, "thread"), (5, 4, "thread"), (3, 2, "process")],
        ids=lambda value: str(value),
    )
    def test_run_on_sharded_engine_matches_sequential_run_loop(
        self, collection, feedback_setup, n_shards, n_workers, backend
    ):
        requests = feedback_setup
        sequential_engine = FeedbackEngine(RetrievalEngine(collection), max_iterations=6)
        expected = [
            sequential_engine.run_loop(request.query_point, request.k, request.judge)
            for request in requests
        ]
        with ShardedEngine(collection, n_shards, n_workers=n_workers, backend=backend) as engine:
            results = LoopScheduler(FeedbackEngine(engine, max_iterations=6)).run(requests)
        assert len(results) == len(expected)
        for result, reference in zip(results, expected):
            assert result.identical_to(reference), (n_shards, n_workers, backend)
