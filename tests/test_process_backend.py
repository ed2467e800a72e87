"""Equivalence and lifecycle of the shared-memory process backend.

The backend contract: a ``backend="process"`` engine — per-shard engines
hosted in long-lived worker processes over a
:class:`~repro.database.sharding.SharedCorpus` segment — returns result sets
byte-identical to the serial unsharded
:class:`~repro.database.engine.RetrievalEngine` for every shard count,
worker count, distance family and ``k``.  Lifecycle is part
of the contract too: ``close()`` stops the workers and unlinks the segment
deterministically, and a worker killed under the engine is reported as a
dead worker on every later call — a server-side fault, never a closed
engine.
"""

import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.database.budget import Budget
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.query import QueryBatch
from repro.database.sharding import ShardedEngine
from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import ValidationError

DIMENSION = 6
SIZE = 149


def _segments() -> "set[str]":
    """The shared-memory segments ``multiprocessing`` has created on this host."""
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.fixture(scope="module")
def collection() -> FeatureCollection:
    rng = np.random.default_rng(2001)
    vectors = rng.random((SIZE, DIMENSION))
    # Duplicates across shard boundaries force cross-process distance ties
    # that the merge must break by ascending global index.
    vectors[2] = vectors[140]
    vectors[75] = vectors[140]
    return FeatureCollection(vectors, labels=[f"c{i % 5}" for i in range(SIZE)])


@pytest.fixture(scope="module")
def queries(collection) -> np.ndarray:
    rng = np.random.default_rng(77)
    points = rng.random((8, DIMENSION))
    points[1] = collection.vectors[140]
    return points


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


class TestProcessEngineEquivalence:
    @pytest.mark.parametrize(
        "n_shards,n_workers,distance_name,k",
        [
            (3, 2, "euclidean", 7),
            (5, 2, "weighted", 40),
            (4, 4, "cityblock", 1),
            (2, 2, "weighted", SIZE + 10),  # k > corpus
            (7, 3, "euclidean", 25),  # k > shard
            (1, 1, "cityblock", 5),  # single process worker
        ],
        ids=lambda value: str(value),
    )
    def test_matches_unsharded_reference(
        self, collection, queries, n_shards, n_workers, distance_name, k
    ):
        distance = _distance_for(distance_name)
        reference = RetrievalEngine(collection, default_distance=distance)
        context = (n_shards, n_workers, distance_name, k)
        with ShardedEngine(
            collection,
            n_shards,
            n_workers=n_workers,
            backend="process",
            default_distance=distance,
        ) as engine:
            assert engine.backend == "process"
            batch = engine.search_batch(queries, k)
            expected = reference.search_batch(queries, k)
            for result, reference_result in zip(batch, expected):
                _assert_identical(result, reference_result, context)
            single = engine.search(queries[1], k)
            _assert_identical(single, reference.search(queries[1], k), context)
            _assert_identical(single, batch[1], context)

    def test_per_query_parameters_match_unsharded(self, collection, queries):
        rng = np.random.default_rng(5)
        deltas = rng.normal(0.0, 0.02, queries.shape)
        weights = rng.random(queries.shape) + 0.2
        reference = RetrievalEngine(collection)
        expected = reference.search_batch_with_parameters(queries, 9, deltas, weights)
        with ShardedEngine(collection, 4, n_workers=2, backend="process") as engine:
            batch = engine.search_batch_with_parameters(queries, 9, deltas, weights)
            for result, reference_result in zip(batch, expected):
                _assert_identical(result, reference_result)
            # The QueryBatch itself is what crosses the pipe (one pickled
            # ("call", "_run", (batch, None, batches)) message per dispatch): a
            # parameterised batch and a precision="fast" one round-trip
            # through the two workers byte-identical to the unsharded engine.
            for query_batch in (
                QueryBatch.with_parameters(queries, 9, deltas, weights, dimension=DIMENSION),
                QueryBatch.with_parameters(
                    queries, 9, deltas, weights, "fast", dimension=DIMENSION
                ),
                QueryBatch.plain(queries, 9, None, "fast", dimension=DIMENSION),
            ):
                assert pickle.loads(pickle.dumps(query_batch)).precision == query_batch.precision
                assert engine.execute(query_batch) == reference.execute(query_batch)
            assert engine.search_batch(queries, 9, None, "fast") == reference.search_batch(
                queries, 9
            )
            # A finite budget is live accounting and never crosses the pipe.
            with pytest.raises(ValidationError, match="need backend='thread'"):
                engine.search_batch_with_parameters(
                    queries, 9, deltas, weights, budget=Budget(max_rows=10)
                )
            with pytest.raises(ValidationError, match="need backend='thread'"):
                engine.execute(query_batch, budget=Budget(max_rows=0))

    def test_cross_shard_ties_break_by_global_index(self, collection):
        with ShardedEngine(collection, 5, n_workers=2, backend="process") as engine:
            result = engine.search(collection.vectors[140], 3)
        np.testing.assert_array_equal(result.indices(), [2, 75, 140])
        np.testing.assert_allclose(result.distances(), 0.0, atol=0.0)

    def test_stats_travel_home_from_the_workers(self, collection, queries):
        with ShardedEngine(collection, 3, n_workers=2, backend="process") as engine:
            engine.search_batch(queries, 5)
            stats = engine.stats()
            assert stats["backend"] == "process"
            assert stats["shard_count"] == 3
            assert stats["n_workers"] == 2
            assert stats["n_searches"] == queries.shape[0]
            assert len(stats["per_shard"]) == 3
            # Every per-shard engine (living in a worker process) recorded
            # one scan per query.
            assert stats["scan_fallbacks"] == 3 * queries.shape[0]
            assert stats["index_hits"] == 0
            # A single-row search counts no batch, worker-side either.
            engine.search(queries[0], 5)
            assert [shard["n_batches"] for shard in engine.stats()["per_shard"]] == [1, 1, 1]


class TestProcessEngineLifecycle:
    def test_close_stops_workers_and_unlinks_segment(self, collection, queries):
        before = _segments()
        engine = ShardedEngine(collection, 3, n_workers=2, backend="process")
        assert len(_segments() - before) == 1  # one corpus copy, however many workers
        engine.search_batch(queries, 5)
        engine.close()
        engine.close()  # idempotent
        assert _segments() == before
        with pytest.raises(ValidationError, match="closed"):
            engine.search_batch(queries, 5)

    def test_construction_failure_leaks_nothing(self, collection):
        before = _segments()
        distance = WeightedEuclideanDistance.default(DIMENSION)
        distance.hook = lambda: None  # unpicklable
        with pytest.raises(ValidationError, match="picklable"):
            ShardedEngine(
                collection, 3, n_workers=2, backend="process", default_distance=distance
            )
        assert _segments() == before

    def test_thread_backend_unaffected(self, collection, queries):
        # The thread backend keeps its permissive construction (an
        # unpicklable distance is fine) and its serve-after-close degradation.
        distance = WeightedEuclideanDistance.default(DIMENSION)
        distance.hook = lambda: None
        with ShardedEngine(collection, 3, n_workers=2, default_distance=distance) as engine:
            assert engine.backend == "thread"
            expected = engine.search_batch(queries, 5)
        assert engine.search_batch(queries, 5) == expected

    def test_unknown_backend_rejected(self, collection):
        with pytest.raises(ValidationError):
            ShardedEngine(collection, 2, backend="fiber")


class TestDeadShardWorker:
    """SIGKILL of one shard worker between two dispatches.

    The next dispatch reads EOF from the dead worker's pipe — the same path
    a kill in the middle of a dispatch takes.  From then on the backend is
    broken, not closed: every call raises the dead-worker ``RuntimeError``
    (a served client sees a server-side fault, never a validation error),
    and ``close()`` still reaps every child and unlinks the segment.
    """

    @pytest.mark.parametrize("victim", [0, -1], ids=["first", "last"])
    def test_a_killed_worker_is_reported_as_dead_every_time(
        self, collection, queries, victim
    ):
        segments_before = _segments()
        children_before = set(multiprocessing.active_children())
        engine = ShardedEngine(collection, 3, n_workers=2, backend="process")
        try:
            workers = sorted(
                set(multiprocessing.active_children()) - children_before,
                key=lambda process: process.pid,
            )
            assert len(workers) == 2
            expected = RetrievalEngine(collection).search_batch(queries, 5)
            assert engine.search_batch(queries, 5) == expected

            os.kill(workers[victim].pid, signal.SIGKILL)
            workers[victim].join(timeout=10.0)
            assert not workers[victim].is_alive()

            with pytest.raises(RuntimeError, match="died"):
                engine.search_batch(queries, 5)
            with pytest.raises(RuntimeError, match="died"):
                engine.search_batch(queries, 5)
            with pytest.raises(RuntimeError, match="died"):
                engine.stats()
        finally:
            engine.close()
        assert _segments() == segments_before
        assert multiprocessing.active_children() == []
        with pytest.raises(ValidationError, match="closed"):
            engine.search_batch(queries, 5)
