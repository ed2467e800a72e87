"""Equivalence and lifecycle of the shared-memory process backend.

The backend contract: a ``backend="process"`` engine — per-shard engines
hosted in long-lived worker processes over a
:class:`~repro.database.sharding.SharedCorpus` segment — returns result sets
byte-identical to the serial unsharded
:class:`~repro.database.engine.RetrievalEngine` for every shard count,
worker count, index type, distance family and ``k``, and the
process-backend sub-frontier scheduling of
:meth:`~repro.feedback.scheduler.LoopScheduler.run_sharded` reproduces the
sequential ``run_loop`` exactly.  Lifecycle is part of the contract too:
``close()`` stops the workers and unlinks the segment deterministically.
"""

import os
import pickle

import numpy as np
import pytest

from repro.database.budget import Budget
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.mtree import MTreeIndex
from repro.database.query import QueryBatch
from repro.database.sharding import ShardedEngine, WorkerPool
from repro.database.vptree import VPTreeIndex
from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.feedback.scheduler import LoopRequest, LoopScheduler
from repro.utils.validation import ValidationError

DIMENSION = 6
SIZE = 149


# Module-level factories: the process backend ships them to worker
# processes, so (unlike the thread backend's) they must be picklable.
def vptree_factory(shard, distance):
    return VPTreeIndex(shard, distance, leaf_size=4, seed=11)


def mtree_factory(shard, distance):
    return MTreeIndex(shard, distance, node_capacity=5, seed=11)


INDEX_FACTORIES = {"linear": None, "vptree": vptree_factory, "mtree": mtree_factory}


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
        "n_shards,n_workers,index_type,distance_name,k",
        [
            (3, 2, "linear", "euclidean", 7),
            (5, 2, "vptree", "weighted", 40),
            (4, 4, "mtree", "cityblock", 1),
            (2, 2, "linear", "weighted", SIZE + 10),  # k > corpus
            (7, 3, "vptree", "euclidean", 25),  # k > shard
            (1, 1, "linear", "cityblock", 5),  # single process worker
        ],
        ids=lambda value: str(value),
    )
    def test_matches_unsharded_reference(
        self, collection, queries, n_shards, n_workers, index_type, distance_name, k
    ):
        distance = _distance_for(distance_name)
        factory = INDEX_FACTORIES[index_type]
        reference = RetrievalEngine(
            collection,
            default_distance=distance,
            metric_index=None if factory is None else factory(collection, distance),
        )
        context = (n_shards, n_workers, index_type, distance_name, k)
        with ShardedEngine(
            collection,
            n_shards,
            n_workers=n_workers,
            backend="process",
            default_distance=distance,
            index_factory=factory,
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
        with ShardedEngine(
            collection, 3, n_workers=2, backend="process", index_factory=vptree_factory
        ) as engine:
            engine.search_batch(queries, 5)
            stats = engine.stats()
            assert stats["backend"] == "process"
            assert stats["shard_count"] == 3
            assert stats["n_workers"] == 2
            assert stats["n_searches"] == queries.shape[0]
            assert len(stats["per_shard"]) == 3
            # The default distance is index-eligible: every per-shard engine
            # (living in a worker process) recorded one hit per query.
            assert stats["index_hits"] == 3 * queries.shape[0]
            assert stats["scan_fallbacks"] == 0
            # A single-row search counts no batch, worker-side either.
            engine.search(queries[0], 5)
            assert [shard["n_batches"] for shard in engine.stats()["per_shard"]] == [1, 1, 1]
            engine.reset_counters()
            cleared = engine.stats()
            assert cleared["n_searches"] == 0
            assert cleared["index_hits"] == 0
            assert all(shard["n_searches"] == 0 for shard in cleared["per_shard"])


class TestProcessEngineLifecycle:
    def test_close_stops_workers_and_unlinks_segment(self, collection, queries):
        engine = ShardedEngine(collection, 3, n_workers=2, backend="process")
        handle = engine.shared_corpus_handle
        assert handle is not None
        segment_path = f"/dev/shm/{handle.name.lstrip('/')}"
        assert os.path.exists(segment_path)
        engine.search_batch(queries, 5)
        engine.close()
        engine.close()  # idempotent
        assert not os.path.exists(segment_path)
        with pytest.raises((ValidationError, RuntimeError)):
            engine.search_batch(queries, 5)

    def test_construction_failure_leaks_nothing(self, collection):
        before = {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
        with pytest.raises(ValidationError):
            ShardedEngine(
                collection,
                3,
                n_workers=2,
                backend="process",
                index_factory=lambda shard, distance: None,  # unpicklable
            )
        after = {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
        assert after == before

    def test_thread_backend_unaffected(self, collection, queries):
        # The thread backend keeps its permissive construction (lambdas fine)
        # and its serve-after-close degradation.
        with ShardedEngine(
            collection,
            3,
            n_workers=2,
            index_factory=lambda shard, distance: vptree_factory(shard, distance),
        ) as engine:
            assert engine.backend == "thread"
            assert engine.shared_corpus_handle is None
            expected = engine.search_batch(queries, 5)
        assert engine.search_batch(queries, 5) == expected

    def test_unknown_backend_rejected(self, collection):
        with pytest.raises(ValidationError):
            ShardedEngine(collection, 2, backend="fiber")

    def test_closed_session_recovers_via_same_configuration(self):
        from repro.evaluation.session import InteractiveSession, SessionConfig
        from repro.core.bootstrap import bypass_for_points

        rng = np.random.default_rng(8)
        vectors = np.clip(rng.random((60, DIMENSION)), 0.01, 0.99)
        labelled = FeatureCollection(vectors, labels=[f"c{i % 3}" for i in range(60)])
        session = InteractiveSession(
            labelled,
            SimulatedUser(labelled),
            bypass_for_points(vectors),
            SessionConfig(k=5, max_iterations=3),
            shards=2,
            workers=2,
            backend="process",
        )
        expected = session.run_batch([0, 1, 2])
        session.close()
        # Rebuilding into the *same* configuration must actually rebuild —
        # the closed stack's workers and segment are gone.
        session.configure_sharding(2, 2, "process")
        fresh = InteractiveSession(
            labelled,
            SimulatedUser(labelled),
            bypass_for_points(vectors),
            SessionConfig(k=5, max_iterations=3),
            shards=2,
            workers=2,
            backend="process",
        )
        with session, fresh:
            assert session.run_batch([3, 4]) == fresh.run_batch([3, 4])
        assert len(expected) == 3


class TestProcessFrontierEquivalence:
    @pytest.fixture(scope="class")
    def requests(self, collection):
        user = SimulatedUser(collection)
        rng = np.random.default_rng(99)
        indices = rng.integers(0, SIZE, size=10)
        return [
            LoopRequest(
                query_point=collection.vectors[int(index)],
                k=8,
                judge=user.judge_for_query(int(index)),
            )
            for index in indices
        ]

    def test_run_sharded_process_matches_sequential_run_loop(self, collection, requests):
        sequential = FeedbackEngine(RetrievalEngine(collection), max_iterations=6)
        expected = [
            sequential.run_loop(request.query_point, request.k, request.judge)
            for request in requests
        ]
        for n_workers in (1, 2, 4):
            feedback = FeedbackEngine(RetrievalEngine(collection), max_iterations=6)
            results = LoopScheduler(feedback).run_sharded(
                requests, n_workers=n_workers, backend="process"
            )
            assert len(results) == len(expected)
            for result, reference in zip(results, expected):
                assert result.identical_to(reference), n_workers

    def test_run_sharded_process_on_process_engine_reuses_segment(self, collection, requests):
        # The scheduler rides the engine's existing shared corpus instead of
        # staging a second copy; results still match the sequential loops.
        sequential = FeedbackEngine(RetrievalEngine(collection), max_iterations=6)
        expected = [
            sequential.run_loop(request.query_point, request.k, request.judge)
            for request in requests
        ]
        with ShardedEngine(collection, 3, n_workers=2, backend="process") as engine:
            feedback = FeedbackEngine(engine, max_iterations=6)
            results = LoopScheduler(feedback).run_sharded(
                requests, n_workers=2, backend="process"
            )
            for result, reference in zip(results, expected):
                assert result.identical_to(reference)

    def test_worker_accounting_is_absorbed(self, collection, requests):
        thread_engine = RetrievalEngine(collection)
        thread_feedback = FeedbackEngine(thread_engine, max_iterations=6)
        LoopScheduler(thread_feedback).run_sharded(requests, n_workers=2)
        expected_stats = thread_engine.stats()

        process_engine = RetrievalEngine(collection)
        process_feedback = FeedbackEngine(process_engine, max_iterations=6)
        LoopScheduler(process_feedback).run_sharded(requests, n_workers=2, backend="process")
        # The worker processes' engines did the searching; their counters
        # shipped home and were absorbed, so the accounting matches the
        # thread run exactly.
        assert process_engine.stats() == expected_stats

    def test_pool_backend_must_match(self, collection, requests):
        scheduler = LoopScheduler(FeedbackEngine(RetrievalEngine(collection)))
        with WorkerPool(2) as pool:
            with pytest.raises(ValidationError):
                scheduler.run_sharded(requests, pool=pool, backend="process")
        with WorkerPool(2, backend="process") as pool:
            with pytest.raises(ValidationError):
                scheduler.run_sharded(requests, pool=pool, backend="thread")
        with pytest.raises(ValidationError):
            scheduler.run_sharded(requests, n_workers=2, backend="fiber")
