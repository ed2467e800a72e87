"""Threaded stress tests of the sharded serving layer.

Many client threads hammer :meth:`ShardedEngine.search_batch` and run
frontier schedulers over one shared sharded engine concurrently — with a
trainer thread interleaving
:meth:`~repro.core.bypass.FeedbackBypass.insert_batch` updates — and every
thread checks its own answers against a precomputed single-threaded
reference.  Concurrency must change *nothing observable*: results stay
byte-identical under contention, and the engine's ``stats()`` counters add
up exactly (a lost update on the lock-free ``+=`` of a shared counter is
precisely what these totals would expose).

Single-core machines still interleave threads at every GIL release (every
NumPy call), so the determinism and counter assertions are meaningful
regardless of the hardware's parallelism.  The request coalescer runs one
dispatch slot per CPU the process may use, so the same suite covers its
one-slot regime when pinned to one CPU (``taskset -c 0``).
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.bootstrap import bypass_for_unit_cube
from repro.core.oqp import OptimalQueryParameters
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.sharding import ShardedEngine
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.feedback.scheduler import LoopRequest, LoopScheduler
from repro.serving.coalescer import RequestCoalescer

DIMENSION = 5
SIZE = 160
N_THREADS = 5
N_ROUNDS = 6
K = 9


@pytest.fixture(scope="module")
def collection() -> FeatureCollection:
    rng = np.random.default_rng(31337)
    vectors = rng.random((SIZE, DIMENSION))
    vectors[17] = vectors[130]  # a cross-shard tie under every metric
    return FeatureCollection(vectors, labels=[f"c{i % 4}" for i in range(SIZE)])


def _thread_queries(collection, thread_id: int) -> np.ndarray:
    """A deterministic per-thread query batch (seeded by the thread id)."""
    rng = np.random.default_rng(1000 + thread_id)
    points = rng.random((8, DIMENSION))
    points[0] = collection.vectors[130]
    return points


def _run_threads(workers) -> list:
    """Start one thread per worker, join them, and return collected errors."""
    errors: list = []
    barrier = threading.Barrier(len(workers))

    def wrap(worker):
        try:
            barrier.wait(timeout=30)
            worker()
        except Exception as exc:  # pragma: no cover - only on a real failure
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(worker,)) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "stress worker hung"
    return errors


class TestSearchStress:
    def test_concurrent_search_batch_is_deterministic_with_exact_stats(self, collection):
        reference = RetrievalEngine(collection)
        rng = np.random.default_rng(4)
        deltas = rng.normal(0.0, 0.02, (8, DIMENSION))
        weights = rng.random((8, DIMENSION)) + 0.2
        expectations = {}
        for thread_id in range(N_THREADS):
            queries = _thread_queries(collection, thread_id)
            expectations[thread_id] = (
                queries,
                reference.search_batch(queries, K),
                reference.search_batch_with_parameters(queries, K, deltas, weights),
            )

        bypass = bypass_for_unit_cube(DIMENSION)
        trainer_rng = np.random.default_rng(8)
        train_points = trainer_rng.random((N_ROUNDS, 4, DIMENSION))
        train_parameters = [
            [
                OptimalQueryParameters(
                    delta=trainer_rng.normal(0.0, 0.01, DIMENSION),
                    weights=trainer_rng.random(DIMENSION) + 0.5,
                )
                for _ in range(4)
            ]
            for _ in range(N_ROUNDS)
        ]

        with ShardedEngine(collection, 4, n_workers=2) as engine:

            def searcher(thread_id: int):
                queries, expected_plain, expected_parameterised = expectations[thread_id]
                for _ in range(N_ROUNDS):
                    assert engine.search_batch(queries, K) == expected_plain
                    assert (
                        engine.search_batch_with_parameters(queries, K, deltas, weights)
                        == expected_parameterised
                    )

            def trainer():
                # A single mutator interleaving tree updates with the
                # searches: the engine never reads the bypass, the bypass
                # never reads the engine, and training stays deterministic.
                for round_points, round_parameters in zip(train_points, train_parameters):
                    bypass.insert_batch(round_points, round_parameters)

            errors = _run_threads(
                [lambda t=thread_id: searcher(t) for thread_id in range(N_THREADS)] + [trainer]
            )
        assert errors == []

        stats = engine.stats()
        calls = N_THREADS * N_ROUNDS * 2  # one plain + one parameterised per round
        queries_served = calls * 8
        assert stats["n_searches"] == queries_served
        assert stats["n_batches"] == calls
        assert stats["n_objects_retrieved"] == queries_served * K
        # Every query consults every shard: the aggregated dispatch counters
        # scale with the shard count, and each shard engine saw every query.
        assert stats["scan_fallbacks"] == queries_served * 4
        assert stats["index_hits"] == 0
        for shard_stats in stats["per_shard"]:
            assert shard_stats["n_searches"] == queries_served
            assert shard_stats["n_batches"] == calls

        # The interleaved training matches the same inserts run alone.
        reference_bypass = bypass_for_unit_cube(DIMENSION)
        for round_points, round_parameters in zip(train_points, train_parameters):
            reference_bypass.insert_batch(round_points, round_parameters)
        assert (
            bypass.statistics()["n_stored_queries"]
            == reference_bypass.statistics()["n_stored_queries"]
        )

    def test_reset_counters_under_load_keeps_totals_consistent(self, collection):
        # Not a determinism check — just that concurrent stats() snapshots
        # are internally consistent and the final totals are exact.
        with ShardedEngine(collection, 3, n_workers=2) as engine:
            queries = _thread_queries(collection, 0)

            def searcher():
                for _ in range(N_ROUNDS):
                    engine.search_batch(queries, K)
                    snapshot = engine.stats()
                    assert snapshot["n_objects_retrieved"] == snapshot["n_searches"] * K

            errors = _run_threads([searcher] * N_THREADS)
            assert errors == []
            assert engine.stats()["n_searches"] == N_THREADS * N_ROUNDS * 8
            engine.reset_counters()
            final = engine.stats()
        assert final["n_searches"] == 0
        assert final["n_batches"] == 0
        assert all(shard["n_searches"] == 0 for shard in final["per_shard"])


class TestSchedulerStress:
    def test_concurrent_frontiers_on_one_sharded_engine_are_deterministic(self, collection):
        user = SimulatedUser(collection)
        request_rng = np.random.default_rng(21)
        indices = request_rng.integers(0, SIZE, size=9)
        requests = [
            LoopRequest(
                query_point=collection.vectors[int(index)],
                k=K,
                judge=user.judge_for_query(int(index)),
            )
            for index in indices
        ]
        sequential = FeedbackEngine(RetrievalEngine(collection), max_iterations=5)
        expected = [
            sequential.run_loop(request.query_point, request.k, request.judge)
            for request in requests
        ]

        with ShardedEngine(collection, 4, n_workers=2) as engine:
            feedback = FeedbackEngine(engine, max_iterations=5)
            scheduler = LoopScheduler(feedback)

            # One single-threaded run calibrates the per-run counter costs.
            results = scheduler.run(requests)
            assert all(r.identical_to(e) for r, e in zip(results, expected))
            per_run = engine.stats()
            engine.reset_counters()

            def scheduling_client():
                for _ in range(3):
                    mine = scheduler.run(requests)
                    assert all(r.identical_to(e) for r, e in zip(mine, expected))

            errors = _run_threads([scheduling_client] * 4)
            assert errors == []
            stats = engine.stats()
        # 4 threads x 3 runs, each byte-identical to the calibration run:
        # every counter is exactly 12x the single run's (no lost updates).
        for counter in (
            "n_searches",
            "n_batches",
            "n_objects_retrieved",
            "feedback_iterations",
            "frontier_batches",
            "scan_fallbacks",
        ):
            assert stats[counter] == 12 * per_run[counter], counter


class TestCoalescerStress:
    def test_same_k_windows_on_every_slot_answer_every_row_exactly(self, collection):
        """More submitters than cores on one coalescer over a cold workspace.

        Up to one window per dispatch slot runs at once while the rest
        pile into the next window; every row must come back exactly once and byte-identical,
        and the coalescer's totals must add up (a lost window or a lost
        counter update breaks them).
        """
        fresh = FeatureCollection(collection.vectors)  # cold workspace
        reference = RetrievalEngine(collection)
        rng = np.random.default_rng(77)
        deltas = rng.normal(0.0, 0.02, (8, DIMENSION))
        weights = rng.random((8, DIMENSION)) + 0.2
        n_threads = 8
        expectations = {}
        for thread_id in range(n_threads):
            queries = _thread_queries(collection, thread_id)[: 1 + thread_id % 3]
            n_rows = queries.shape[0]
            expectations[thread_id] = (
                queries,
                reference.search_batch(queries, K),
                reference.search_batch_with_parameters(
                    queries, K, deltas[:n_rows], weights[:n_rows]
                ),
            )
        coalescer = RequestCoalescer(RetrievalEngine(fresh), max_batch=4)

        def submitter(thread_id: int):
            queries, expected_plain, expected_parameterised = expectations[thread_id]
            n_rows = queries.shape[0]
            for _ in range(N_ROUNDS):
                assert coalescer.submit_search(queries, K) == expected_plain
                assert (
                    coalescer.submit_search_with_parameters(
                        queries, K, deltas[:n_rows], weights[:n_rows]
                    )
                    == expected_parameterised
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            errors = _run_threads([lambda t=thread_id: submitter(t) for thread_id in range(n_threads)])
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        stats = coalescer.stats()
        rows = N_ROUNDS * 2 * sum(expectations[t][0].shape[0] for t in range(n_threads))
        assert stats["requests"] == N_ROUNDS * 2 * n_threads
        assert stats["rows"] == stats["dispatched_rows"] == rows
        assert stats["dispatches"] <= stats["requests"]
