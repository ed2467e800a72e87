"""Equivalence grid of the coalescing network serving layer.

The serving contract: whatever coalescing happens between concurrent
connections, every served answer is **byte-identical** to calling the
engine (or the sequential feedback loop) directly — across engine kinds
(plain / sharded-thread / sharded-process), per-shard index types, distance
families and result-set sizes, including mixed-``k`` traffic, which the
coalescer keeps in one window per ``k``.

The grid is randomized but seeded, mirroring
``tests/test_sharded_equivalence.py``: every run draws the same
configurations and the same query batches, so failures reproduce.
"""

import threading

import numpy as np
import pytest

from repro.core.oqp import OptimalQueryParameters
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.sharding import ShardedEngine
from repro.distances.minkowski import MinkowskiDistance, euclidean
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.serving import AsyncRetrievalServer, RetrievalServer, ServerConfig, ServingClient
from repro.serving import coalescer as coalescer_module
from repro.utils.validation import ValidationError

pytestmark = pytest.mark.serving

DIMENSION = 6
SIZE = 149  # prime: uneven shard ranges, and ties spread across shards


@pytest.fixture(scope="module")
def collection() -> FeatureCollection:
    rng = np.random.default_rng(5001)
    vectors = rng.random((SIZE, DIMENSION))
    # Exact duplicates guarantee distance ties the serving path must break
    # exactly like the local engines (ascending global index).
    vectors[2] = vectors[140]
    vectors[75] = vectors[140]
    vectors[40] = vectors[39]
    return FeatureCollection(vectors, labels=[f"c{i % 5}" for i in range(SIZE)])


@pytest.fixture(scope="module")
def queries(collection) -> np.ndarray:
    rng = np.random.default_rng(88)
    points = rng.random((10, DIMENSION))
    points[1] = collection.vectors[140]  # sits exactly on the triplicate
    points[6] = collection.vectors[39]
    return points


def _distance_for(name: str):
    if name == "euclidean":
        return euclidean(DIMENSION)
    if name == "weighted":
        rng = np.random.default_rng(13)
        return WeightedEuclideanDistance(DIMENSION, weights=rng.random(DIMENSION) + 0.1)
    return MinkowskiDistance(DIMENSION, order=1.0)


def _build_engine(collection, engine_kind: str, distance):
    if engine_kind == "plain":
        return RetrievalEngine(collection, default_distance=distance)
    backend = "process" if engine_kind == "sharded-process" else "thread"
    return ShardedEngine(
        collection, 3, n_workers=2, backend=backend, default_distance=distance
    )


def _per_k_batches(search_batch, points, ks):
    """``search_batch`` once per distinct ``k``, answers back in row order.

    The way a caller with mixed ``k`` batches its rows: one call per ``k``.
    """
    results = [None] * len(ks)
    for k in sorted(set(ks)):
        rows = [row for row, row_k in enumerate(ks) if row_k == k]
        for row, result in zip(rows, search_batch(points[rows], k)):
            results[row] = result
    return results


def _hammer(n_clients: int, address, work):
    """Run ``work(client_id, client)`` on N clients released together."""
    host, port = address
    barrier = threading.Barrier(n_clients)
    errors = []

    def main(client_id):
        try:
            with ServingClient(host, port) as client:
                barrier.wait()
                work(client_id, client)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=main, args=(i,)) for i in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestServedSearchEquivalence:
    """Concurrent served searches reproduce the local engine bit for bit."""

    # A seeded random draw over the full grid, like the sharded suite: the
    # axes are engine kind x distance family.
    GRID = [
        ("plain", "euclidean"),
        ("plain", "weighted"),
        ("plain", "minkowski"),
        ("sharded-thread", "euclidean"),
        ("sharded-thread", "weighted"),
        ("sharded-process", "euclidean"),
    ]

    @pytest.mark.parametrize("engine_kind,distance_name", GRID)
    def test_served_equals_local(self, collection, queries, engine_kind, distance_name):
        distance = _distance_for(distance_name)
        engine = _build_engine(collection, engine_kind, distance)
        try:
            rng = np.random.default_rng(99)
            ks = [int(rng.integers(1, 12)) for _ in range(queries.shape[0])]
            single_reference = [
                engine.search(point, k) for point, k in zip(queries, ks)
            ]
            batch_reference = engine.search_batch(queries, 5)
            per_k_reference = _per_k_batches(engine.search_batch, queries, ks)
            deltas = rng.normal(scale=0.01, size=queries.shape)
            weights = rng.random(queries.shape) + 0.1
            params_reference = engine.search_batch_with_parameters(
                queries, 4, deltas, weights
            )

            with RetrievalServer(engine, ServerConfig(max_batch=8)) as server:
                results: dict = {}

                def work(client_id, client):
                    # Interleaved single-query traffic: three clients walk
                    # the same query list in different orders, so ties and
                    # coalesced windows mix queries from everyone.
                    order = list(range(queries.shape[0]))
                    if client_id % 2:
                        order = order[::-1]
                    mine = {}
                    for position in order:
                        mine[position] = client.search(queries[position], ks[position])
                    if client_id == 0:
                        mine["batch"] = client.search_batch(queries, 5)
                        mine["per_k"] = _per_k_batches(client.search_batch, queries, ks)
                    if client_id == 1:
                        mine["params"] = client.search_batch_with_parameters(
                            queries, 4, deltas, weights
                        )
                        mine["params_single"] = client.search_with_parameters(
                            queries[0], 4, deltas[0], weights[0]
                        )
                    results[client_id] = mine

                _hammer(3, server.address, work)

            for client_id in range(3):
                mine = results[client_id]
                for position, expected in enumerate(single_reference):
                    assert mine[position] == expected
            assert results[0]["batch"] == batch_reference
            assert results[0]["per_k"] == per_k_reference
            assert results[1]["params"] == params_reference
            assert results[1]["params_single"] == params_reference[0]
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()

    def test_single_connection_window_of_one(self, collection, queries):
        """A lone connection's calls map one-to-one onto engine dispatches."""
        engine = RetrievalEngine(collection)
        direct = RetrievalEngine(collection)
        with RetrievalServer(engine, ServerConfig(max_batch=16)) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                for position in range(4):
                    assert client.search(queries[position], 7) == direct.search(
                        queries[position], 7
                    )
                assert client.search_batch(queries, 3) == direct.search_batch(queries, 3)
                stats = server.stats()["coalescer"]
        # 4 singles + 1 batch, no concurrency: five dispatches, five requests.
        assert stats["requests"] == 5
        assert stats["dispatches"] == 5


class _GatedEngine:
    """An engine proxy whose searches wait inside the engine until ``gate`` opens.

    Every other attribute is the wrapped engine's.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self.gate = threading.Event()

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def search_batch(self, *args, **kwargs):
        self.gate.wait(timeout=30)
        return self._engine.search_batch(*args, **kwargs)

    def search_batch_with_parameters(self, *args, **kwargs):
        self.gate.wait(timeout=30)
        return self._engine.search_batch_with_parameters(*args, **kwargs)


class TestServedFeedbackEquivalence:
    """Served sessions reproduce single-session InteractiveSession runs."""

    @pytest.fixture(scope="class")
    def session(self, tiny_dataset) -> InteractiveSession:
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
        return InteractiveSession.for_dataset(tiny_dataset, config)

    @pytest.fixture(scope="class")
    def session_references(self, session):
        default = OptimalQueryParameters.default(session.collection.dimension)
        indices = [0, 5, 11, 18, 26, 33]
        return indices, [
            session.run_feedback_loop(index, default) for index in indices
        ]

    def _server_config(self, session) -> ServerConfig:
        return ServerConfig(
            max_batch=8,
            reweighting_rule=session.config.reweighting_rule,
            move_query_point=session.config.move_query_point,
            max_iterations=session.config.max_iterations,
        )

    def test_interactive_sessions_match_sequential_loops(
        self, session, session_references, monkeypatch, wait_until
    ):
        """Concurrent client-driven rounds (judgments over the wire) == run_loop.

        The sessions' round searches are the coalescer's only traffic: each
        is one submission.  The engine holds every call until all sessions'
        opening searches have been admitted: at most two of them hold the
        two dispatch slots, and the rest pile into one shared window — so
        the rounds ride fewer dispatches than there are rounds, with no
        clock involved.
        """
        n_slots = 2
        monkeypatch.setattr(coalescer_module, "_dispatch_slots", lambda: n_slots)
        indices, references = session_references
        k = session.config.k
        engine = _GatedEngine(session.retrieval_engine)
        results: dict = {}
        errors: list = []
        with RetrievalServer(engine, self._server_config(session)) as server:

            def work(client_id, client):
                index = indices[client_id]
                results[client_id] = client.run_feedback_session(
                    session.collection.vectors[index],
                    k,
                    session.user.judge_for_query(index),
                )

            def hammer():
                try:
                    _hammer(len(indices), server.address, work)
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            sessions = threading.Thread(target=hammer)
            sessions.start()
            try:
                wait_until(lambda: server.stats()["coalescer"]["requests"] == len(indices))
            finally:
                engine.gate.set()
                sessions.join(timeout=60)
            assert not sessions.is_alive()
            if errors:
                raise errors[0]
            coalescer = server.stats()["coalescer"]
        assert len(indices) >= 4
        for client_id, expected in enumerate(references):
            assert results[client_id].identical_to(expected)
        rounds = sum(1 + results[client_id].iterations for client_id in results)
        assert coalescer["requests"] == rounds
        assert coalescer["dispatches"] < rounds

    def test_mixed_k_sessions_share_the_window(self, tiny_collection):
        """Sessions of different k coexist on one server, each exact."""
        user = SimulatedUser(tiny_collection)
        engine = RetrievalEngine(tiny_collection)
        reference_feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        plan = [(3, 5), (12, 9), (21, 5), (30, 9), (37, 7)]
        references = [
            reference_feedback.run_loop(
                tiny_collection.vectors[index], k, user.judge_for_query(index)
            )
            for index, k in plan
        ]
        results: dict = {}
        config = ServerConfig(max_iterations=6)
        with RetrievalServer(engine, config) as server:

            def work(client_id, client):
                index, k = plan[client_id]
                results[client_id] = client.run_feedback_session(
                    tiny_collection.vectors[index], k, user.judge_for_query(index)
                )

            _hammer(len(plan), server.address, work)
        for client_id, expected in enumerate(references):
            assert results[client_id].identical_to(expected)


class TestFrontEndCodecGrid:
    """Byte identity on both front ends over the binary codec.

    Both front ends (thread-per-connection and asyncio) serve the same
    :class:`~repro.serving.server.ServingCore` behind the same handshake,
    and the binary codec carries every value bit for bit — so each front
    end must reproduce the local engine and the sequential feedback loop
    exactly, across searches, chunk-streamed batches and client-driven
    sessions.
    """

    FRONT_ENDS = {"threaded": RetrievalServer, "async": AsyncRetrievalServer}

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_search_paths_identical(self, collection, queries, front_end):
        engine = RetrievalEngine(collection)
        direct = RetrievalEngine(collection)
        rng = np.random.default_rng(41)
        ks = [int(rng.integers(1, 12)) for _ in range(queries.shape[0])]
        single_reference = [direct.search(point, k) for point, k in zip(queries, ks)]
        per_k_reference = _per_k_batches(direct.search_batch, queries, ks)
        # stream_chunk_items=3 forces the chunked sub-frame path (10
        # results -> a header plus four slices).
        config = ServerConfig(max_batch=8, stream_chunk_items=3)
        server_cls = self.FRONT_ENDS[front_end]
        with server_cls(engine, config) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                for position, k in enumerate(ks):
                    assert client.search(queries[position], k) == single_reference[position]
                assert client.search_batch(queries, 5) == direct.search_batch(queries, 5)
                assert _per_k_batches(client.search_batch, queries, ks) == per_k_reference

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_feedback_paths_identical(self, tiny_collection, front_end):
        user = SimulatedUser(tiny_collection)
        engine = RetrievalEngine(tiny_collection)
        judge = user.judge_for_query(7)
        reference = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=6
        ).run_loop(tiny_collection.vectors[7], 8, judge)
        config = ServerConfig(max_iterations=6)
        server_cls = self.FRONT_ENDS[front_end]
        with server_cls(engine, config) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                # Client-driven session (judgments travel per round).
                session = client.run_feedback_session(
                    tiny_collection.vectors[7], 8, judge
                )
                assert session.identical_to(reference)

    N_CONCURRENT = 3

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_concurrent_binary_clients(self, collection, queries, front_end):
        """Three concurrent connections coalesce into shared windows."""
        engine = RetrievalEngine(collection)
        direct = RetrievalEngine(collection)
        reference = [direct.search(point, 6) for point in queries]
        results: dict = {}
        errors: list = []
        config = ServerConfig(max_batch=8)
        server_cls = self.FRONT_ENDS[front_end]
        with server_cls(engine, config) as server:
            host, port = server.address
            barrier = threading.Barrier(self.N_CONCURRENT)

            def main(client_id):
                try:
                    with ServingClient(host, port) as client:
                        barrier.wait()
                        results[client_id] = [
                            client.search(point, 6) for point in queries
                        ]
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=main, args=(i,)) for i in range(self.N_CONCURRENT)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        for client_id in range(self.N_CONCURRENT):
            assert results[client_id] == reference


class TestSessionOps:
    """The interactive-session wire ops and their failure modes."""

    def test_round_payloads_and_close(self, tiny_collection):
        user = SimulatedUser(tiny_collection)
        engine = RetrievalEngine(tiny_collection)
        judge = user.judge_for_query(4)
        reference = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=6
        ).run_loop(tiny_collection.vectors[4], 8, judge)
        with RetrievalServer(engine, ServerConfig(max_iterations=6)) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                opened = client.open_session(tiny_collection.vectors[4], 8)
                assert opened["results"] == reference.initial_results
                assert not opened["done"]
                session_id = opened["session_id"]
                results = opened["results"]
                rounds = 0
                done = False
                while not done:
                    judgments = judge(results)
                    reply = client.session_feedback(
                        session_id, judgments.indices, judgments.scores
                    )
                    rounds += 1
                    assert reply["reason"] in {"active", "converged", "budget", "no_signal"}
                    if reply["results"] is not None:
                        results = reply["results"]
                    done = reply["done"]
                loop = client.close_session(session_id)
                assert loop.identical_to(reference)
                assert rounds >= loop.iterations

    def test_session_errors(self, tiny_collection):
        engine = RetrievalEngine(tiny_collection)
        with RetrievalServer(engine) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                with pytest.raises(ValidationError):
                    client.session_feedback(999, [0], [1.0])  # unknown id
                opened = client.open_session(tiny_collection.vectors[0], 5)
                session_id = opened["session_id"]
                with pytest.raises(ValidationError):
                    client.session_feedback(session_id, [10_000_000], [1.0])
                # Another connection cannot touch this session.
                with ServingClient(host, port) as intruder:
                    with pytest.raises(ValidationError):
                        intruder.session_feedback(session_id, [0], [1.0])
                client.close_session(session_id)
                with pytest.raises(ValidationError):
                    client.close_session(session_id)  # already closed

    def test_unknown_op_and_info(self, tiny_collection):
        engine = RetrievalEngine(tiny_collection)
        with RetrievalServer(engine) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                assert client.ping() == "pong"
                info = client.info()
                assert info["corpus_size"] == tiny_collection.size
                assert info["dimension"] == tiny_collection.dimension
                assert info["engine"] == "RetrievalEngine"
                with pytest.raises(ValidationError):
                    client._call("no_such_op")
                # A raw frame's k that is not a count is answered "validation".
                for k in (float("inf"), float("nan"), None, True, "3"):
                    with pytest.raises(ValidationError):
                        client._call("search", query_point=tiny_collection.vectors[0], k=k)


class TestBudgetedServing:
    """The anytime budget over the wire, on both front ends, both directions.

    The budget spec travels as a plain dict (``{"max_rows": ..,
    "deadline": ..}``), restarts server-side, and the reply carries the
    coverage report back — so every cell of the grid must (a) reproduce
    the local budgeted engine bit for bit, (b) round-trip the coverage
    accounting, and (c) under a *sufficient* budget reproduce the
    unbudgeted answer exactly.  Budgeted ops bypass the coalescer (a
    budget is per-request private accounting), which must not be
    observable in the bits.
    """

    FRONT_ENDS = {"threaded": RetrievalServer, "async": AsyncRetrievalServer}

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_budget_survives_wire(self, collection, queries, front_end):
        from repro.database.budget import Budget, Coverage

        direct = RetrievalEngine(collection)
        exact = direct.search_batch(queries, 7)
        rows_total = SIZE * queries.shape[0]
        config = ServerConfig(max_batch=8)
        server_cls = self.FRONT_ENDS[front_end]
        with server_cls(RetrievalEngine(collection), config) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                # Sufficient cap: byte-identical to the unbudgeted answer,
                # coverage reports completion.
                results, coverage = client.search_batch(
                    queries, 7, budget=Budget(max_rows=rows_total * 2)
                )
                assert results == exact
                assert isinstance(coverage, Coverage)
                assert coverage.complete and coverage.fraction == 1.0
                assert coverage.rows_total == rows_total

                # Truncating cap: matches the local budgeted engine bit for
                # bit, and the accounting round-trips through the codec.
                cap = rows_total // 3
                local_budget = Budget(max_rows=cap)
                local = direct.search_batch(queries, 7, budget=local_budget)
                results, coverage = client.search_batch(
                    queries, 7, budget={"max_rows": cap}
                )
                assert results == local
                assert coverage == local_budget.coverage()
                assert not coverage.complete
                assert coverage.rows_scanned <= cap

                # Single-query path agrees with its batch row.
                single, single_cov = client.search(
                    queries[1], 7, budget=Budget(max_rows=SIZE * 2)
                )
                assert single == exact[1] if queries.shape[0] else True
                assert single_cov.complete

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_budgeted_parameterised_ops(self, collection, queries, front_end):
        from repro.database.budget import Budget

        rng = np.random.default_rng(17)
        deltas = rng.normal(0.0, 0.02, queries.shape)
        weights = rng.random(queries.shape) + 0.2
        direct = RetrievalEngine(collection)
        rows_total = SIZE * queries.shape[0]
        cap = rows_total // 2
        local_budget = Budget(max_rows=cap)
        local = direct.search_batch_with_parameters(
            queries, 6, deltas, weights, budget=local_budget
        )
        server_cls = self.FRONT_ENDS[front_end]
        with server_cls(RetrievalEngine(collection)) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                results, coverage = client.search_batch_with_parameters(
                    queries, 6, deltas, weights, budget={"max_rows": cap}
                )
                assert results == local
                assert coverage == local_budget.coverage()
                single_local_budget = Budget(max_rows=SIZE)
                single_local = direct.search_with_parameters(
                    queries[0], 6, deltas[0], weights[0], budget=single_local_budget
                )
                single, single_cov = client.search_with_parameters(
                    queries[0], 6, deltas[0], weights[0], budget={"max_rows": SIZE}
                )
                assert single == single_local
                assert single_cov == single_local_budget.coverage()

    def test_pooled_client_forwards_budget(self, collection, queries):
        from repro.database.budget import Budget
        from repro.serving import PooledServingClient

        direct = RetrievalEngine(collection)
        rows_total = SIZE * queries.shape[0]
        cap = rows_total // 2
        local_budget = Budget(max_rows=cap)
        local = direct.search_batch(queries, 5, budget=local_budget)
        with RetrievalServer(RetrievalEngine(collection), ServerConfig()) as server:
            host, port = server.address
            with PooledServingClient(host, port) as client:
                results, coverage = client.search_batch(
                    queries, 5, budget={"max_rows": cap}
                )
                assert results == local
                assert coverage == local_budget.coverage()
                unbudgeted = client.search_batch(queries, 5)
                assert unbudgeted == direct.search_batch(queries, 5)
