"""Concurrency stress and lifecycle tests of the serving layer.

Complements the equivalence grid with the ugly parts of serving real
traffic: many connections hammering mixed operations at once (with exact
counter totals afterwards — coalescing must lose no request and count no
request twice), hundreds of idle connections parked on the async front end
while hot clients are served, a client disconnecting mid-frontier while
other sessions' loops keep advancing, a close() that drains in-flight work,
and a process-backend teardown that provably releases its shared-memory
segment.
"""

import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.database.engine import RetrievalEngine
from repro.database.sharding import ShardedEngine
from repro.evaluation.simulated_user import CategoryJudge, SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.serving import AsyncRetrievalServer, RetrievalServer, ServerConfig, ServingClient
from repro.serving.codec import BINARY, pack_hello, parse_reply
from repro.serving.protocol import recv_message, recv_payload, send_message, send_payload

pytestmark = pytest.mark.serving

K = 6
MAX_ITERATIONS = 6


class SlowJudge:
    """A category judge that stalls each round (picklable, deterministic).

    The sleep models a feedback round whose judging takes real time, which
    keeps a frontier alive long enough for disconnects and late admissions
    to land mid-flight.  Scores are exactly the wrapped CategoryJudge's.
    """

    def __init__(self, judge: CategoryJudge, delay: float = 0.02) -> None:
        self.judge = judge
        self.delay = delay

    def __call__(self, results):
        time.sleep(self.delay)
        return self.judge(results)


def _run_threads(n_threads, target):
    barrier = threading.Barrier(n_threads)
    errors = []

    def main(thread_id):
        barrier.wait()
        try:
            target(thread_id)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=main, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestConcurrentHammering:
    N_CLIENTS = 6
    N_SINGLES = 8
    BATCH_ROWS = 10

    def test_mixed_traffic_is_exact_and_fully_accounted(self, tiny_collection, wait_until):
        """Byte-identical results and exact counter totals under contention."""
        user = SimulatedUser(tiny_collection)
        engine = ShardedEngine(tiny_collection, 3, n_workers=2)
        reference_engine = RetrievalEngine(tiny_collection)
        reference_feedback = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=MAX_ITERATIONS
        )
        rng = np.random.default_rng(31337)
        singles = rng.random((self.N_CLIENTS, self.N_SINGLES, tiny_collection.dimension))
        batch = rng.random((self.BATCH_ROWS, tiny_collection.dimension))
        loop_indices = [int(index) for index in rng.integers(0, tiny_collection.size, self.N_CLIENTS)]

        single_refs = [
            [reference_engine.search(point, K) for point in singles[client_id]]
            for client_id in range(self.N_CLIENTS)
        ]
        batch_ref = reference_engine.search_batch(batch, K)
        loop_refs = [
            reference_feedback.run_loop(
                tiny_collection.vectors[index], K, user.judge_for_query(index)
            )
            for index in loop_indices
        ]
        expected_loop_searches = len(loop_refs) + sum(ref.iterations for ref in loop_refs)

        config = ServerConfig(max_batch=self.N_CLIENTS, max_wait=0.002, max_iterations=MAX_ITERATIONS)
        with RetrievalServer(engine, config, own_engine=True) as server:
            host, port = server.address
            outputs: dict = {}

            def work(client_id):
                with ServingClient(host, port) as client:
                    mine = {"singles": [], "batch": None, "loop": None}
                    for position in range(self.N_SINGLES):
                        mine["singles"].append(client.search(singles[client_id][position], K))
                    mine["batch"] = client.search_batch(batch, K)
                    mine["loop"] = client.run_feedback_loop(
                        tiny_collection.vectors[loop_indices[client_id]],
                        K,
                        user.judge_for_query(loop_indices[client_id]),
                    )
                    outputs[client_id] = mine

            _run_threads(self.N_CLIENTS, work)
            # Handler threads observe their clients' EOFs asynchronously;
            # wait for the connection count to quiesce before snapshotting.
            wait_until(
                lambda: not server.stats()["connections"]["open"],
                timeout=5.0,
                interval=0.01,
                strict=False,
            )
            stats = server.stats()

        for client_id in range(self.N_CLIENTS):
            mine = outputs[client_id]
            assert mine["singles"] == single_refs[client_id]
            assert mine["batch"] == batch_ref
            assert mine["loop"].identical_to(loop_refs[client_id])

        # Exact accounting: every submitted row was dispatched exactly once.
        search_rows = self.N_CLIENTS * (self.N_SINGLES + self.BATCH_ROWS)
        coalescer = stats["coalescer"]
        assert coalescer["requests"] == self.N_CLIENTS * (self.N_SINGLES + 1)
        assert coalescer["rows"] == search_rows
        assert coalescer["dispatched_rows"] == search_rows
        assert coalescer["dispatches"] <= coalescer["requests"]
        # Engine volume counters: the search traffic plus the loops' first
        # rounds and iterations, nothing more, nothing lost.
        assert stats["engine"]["n_searches"] == search_rows + expected_loop_searches
        assert stats["engine"]["feedback_iterations"] == sum(
            ref.iterations for ref in loop_refs
        )
        assert stats["frontier"]["loops"] == self.N_CLIENTS
        assert stats["sessions"]["open"] == 0
        assert stats["connections"]["open"] == 0
        assert stats["connections"]["accepted"] == self.N_CLIENTS


class TestIdleConnectionSwarm:
    """The C10K population shape on the async front end, counted not timed.

    Many users are logged in but not searching: their connections finish
    the codec handshake and go silent.  The event loop must park them all
    while hot clients are served byte-identically, and every parked
    connection must still answer afterwards — no reaped socket, no starved
    handler.
    """

    N_IDLE = 256
    N_HOT = 4
    REQUESTS_PER_HOT = 8
    #: Descriptors kept free for everything besides the idle swarm.
    FD_HEADROOM = 256

    def _idle_connections_that_fit(self) -> int:
        """Each idle connection costs two descriptors here (client + server side)."""
        try:
            import resource
        except ImportError:  # pragma: no cover - non-POSIX platform
            return self.N_IDLE
        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft == resource.RLIM_INFINITY:
            return self.N_IDLE
        return min(self.N_IDLE, (soft - self.FD_HEADROOM) // 2)

    def test_idle_connections_survive_hot_traffic(self, tiny_collection, wait_until):
        n_idle = self._idle_connections_that_fit()
        if n_idle < 1:
            pytest.skip("RLIMIT_NOFILE leaves no room for idle connections")
        engine = RetrievalEngine(tiny_collection)
        rng = np.random.default_rng(10_000)
        queries = rng.random((self.N_HOT, self.REQUESTS_PER_HOT, tiny_collection.dimension))
        references = [[engine.search(point, K) for point in rows] for rows in queries]

        with AsyncRetrievalServer(engine, ServerConfig()) as server:
            host, port = server.address
            idle = []
            try:
                for _ in range(n_idle):
                    sock = socket.create_connection((host, port), timeout=10.0)
                    idle.append(sock)
                    send_payload(sock, pack_hello([BINARY.name]))
                    assert parse_reply(recv_payload(sock)) == BINARY.name
                wait_until(lambda: server.stats()["connections"]["open"] == n_idle)

                answers: dict = {}

                def hot(client_id):
                    with ServingClient(host, port) as client:
                        answers[client_id] = [
                            client.search(point, K) for point in queries[client_id]
                        ]

                _run_threads(self.N_HOT, hot)
                wait_until(lambda: server.stats()["connections"]["open"] == n_idle)

                pongs = 0
                for sock in idle:
                    send_message(sock, {"op": "ping"}, BINARY)
                    response = recv_message(sock, BINARY)
                    pongs += bool(response.get("ok") and response.get("result") == "pong")
                stats = server.stats()
            finally:
                for sock in idle:
                    sock.close()

        for client_id in range(self.N_HOT):
            for served, local in zip(answers[client_id], references[client_id]):
                assert served.indices().tobytes() == local.indices().tobytes()
                assert served.distances().tobytes() == local.distances().tobytes()
        assert pongs == n_idle
        assert stats["connections"]["accepted"] == n_idle + self.N_HOT
        # Idle pings never reach the engine: the coalescer saw the hot
        # requests and nothing else.
        hot_requests = self.N_HOT * self.REQUESTS_PER_HOT
        coalescer = stats["coalescer"]
        assert coalescer["requests"] == coalescer["dispatched_rows"] == hot_requests


class TestDisconnectMidFrontier:
    def test_other_sessions_survive_a_mid_loop_disconnect(self, tiny_collection, wait_until):
        """A vanished client's loop never corrupts its frontier neighbours."""
        user = SimulatedUser(tiny_collection)
        engine = RetrievalEngine(tiny_collection)
        slow_a = SlowJudge(user.judge_for_query(3))
        slow_b = SlowJudge(user.judge_for_query(17))
        reference_b = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=MAX_ITERATIONS
        ).run_loop(tiny_collection.vectors[17], K, slow_b)

        # SlowJudge is an arbitrary callable: it needs the pickle codec,
        # and the doomed raw socket below speaks the legacy no-handshake
        # pickle wire — both require the explicit opt-in.
        config = ServerConfig(max_wait=0.05, max_iterations=MAX_ITERATIONS, allow_pickle=True)
        with RetrievalServer(engine, config) as server:
            host, port = server.address

            # Client A: submits a slow loop and vanishes without reading
            # the response — mid-frontier once B's loop is admitted too.
            doomed = socket.create_connection((host, port))
            send_message(
                doomed,
                {
                    "op": "feedback_loop",
                    "query_point": tiny_collection.vectors[3],
                    "k": K,
                    "judge": slow_a,
                },
            )

            result_b = {}

            def run_b():
                with ServingClient(host, port, codec="pickle") as client:
                    result_b["loop"] = client.run_feedback_loop(
                        tiny_collection.vectors[17], K, slow_b
                    )

            thread = threading.Thread(target=run_b)
            thread.start()
            # Both loops are on the frontier once the submission counter
            # says so (SlowJudge keeps the rounds alive meanwhile).
            wait_until(lambda: server.stats()["frontier"]["loops"] == 2)
            doomed.close()  # A disconnects mid-frontier
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert result_b["loop"].identical_to(reference_b)

            # The server is still healthy: fresh connections serve fine and
            # both loops ran to completion on the shared frontier.
            with ServingClient(host, port) as client:
                assert client.ping() == "pong"
                assert client.search(tiny_collection.vectors[0], K) == RetrievalEngine(
                    tiny_collection
                ).search(tiny_collection.vectors[0], K)
                stats = client.stats()
            assert stats["frontier"]["loops"] == 2
            assert stats["connections"]["open"] == 1


class TestDrainAndClose:
    def test_close_drains_an_in_flight_loop(self, tiny_collection, wait_until):
        """close() lets an admitted loop finish and its response leave."""
        user = SimulatedUser(tiny_collection)
        engine = RetrievalEngine(tiny_collection)
        slow = SlowJudge(user.judge_for_query(9))
        reference = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=MAX_ITERATIONS
        ).run_loop(tiny_collection.vectors[9], K, slow)

        server = RetrievalServer(
            engine, ServerConfig(max_iterations=MAX_ITERATIONS, allow_pickle=True)
        )
        host, port = server.start()
        client = ServingClient(host, port, codec="pickle")
        outcome = {}

        def run_loop():
            outcome["loop"] = client.run_feedback_loop(
                tiny_collection.vectors[9], K, slow
            )

        thread = threading.Thread(target=run_loop)
        thread.start()
        # The loop is submitted (and close() drains submitted loops) once
        # the frontier's counter sees it; SlowJudge keeps it iterating.
        wait_until(lambda: server.stats()["frontier"]["loops"] == 1)
        server.close()
        thread.join(timeout=30.0)
        client.close()
        assert not thread.is_alive()
        assert outcome["loop"].identical_to(reference)

    def test_close_releases_process_backend_shared_memory(self, tiny_collection):
        """Server drain/close tears worker processes and segments down."""
        engine = ShardedEngine(tiny_collection, 3, n_workers=2, backend="process")
        handle = engine.shared_corpus_handle
        segment_path = f"/dev/shm/{handle.name.lstrip('/')}"
        assert os.path.exists(segment_path)

        reference = RetrievalEngine(tiny_collection).search_batch(
            tiny_collection.vectors[:5], K
        )
        server = RetrievalServer(engine, own_engine=True)
        host, port = server.start()
        with ServingClient(host, port) as client:
            assert client.search_batch(tiny_collection.vectors[:5], K) == reference
        server.close()
        server.close()  # idempotent
        assert not os.path.exists(segment_path)
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_connected_client_fails_cleanly_after_close(self, tiny_collection):
        engine = RetrievalEngine(tiny_collection)
        server = RetrievalServer(engine)
        host, port = server.start()
        client = ServingClient(host, port)
        assert client.ping() == "pong"
        server.close()
        with pytest.raises(Exception):
            client.ping()
        client.close()
