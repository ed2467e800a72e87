"""Concurrency stress and lifecycle tests of the serving layer.

Complements the equivalence grid with the ugly parts of serving real
traffic: many connections hammering mixed operations at once (with exact
counter totals afterwards — coalescing must lose no request and count no
request twice), hundreds of idle connections parked on the async front end
while hot clients are served, a client disconnecting mid-session while
other sessions keep advancing, a close() that drains an in-flight round,
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
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.serving import AsyncRetrievalServer, RetrievalServer, ServerConfig, ServingClient
from repro.serving.codec import BINARY, pack_hello, parse_reply
from repro.serving.protocol import recv_payload, send_payload

pytestmark = pytest.mark.serving

K = 6
MAX_ITERATIONS = 6


class SlowEngine(RetrievalEngine):
    """An engine whose session rounds stall (same results, later).

    ``search_batch_with_parameters`` is the one call a session's searches
    reach — first rounds and iterations alike — so sleeping there keeps a
    round in flight long enough for disconnects and closes to land
    mid-round.  Plain searches are not slowed.
    """

    DELAY = 0.05

    def search_batch_with_parameters(self, *args, **kwargs):
        time.sleep(self.DELAY)
        return super().search_batch_with_parameters(*args, **kwargs)


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

        config = ServerConfig(max_batch=self.N_CLIENTS, max_iterations=MAX_ITERATIONS)
        with RetrievalServer(engine, config, own_engine=True) as server:
            host, port = server.address
            outputs: dict = {}

            def work(client_id):
                with ServingClient(host, port) as client:
                    mine = {"singles": [], "batch": None, "loop": None}
                    for position in range(self.N_SINGLES):
                        mine["singles"].append(client.search(singles[client_id][position], K))
                    mine["batch"] = client.search_batch(batch, K)
                    mine["loop"] = client.run_feedback_session(
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

        # Exact accounting: every submitted row — searches and the sessions'
        # one-row round searches alike — was dispatched exactly once.
        search_rows = self.N_CLIENTS * (self.N_SINGLES + self.BATCH_ROWS)
        search_requests = self.N_CLIENTS * (self.N_SINGLES + 1)
        coalescer = stats["coalescer"]
        assert coalescer["requests"] == search_requests + expected_loop_searches
        assert coalescer["rows"] == search_rows + expected_loop_searches
        assert coalescer["dispatched_rows"] == search_rows + expected_loop_searches
        assert coalescer["dispatches"] <= coalescer["requests"]
        # Engine volume counters: the search traffic plus the sessions' first
        # rounds and iterations, nothing more, nothing lost.
        assert stats["engine"]["n_searches"] == search_rows + expected_loop_searches
        assert stats["engine"]["feedback_iterations"] == sum(
            ref.iterations for ref in loop_refs
        )
        # One judged round per iteration, plus the round that found no signal.
        assert stats["sessions"]["opened"] == self.N_CLIENTS
        assert stats["sessions"]["rounds"] == sum(
            ref.iterations + (ref.reason == "no_signal") for ref in loop_refs
        )
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
                    send_payload(sock, BINARY.encode({"op": "ping"}))
                    response = BINARY.decode(recv_payload(sock))
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


class TestDisconnectMidSession:
    def test_other_sessions_survive_a_mid_round_disconnect(self, tiny_collection, wait_until):
        """A vanished client's session never corrupts its neighbours' rounds."""
        user = SimulatedUser(tiny_collection)
        engine = SlowEngine(tiny_collection)
        judge_b = user.judge_for_query(17)
        reference_b = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=MAX_ITERATIONS
        ).run_loop(tiny_collection.vectors[17], K, judge_b)

        config = ServerConfig(max_iterations=MAX_ITERATIONS)
        with RetrievalServer(engine, config) as server:
            host, port = server.address

            # Client A: handshakes on a raw socket and opens a session.
            doomed = socket.create_connection((host, port))
            send_payload(doomed, pack_hello([BINARY.name]))
            assert parse_reply(recv_payload(doomed)) == BINARY.name
            send_payload(
                doomed,
                BINARY.encode(
                    {"op": "session_open", "query_point": tiny_collection.vectors[3], "k": K}
                ),
            )
            opened = BINARY.decode(recv_payload(doomed))["result"]
            judgments = user.judge_for_query(3)(opened["results"])

            result_b = {}

            def run_b():
                with ServingClient(host, port) as client:
                    result_b["loop"] = client.run_feedback_session(
                        tiny_collection.vectors[17], K, judge_b
                    )

            thread = threading.Thread(target=run_b)
            thread.start()
            wait_until(lambda: server.stats()["sessions"]["opened"] == 2)
            # A submits a slow round and vanishes without reading the reply.
            send_payload(
                doomed,
                BINARY.encode(
                    {
                        "op": "session_feedback",
                        "session_id": opened["session_id"],
                        "indices": judgments.indices,
                        "scores": judgments.scores,
                    }
                ),
            )
            doomed.close()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert result_b["loop"].identical_to(reference_b)
            wait_until(lambda: server.stats()["sessions"]["dropped_on_disconnect"] == 1)

            # The server is still healthy: fresh connections serve fine and
            # no session outlived its connection.
            with ServingClient(host, port) as client:
                assert client.ping() == "pong"
                assert client.search(tiny_collection.vectors[0], K) == RetrievalEngine(
                    tiny_collection
                ).search(tiny_collection.vectors[0], K)
                stats = client.stats()
            assert stats["sessions"]["open"] == 0
            assert stats["connections"]["open"] == 1


class TestDrainAndClose:
    def test_close_drains_an_in_flight_round(self, tiny_collection, wait_until):
        """close() lets a session round in flight finish and its reply leave."""
        user = SimulatedUser(tiny_collection)
        engine = SlowEngine(tiny_collection)
        judge = user.judge_for_query(9)
        # The reply to the first judged round: the loop after one iteration.
        reference = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=1).run_loop(
            tiny_collection.vectors[9], K, judge
        )
        assert reference.iterations == 1

        server = RetrievalServer(engine, ServerConfig(max_iterations=MAX_ITERATIONS))
        host, port = server.start()
        client = ServingClient(host, port)
        opened = client.open_session(tiny_collection.vectors[9], K)
        judgments = judge(opened["results"])
        outcome = {}

        def run_round():
            outcome["reply"] = client.session_feedback(
                opened["session_id"], judgments.indices, judgments.scores
            )

        thread = threading.Thread(target=run_round)
        thread.start()
        # The round is in flight once its re-search is submitted (the open
        # was the first); SlowEngine keeps it there.
        wait_until(lambda: server.stats()["coalescer"]["requests"] == 2)
        server.close()
        thread.join(timeout=30.0)
        client.close()
        assert not thread.is_alive()
        assert outcome["reply"]["iterations"] == 1
        assert outcome["reply"]["results"] == reference.final_results

    def test_close_releases_process_backend_shared_memory(self, tiny_collection):
        """Server drain/close tears worker processes and segments down."""
        def segments():
            return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}

        before = segments()
        engine = ShardedEngine(tiny_collection, 3, n_workers=2, backend="process")
        assert len(segments() - before) == 1

        reference = RetrievalEngine(tiny_collection).search_batch(
            tiny_collection.vectors[:5], K
        )
        server = RetrievalServer(engine, own_engine=True)
        host, port = server.start()
        with ServingClient(host, port) as client:
            assert client.search_batch(tiny_collection.vectors[:5], K) == reference
        server.close()
        server.close()  # idempotent
        assert segments() == before
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
