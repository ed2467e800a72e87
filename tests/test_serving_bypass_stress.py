"""Concurrency stress for the shared served bypass.

The registry's promise under contention: writers serialize per tree,
readers never block each other, and afterwards the accounting is *exact*
— every insert request counted once, the ordered insert log replayable
into a byte-identical local tree, no row lost to a disconnect and none
double-applied by a retry.  A connection dying mid-insert (half a frame
on the wire) must cost nothing but that connection.
"""

import socket
import struct
import sys
import threading

import numpy as np
import pytest

from repro.core.bypass import FeedbackBypass
from repro.core.oqp import OptimalQueryParameters
from repro.database.engine import RetrievalEngine
from repro.serving import RetrievalServer, ServerConfig, ServingClient
from repro.serving.bypass_registry import DEFAULT_TENANT, BypassRegistry, _WriterPreferringLock
from repro.serving.codec import BINARY, pack_hello, parse_reply
from repro.serving.protocol import recv_payload, send_payload

pytestmark = pytest.mark.serving

N_THREADS = 8
SINGLES_PER_THREAD = 6
BURST_ROWS_PER_THREAD = 4  # inserted back to back, with no reads between
MOPTS_PER_THREAD = 10


def _parameters_for(index: int, dimension: int) -> OptimalQueryParameters:
    rng = np.random.default_rng(5100 + index)
    return OptimalQueryParameters(
        delta=rng.normal(scale=0.01, size=dimension),
        weights=rng.random(dimension) + 0.5,
    )


def _identical(first: OptimalQueryParameters, second: OptimalQueryParameters) -> bool:
    return bool(
        np.array_equal(first.delta, second.delta)
        and np.array_equal(first.weights, second.weights)
    )


def _replayed_reference(registry, tenant):
    local = registry.local_reference()
    for point, parameters in registry.insert_log(tenant):
        local.insert(point, parameters)
    return local


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


class TestConcurrentTraining:
    def test_exact_accounting_under_mixed_insert_and_mopt(self, tiny_collection):
        """8 threads of interleaved writes and reads; totals come out exact."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        per_thread = SINGLES_PER_THREAD + BURST_ROWS_PER_THREAD
        config = ServerConfig(bypass=True)
        with RetrievalServer(engine, config) as server:
            host, port = server.address

            def work(thread_id):
                base = thread_id * per_thread
                with ServingClient(host, port) as client:
                    for offset in range(SINGLES_PER_THREAD):
                        index = base + offset
                        client.bypass_insert(
                            tiny_collection.vectors[index],
                            _parameters_for(index, dimension),
                        )
                        # Reads interleave with every write: they must
                        # always see a consistent (pre- or post-) tree.
                        prediction = client.bypass_mopt(
                            tiny_collection.vectors[index]
                        )
                        assert prediction.query_dimension == dimension
                    for offset in range(BURST_ROWS_PER_THREAD):
                        index = base + SINGLES_PER_THREAD + offset
                        client.bypass_insert(
                            tiny_collection.vectors[index],
                            _parameters_for(index, dimension),
                        )
                    for offset in range(MOPTS_PER_THREAD):
                        client.bypass_mopt(
                            tiny_collection.vectors[(base + offset) % tiny_collection.size]
                        )

            _run_threads(N_THREADS, work)

            registry = server.bypass_registry
            stats = registry.stats(DEFAULT_TENANT)
            total_inserts = N_THREADS * per_thread
            assert stats["n_insert_requests"] == total_inserts
            assert stats["n_capped"] == 0
            assert stats["log_length"] == total_inserts
            assert len(registry.insert_log(DEFAULT_TENANT)) == total_inserts

            # The final node count is exactly what a local replay of the
            # ordered log yields, and the trees agree byte for byte.
            local = _replayed_reference(registry, DEFAULT_TENANT)
            assert stats["n_stored_queries"] == local.n_stored_queries
            assert stats["n_applied"] <= total_inserts
            probes = tiny_collection.vectors[: N_THREADS * per_thread]
            for point in probes:
                assert _identical(
                    registry.mopt(DEFAULT_TENANT, point), local.mopt(point)
                )


class TestReaderWriterContention:
    def test_readers_see_only_consistent_trees(self, tiny_collection):
        """mopt hammering during writes returns only fully applied states."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        n_writers, n_readers = 3, 4
        writes_each = 10
        stop = threading.Event()
        with RetrievalServer(engine, ServerConfig(bypass=True)) as server:
            host, port = server.address

            def work(thread_id):
                if thread_id < n_writers:
                    try:
                        with ServingClient(host, port) as client:
                            for offset in range(writes_each):
                                index = thread_id * writes_each + offset
                                client.bypass_insert(
                                    tiny_collection.vectors[index],
                                    _parameters_for(index, dimension),
                                )
                    finally:
                        if thread_id == 0:
                            stop.set()
                else:
                    with ServingClient(host, port) as client:
                        while not stop.is_set():
                            prediction = client.bypass_mopt(
                                tiny_collection.vectors[thread_id]
                            )
                            # A consistent tree always yields finite,
                            # correctly shaped parameters.
                            assert np.isfinite(prediction.delta).all()
                            assert np.isfinite(prediction.weights).all()
                            assert prediction.weight_dimension == dimension

            _run_threads(n_writers + n_readers, work)
            registry = server.bypass_registry
            stats = registry.stats(DEFAULT_TENANT)
            assert stats["n_insert_requests"] == n_writers * writes_each
            local = _replayed_reference(registry, DEFAULT_TENANT)
            assert stats["n_stored_queries"] == local.n_stored_queries


class TestRememberedWalksUnderContention:
    def test_concurrent_mopt_of_stored_points_equals_the_replay(self, tiny_collection, wait_until):
        """Readers predict stored points — each resuming the walk its tree
        remembers for it — while a writer splits their leaves.  Every read
        is, byte for byte, what a single-threaded replay of the log predicts
        after some prefix the read overlapped, and afterwards every stored
        point predicts exactly as the replay does."""
        registry = BypassRegistry.for_engine(RetrievalEngine(tiny_collection))
        dimension = tiny_collection.dimension
        vectors = tiny_collection.vectors
        n_seeded, n_writes = 6, 40
        for index in range(n_seeded):
            registry.insert(DEFAULT_TENANT, vectors[index], _parameters_for(index, dimension))
        written = [n_seeded]  # rows inserted so far; only the writer moves it
        done = threading.Event()
        reads = []  # (log length before, row, prediction bytes, log length after)

        def log_length():
            return registry.stats(DEFAULT_TENANT)["log_length"]

        def work(thread_id):
            if thread_id == 0:
                try:
                    for index in range(n_seeded, n_writes):
                        registry.insert(DEFAULT_TENANT, vectors[index], _parameters_for(index, dimension))
                        written[0] = index + 1
                        # Let the readers in on every stage of the tree.
                        seen = len(reads)
                        wait_until(lambda: len(reads) >= seen + 6, timeout=5.0, strict=False)
                finally:
                    done.set()
                return
            rng = np.random.default_rng(thread_id)
            while not done.is_set():
                row = int(rng.integers(0, written[0]))
                before = log_length()
                prediction = registry.mopt(DEFAULT_TENANT, vectors[row])
                reads.append(
                    (before, row, prediction.delta.tobytes() + prediction.weights.tobytes(), log_length())
                )

        # Short GIL slices: the readers never pause, and the writer must
        # still get its turns at the interpreter.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(4, work)
        finally:
            sys.setswitchinterval(interval)

        local = registry.local_reference()
        log = registry.insert_log(DEFAULT_TENANT)
        assert len(log) == n_writes

        def replayed_predictions():
            return [
                local.mopt(vectors[row]).delta.tobytes() + local.mopt(vectors[row]).weights.tobytes()
                for row in range(n_writes)
            ]

        after_prefix = [replayed_predictions()]
        for point, parameters in log:
            local.insert(point, parameters)
            after_prefix.append(replayed_predictions())
        # The reads saw the tree at many stages of the writer's inserts.
        assert len({before for before, _, _, _ in reads}) >= n_writes // 2
        for before, row, observed, after in reads:
            assert any(after_prefix[k][row] == observed for k in range(before, after + 1))
        for row in range(n_writes):
            prediction = registry.mopt(DEFAULT_TENANT, vectors[row])
            assert prediction.delta.tobytes() + prediction.weights.tobytes() == after_prefix[-1][row]


class _Holder:
    """A thread that takes one side of a tenant lock and holds it until told to leave."""

    def __init__(self, lock, side: str) -> None:
        self.entered = threading.Event()
        self.leave = threading.Event()
        self.left = threading.Event()
        self.thread = threading.Thread(target=self._hold, args=(getattr(lock, side),), daemon=True)
        self.thread.start()

    def _hold(self, take) -> None:
        with take():
            self.entered.set()
            self.leave.wait(timeout=30.0)
        self.left.set()

    def release(self) -> None:
        self.leave.set()
        assert self.left.wait(timeout=10.0)
        self.thread.join(timeout=10.0)


class TestWriterPreferringLock:
    """The tenant lock, one ordering at a time.  ``PAUSE`` is how long a
    thread that must stay out is given to get in wrongly."""

    PAUSE = 0.05

    @pytest.fixture
    def lock(self):
        return _WriterPreferringLock()

    @pytest.fixture
    def holders(self):
        started = []

        def hold(lock, side):
            started.append(_Holder(lock, side))
            return started[-1]

        yield hold
        for holder in started:
            holder.leave.set()
            holder.thread.join(timeout=10.0)
        assert not any(holder.thread.is_alive() for holder in started)

    def test_readers_share_the_lock(self, lock, holders):
        first = holders(lock, "read")
        assert first.entered.wait(timeout=10.0)
        second = holders(lock, "read")
        assert second.entered.wait(timeout=10.0)

    def test_a_writer_waits_for_the_reader_inside(self, lock, holders):
        reader = holders(lock, "read")
        assert reader.entered.wait(timeout=10.0)
        writer = holders(lock, "write")
        assert not writer.entered.wait(timeout=self.PAUSE)
        reader.release()
        assert writer.entered.wait(timeout=10.0)

    def test_a_writer_runs_alone(self, lock, holders, wait_until):
        first = holders(lock, "write")
        assert first.entered.wait(timeout=10.0)
        second = holders(lock, "write")
        wait_until(lambda: lock._n_writers_waiting == 1)
        reader = holders(lock, "read")
        assert not second.entered.wait(timeout=self.PAUSE)
        assert not reader.entered.is_set()
        first.release()
        assert second.entered.wait(timeout=10.0)
        assert not reader.entered.wait(timeout=self.PAUSE)
        second.release()
        assert reader.entered.wait(timeout=10.0)

    def test_a_waiting_writer_holds_off_arriving_readers(self, lock, holders, wait_until):
        inside = holders(lock, "read")
        assert inside.entered.wait(timeout=10.0)
        writer = holders(lock, "write")
        wait_until(lambda: lock._n_writers_waiting == 1)
        arriving = holders(lock, "read")
        assert not arriving.entered.wait(timeout=self.PAUSE)
        inside.release()
        assert writer.entered.wait(timeout=10.0)
        assert not arriving.entered.wait(timeout=self.PAUSE)
        writer.release()
        assert arriving.entered.wait(timeout=10.0)

    def test_readers_inside_finish_while_a_writer_waits(self, lock, holders, wait_until):
        readers = [holders(lock, "read") for _ in range(2)]
        assert all(reader.entered.wait(timeout=10.0) for reader in readers)
        writer = holders(lock, "write")
        wait_until(lambda: lock._n_writers_waiting == 1)
        readers[0].release()
        assert not writer.entered.wait(timeout=self.PAUSE)
        readers[1].release()
        assert writer.entered.wait(timeout=10.0)

    def test_a_writer_stops_counting_as_waiting_once_inside(self, lock, holders, wait_until):
        reader = holders(lock, "read")
        assert reader.entered.wait(timeout=10.0)
        writer = holders(lock, "write")
        wait_until(lambda: lock._n_writers_waiting == 1)
        reader.release()
        assert writer.entered.wait(timeout=10.0)
        assert lock._n_writers_waiting == 0
        writer.release()
        with lock.read():
            assert lock._n_readers == 1
        assert (lock._n_readers, lock._writing) == (0, False)

    @pytest.mark.parametrize("side", ["read", "write"])
    def test_an_error_inside_releases_the_lock(self, lock, side):
        with pytest.raises(RuntimeError, match="inside"):
            with getattr(lock, side)():
                raise RuntimeError("inside")
        assert (lock._n_readers, lock._n_writers_waiting, lock._writing) == (0, 0, False)
        with lock.write():
            pass
        with lock.read():
            pass


class TestWritersAreNeverStarved:
    #: How long a read waits for the next read to come in before it leaves.
    GRACE = 0.05

    def test_inserts_finish_while_readers_read_back_to_back(self, tiny_collection, monkeypatch, wait_until):
        """Three threads call ``mopt`` back to back while a fourth makes 34
        inserts.  Each read stays inside the read lock until the next read
        has come in, so the reads overlap and the lock never empties of its
        own accord: a lock that lets arriving readers overtake a waiting
        writer starves the inserts for good.  A waiting insert holds off
        arriving reads instead, the last read leaves after the grace, and
        every insert finishes inside the bound; the readers then read on."""
        registry = BypassRegistry.for_engine(RetrievalEngine(tiny_collection))
        dimension = tiny_collection.dimension
        vectors = tiny_collection.vectors
        n_readers, n_inserts = 3, 34
        parameters = [_parameters_for(index, dimension) for index in range(n_inserts)]
        reads = [0] * n_readers
        inserted = [0]
        done = threading.Event()
        errors = []
        relay = threading.Condition()
        entered = [0]
        mopt = FeedbackBypass.mopt

        def overlapping_mopt(bypass, query_point):
            with relay:
                entered[0] += 1
                ticket = entered[0]
                relay.notify_all()
                relay.wait_for(lambda: entered[0] > ticket, timeout=self.GRACE)
            return mopt(bypass, query_point)

        monkeypatch.setattr(FeedbackBypass, "mopt", overlapping_mopt)

        def read(thread_id):
            try:
                while not done.is_set():
                    registry.mopt(DEFAULT_TENANT, vectors[thread_id])
                    reads[thread_id] += 1
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def write():
            try:
                for index in range(n_inserts):
                    registry.insert(DEFAULT_TENANT, vectors[index], parameters[index])
                    inserted[0] = index + 1
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        readers = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(n_readers)]
        writer = threading.Thread(target=write, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            wait_until(lambda: min(reads) > 0)
            writer.start()
            wait_until(lambda: inserted[0] == n_inserts or bool(errors))
            counted = list(reads)
            wait_until(lambda: all(now > then for now, then in zip(reads, counted)) or bool(errors))
        finally:
            done.set()
            for thread in [*readers, writer]:
                if thread.is_alive():
                    thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [*readers, writer])
        assert errors == []
        assert registry.stats(DEFAULT_TENANT)["n_insert_requests"] == n_inserts


class TestDisconnectMidInsert:
    def _handshake(self, sock):
        send_payload(sock, pack_hello([BINARY.name]))
        assert parse_reply(recv_payload(sock)) == BINARY.name

    def test_half_a_frame_costs_only_the_connection(self, tiny_collection):
        """A client dying mid-insert-frame leaves the tree untouched."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        with RetrievalServer(engine, ServerConfig(bypass=True)) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                for index in range(4):
                    client.bypass_insert(
                        tiny_collection.vectors[index],
                        _parameters_for(index, dimension),
                    )
                before = client.bypass_stats(tenant=DEFAULT_TENANT)

                # A doomed connection: handshake, then half an insert frame.
                payload = BINARY.encode(
                    {
                        "op": "bypass_insert",
                        "query_point": tiny_collection.vectors[50],
                        "parameters": _parameters_for(50, dimension),
                    }
                )
                doomed = socket.create_connection((host, port), timeout=5.0)
                try:
                    self._handshake(doomed)
                    torn = struct.pack(">I", len(payload)) + payload[: len(payload) // 2]
                    doomed.sendall(torn)
                finally:
                    doomed.close()

                # Nothing half-applied: counters and the tree are exactly as
                # before, and the connection's death cost nobody else.
                after = client.bypass_stats(tenant=DEFAULT_TENANT)
                assert after["n_insert_requests"] == before["n_insert_requests"]
                assert after["log_length"] == before["log_length"]
                assert after["n_stored_queries"] == before["n_stored_queries"]
                outcome = client.bypass_insert(
                    tiny_collection.vectors[5], _parameters_for(5, dimension)
                )
                assert outcome.action in {"inserted", "updated", "skipped"}

            registry = server.bypass_registry
            local = _replayed_reference(registry, DEFAULT_TENANT)
            for point in tiny_collection.vectors[:8]:
                assert _identical(
                    registry.mopt(DEFAULT_TENANT, point), local.mopt(point)
                )

    def test_vanishing_before_the_reply_still_counts_exactly_once(
        self, tiny_collection, wait_until
    ):
        """A full insert whose sender never reads the reply applies once."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        with RetrievalServer(engine, ServerConfig(bypass=True)) as server:
            host, port = server.address
            payload = BINARY.encode(
                {
                    "op": "bypass_insert",
                    "query_point": tiny_collection.vectors[60],
                    "parameters": _parameters_for(60, dimension),
                }
            )
            doomed = socket.create_connection((host, port), timeout=5.0)
            try:
                self._handshake(doomed)
                send_payload(doomed, payload)
            finally:
                doomed.close()

            registry = server.bypass_registry
            # Wait for the handler to observe the EOF before snapshotting
            # counters, so no half-processed request skews the read.
            wait_until(
                lambda: not server.stats()["connections"]["open"],
                timeout=5.0,
                interval=0.01,
                strict=False,
            )
            # The request was complete on the wire, so it lands exactly once
            # (the sender's death only loses the *reply*), or — if the close
            # raced the read — not at all.  Either way the accounting and
            # the log agree with the tree.
            stats = registry.stats(DEFAULT_TENANT)
            assert stats["n_insert_requests"] in (0, 1)
            assert stats["log_length"] == stats["n_insert_requests"]
            local = _replayed_reference(registry, DEFAULT_TENANT)
            assert stats["n_stored_queries"] == local.n_stored_queries

            host, port = server.address
            with ServingClient(host, port) as client:
                assert client.ping() == "pong"
                client.bypass_insert(
                    tiny_collection.vectors[61], _parameters_for(61, dimension)
                )
            final = registry.stats(DEFAULT_TENANT)
            assert final["log_length"] == final["n_insert_requests"]
