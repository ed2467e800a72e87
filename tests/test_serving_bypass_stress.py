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
import threading
import time

import numpy as np
import pytest

from repro.core.oqp import OptimalQueryParameters
from repro.database.engine import RetrievalEngine
from repro.serving import RetrievalServer, ServerConfig, ServingClient
from repro.serving.bypass_registry import DEFAULT_TENANT
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
