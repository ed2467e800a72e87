"""The pooled serving client: bounds, budgets, retries, self-healing.

Contract under test (see ``src/repro/serving/pool.py``): a
:class:`PooledServingClient` never exceeds its connection bound, reuses
sockets LIFO, heals around dead pooled connections without a caller-visible
error, retries idempotent ops on transport failure within the request's
deadline budget, and propagates semantic errors immediately — all while
every answer stays byte-identical to the direct client and the local
engine.
"""

import threading

import numpy as np
import pytest

from repro.database.engine import RetrievalEngine
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.serving import (
    AsyncRetrievalServer,
    PooledServingClient,
    PoolTimeout,
    RetrievalServer,
    ServerConfig,
    ServingError,
)
from repro.utils.validation import ValidationError

pytestmark = pytest.mark.serving

FRONT_ENDS = {"threaded": RetrievalServer, "async": AsyncRetrievalServer}


@pytest.fixture(params=["threaded", "async"])
def server(request, tiny_collection):
    config = ServerConfig(max_iterations=6)
    with FRONT_ENDS[request.param](RetrievalEngine(tiny_collection), config) as srv:
        yield srv


class TestPooledEquivalence:
    def test_all_ops_match_local_engine(self, server, tiny_collection):
        direct = RetrievalEngine(tiny_collection)
        user = SimulatedUser(tiny_collection)
        queries = tiny_collection.vectors[:6]
        rng = np.random.default_rng(7)
        deltas = rng.normal(scale=0.01, size=queries.shape)
        weights = rng.random(queries.shape) + 0.1
        reference_loop = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=6
        ).run_loop(tiny_collection.vectors[3], 7, user.judge_for_query(3))
        host, port = server.address
        with PooledServingClient(host, port, max_connections=3) as pool:
            assert pool.ping() == "pong"
            assert pool.info()["corpus_size"] == tiny_collection.size
            assert pool.search(queries[0], 5) == direct.search(queries[0], 5)
            assert pool.search_batch(queries, 4) == direct.search_batch(queries, 4)
            assert pool.search_with_parameters(
                queries[0], 4, deltas[0], weights[0]
            ) == direct.search_with_parameters(queries[0], 4, deltas[0], weights[0])
            assert pool.search_batch_with_parameters(
                queries, 4, deltas, weights
            ) == direct.search_batch_with_parameters(queries, 4, deltas, weights)
            session = pool.run_feedback_session(
                tiny_collection.vectors[3], 7, user.judge_for_query(3)
            )
            assert session.identical_to(reference_loop)

    def test_concurrent_callers_share_the_bound(self, server, tiny_collection):
        """More callers than connections: all succeed, bound never exceeded."""
        direct = RetrievalEngine(tiny_collection)
        reference = [direct.search(tiny_collection.vectors[i], 4) for i in range(8)]
        host, port = server.address
        results: dict = {}
        errors: list = []
        with PooledServingClient(host, port, max_connections=3) as pool:
            barrier = threading.Barrier(8)

            def caller(caller_id):
                try:
                    barrier.wait()
                    mine = []
                    for _ in range(5):
                        mine = [
                            pool.search(tiny_collection.vectors[i], 4) for i in range(8)
                        ]
                    results[caller_id] = mine
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = pool.stats()
        assert not errors
        for caller_id in range(8):
            assert results[caller_id] == reference
        assert stats["alive"] <= 3
        assert stats["dials"] <= 3
        assert stats["reuses"] > 0


class TestSelfHealing:
    def test_stale_pooled_connection_is_retried_transparently(
        self, server, tiny_collection
    ):
        """A dead pooled socket costs a retry, never a caller-visible error."""
        direct = RetrievalEngine(tiny_collection)
        host, port = server.address
        with PooledServingClient(
            host, port, max_connections=2, health_check_interval=None, backoff=0.0
        ) as pool:
            assert pool.ping() == "pong"
            # Sever the pooled connection underneath the pool (what a
            # server restart does to every parked socket).
            pool._idle[-1].client._sock.close()
            result = pool.search(tiny_collection.vectors[0], 3)
            assert result == direct.search(tiny_collection.vectors[0], 3)
            stats = pool.stats()
        assert stats["retries"] >= 1
        assert stats["evictions"] >= 1
        assert stats["dials"] >= 2

    def test_health_check_evicts_dead_connections_without_burning_a_retry(
        self, server, tiny_collection
    ):
        """With checks on every checkout, the dead socket never serves."""
        direct = RetrievalEngine(tiny_collection)
        host, port = server.address
        with PooledServingClient(
            host, port, max_connections=2, health_check_interval=0.0
        ) as pool:
            assert pool.ping() == "pong"
            pool._idle[-1].client._sock.close()
            result = pool.search(tiny_collection.vectors[0], 3)
            assert result == direct.search(tiny_collection.vectors[0], 3)
            stats = pool.stats()
        assert stats["health_checks"] >= 1
        assert stats["evictions"] >= 1
        assert stats["retries"] == 0

    def test_dead_server_fails_with_transport_error_after_retries(self):
        with PooledServingClient(
            "127.0.0.1", 1, retries=2, backoff=0.001
        ) as pool:
            with pytest.raises(ServingError) as info:
                pool.ping()
        assert info.value.kind == "transport"
        assert "3 attempt(s)" in str(info.value)

    def test_semantic_errors_propagate_unretried(self, server, tiny_collection):
        host, port = server.address
        with PooledServingClient(host, port, backoff=0.001) as pool:
            with pytest.raises(ValidationError):
                pool.search(tiny_collection.vectors[0], 0)  # k must be positive
            stats = pool.stats()
            # The connection completed the exchange and went back healthy.
            assert stats["retries"] == 0
            assert stats["evictions"] == 0
            assert stats["idle"] == stats["alive"]
            assert pool.ping() == "pong"


class TestBudgetsAndLeases:
    def test_checkout_respects_the_deadline_budget(self, server):
        host, port = server.address
        with PooledServingClient(
            host, port, max_connections=1, request_timeout=0.2, retries=0
        ) as pool:
            with pool.lease():
                # The only connection is pinned; a concurrent call must
                # exhaust its budget waiting for a checkout.
                with pytest.raises(PoolTimeout):
                    pool.ping()

    def test_lease_pins_one_connection_and_returns_it(self, server, tiny_collection):
        direct = RetrievalEngine(tiny_collection)
        host, port = server.address
        with PooledServingClient(host, port, max_connections=2) as pool:
            with pool.lease() as client:
                for i in range(3):
                    assert client.search(tiny_collection.vectors[i], 3) == direct.search(
                        tiny_collection.vectors[i], 3
                    )
            stats = pool.stats()
            assert stats["alive"] == 1
            assert stats["idle"] == 1
            # The leased socket is the one the next call reuses.
            assert pool.ping() == "pong"
            assert pool.stats()["dials"] == 1

    def test_validation_at_construction(self):
        with pytest.raises(ValidationError):
            PooledServingClient("h", 1, max_connections=0)
        with pytest.raises(ValidationError):
            PooledServingClient("h", 1, retries=-1)
        with pytest.raises(ValidationError):
            PooledServingClient("h", 1, backoff=-0.1)
        with pytest.raises(ValidationError):
            PooledServingClient("h", 1, request_timeout=0.0)
        with pytest.raises(ValidationError):
            PooledServingClient("h", 1, health_check_interval=-1.0)

    def test_closed_pool_refuses_calls(self, server):
        host, port = server.address
        pool = PooledServingClient(host, port)
        assert pool.ping() == "pong"
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ValidationError):
            pool.ping()
