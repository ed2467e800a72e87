"""Equivalence grid of the shared served bypass.

The contract: the multi-tenant Simplex Tree the server shares between
connections is *the same tree* a local :class:`FeedbackBypass` would be —
N clients training it concurrently over real sockets produce byte-identical
``mopt`` answers to one local bypass fed the same ordered insert log, on
both front ends.  Tenants are isolated namespaces, the tree
survives a server restart via snapshot + write-ahead-log replay, and the
frontier's retiring feedback loops train the tree automatically.
"""

import threading

import numpy as np
import pytest

from repro.core.oqp import OptimalQueryParameters
from repro.database.engine import RetrievalEngine
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.serving import (
    AsyncRetrievalServer,
    BypassRegistry,
    RetrievalServer,
    ServerConfig,
    ServingClient,
)
from repro.serving.bypass_registry import DEFAULT_TENANT
from repro.utils.validation import ValidationError

pytestmark = pytest.mark.serving

K = 6
FRONT_ENDS = {"threaded": RetrievalServer, "async": AsyncRetrievalServer}


def _bypass_config(**overrides) -> ServerConfig:
    defaults = dict(bypass=True, max_iterations=6)
    defaults.update(overrides)
    return ServerConfig(**defaults)


def _parameters_for(index: int, dimension: int) -> OptimalQueryParameters:
    """Deterministic, index-distinct OQPs (non-negative weights)."""
    rng = np.random.default_rng(9000 + index)
    return OptimalQueryParameters(
        delta=rng.normal(scale=0.01, size=dimension),
        weights=rng.random(dimension) + 0.5,
    )


def _identical_parameters(first: OptimalQueryParameters, second: OptimalQueryParameters) -> bool:
    return bool(
        np.array_equal(first.delta, second.delta)
        and np.array_equal(first.weights, second.weights)
    )


def _replay_reference(registry: BypassRegistry, tenant: str):
    """A local FeedbackBypass fed the registry's ordered insert log."""
    local = registry.local_reference()
    for point, parameters in registry.insert_log(tenant):
        local.insert(point, parameters)
    return local


def _probe_points(collection) -> np.ndarray:
    """Stored vertices, fresh corpus points and in-hull midpoints."""
    vectors = collection.vectors
    midpoints = 0.5 * (vectors[:4] + vectors[4:8])
    return np.vstack([vectors[:12], midpoints])


class TestServedTreeEquivalence:
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_concurrent_training_matches_local_replay(self, tiny_collection, front_end):
        """N socket clients training one shared tree ≡ local ordered replay."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        n_clients = 3
        per_client = 6
        with FRONT_ENDS[front_end](engine, _bypass_config()) as server:
            host, port = server.address
            errors = []
            barrier = threading.Barrier(n_clients)

            def work(client_id: int) -> None:
                try:
                    with ServingClient(host, port) as client:
                        barrier.wait()
                        base = client_id * per_client
                        for offset in range(0, per_client, 2):
                            index = base + offset
                            outcome = client.bypass_insert(
                                tiny_collection.vectors[index],
                                _parameters_for(index, dimension),
                            )
                            assert outcome.action in {"inserted", "updated", "skipped"}
                            # Interleave reads with the writes.
                            client.bypass_mopt(tiny_collection.vectors[index])
                        batch_rows = [base + offset for offset in range(1, per_client, 2)]
                        outcomes = client.bypass_insert_batch(
                            tiny_collection.vectors[batch_rows],
                            [_parameters_for(index, dimension) for index in batch_rows],
                        )
                        assert len(outcomes) == len(batch_rows)
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=work, args=(client_id,))
                for client_id in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors

            registry = server.bypass_registry
            log = registry.insert_log(DEFAULT_TENANT)
            assert len(log) == n_clients * per_client
            local = _replay_reference(registry, DEFAULT_TENANT)
            assert local.n_stored_queries == registry.stats(DEFAULT_TENANT)[
                "n_stored_queries"
            ]

            # Byte-identical mopt answers, both registry-side and over the
            # wire, at stored vertices, fresh points and interpolated ones.
            with ServingClient(host, port) as client:
                for point in _probe_points(tiny_collection):
                    served = client.bypass_mopt(point)
                    assert _identical_parameters(served, local.mopt(point))

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_retired_loops_train_the_shared_tree(self, tiny_collection, front_end):
        """feedback_loop retirement feeds the tree; later loops shorten-or-tie."""
        engine = RetrievalEngine(tiny_collection)
        user = SimulatedUser(tiny_collection)
        indices = [0, 7, 19]
        with FRONT_ENDS[front_end](engine, _bypass_config()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                cold = {}
                for index in indices:
                    loop = client.run_feedback_loop(
                        tiny_collection.vectors[index], K, user.judge_for_query(index)
                    )
                    cold[index] = loop
                stats = client.bypass_stats(tenant=DEFAULT_TENANT)
                assert stats["n_insert_requests"] == len(indices)

                # A later client's loop starts from the shared prediction and
                # is byte-identical to the local engine given that start.
                reference = FeedbackEngine(
                    RetrievalEngine(tiny_collection), max_iterations=6
                )
                for index in indices:
                    prediction = client.bypass_mopt(tiny_collection.vectors[index])
                    warm = client.run_feedback_loop(
                        tiny_collection.vectors[index],
                        K,
                        user.judge_for_query(index),
                        initial_delta=prediction.delta,
                        initial_weights=prediction.weights,
                    )
                    assert warm.iterations <= cold[index].iterations
                    assert warm.identical_to(
                        reference.run_loop(
                            tiny_collection.vectors[index],
                            K,
                            user.judge_for_query(index),
                            initial_delta=prediction.delta,
                            initial_weights=prediction.weights,
                        )
                    )

    def test_bypass_ops_refused_when_disabled(self, tiny_collection):
        engine = RetrievalEngine(tiny_collection)
        with RetrievalServer(engine, ServerConfig()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                with pytest.raises(ValidationError):
                    client.bypass_mopt(tiny_collection.vectors[0])
                with pytest.raises(ValidationError):
                    client.bypass_stats()
        assert server.bypass_registry is None

    def test_insert_rejects_malformed_parameters(self, tiny_collection):
        engine = RetrievalEngine(tiny_collection)
        with RetrievalServer(engine, _bypass_config()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                with pytest.raises(ValidationError):
                    client.bypass_insert(
                        tiny_collection.vectors[0], "not-parameters"
                    )
                with pytest.raises(ValidationError):
                    client.bypass_insert(
                        tiny_collection.vectors[0],
                        _parameters_for(0, tiny_collection.dimension + 1),
                    )
                with pytest.raises(ValidationError):
                    client.bypass_mopt(
                        tiny_collection.vectors[0], tenant="no spaces allowed"
                    )


class TestTenantIsolation:
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_tenant_inserts_never_leak(self, tiny_collection, front_end):
        """Tenant A's training never changes tenant B's predictions."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        probes = _probe_points(tiny_collection)
        with FRONT_ENDS[front_end](engine, _bypass_config()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                before = [client.bypass_mopt(p, tenant="tenant-b") for p in probes]
                for index in range(8):
                    client.bypass_insert(
                        tiny_collection.vectors[index],
                        _parameters_for(index, dimension),
                        tenant="tenant-a",
                    )
                after = [client.bypass_mopt(p, tenant="tenant-b") for p in probes]
                assert all(
                    _identical_parameters(first, second)
                    for first, second in zip(before, after)
                )
                # And the default namespace is its own tenant too.
                assert client.bypass_stats(tenant="tenant-a")["n_applied"] > 0
                assert client.bypass_stats(tenant="tenant-b")["n_applied"] == 0
                registry_stats = client.bypass_stats()
                assert set(registry_stats["tenants"]) >= {"tenant-a", "tenant-b"}

    def test_loop_training_lands_in_the_requesting_tenant(self, tiny_collection):
        engine = RetrievalEngine(tiny_collection)
        user = SimulatedUser(tiny_collection)
        with RetrievalServer(engine, _bypass_config()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                client.run_feedback_loop(
                    tiny_collection.vectors[3],
                    K,
                    user.judge_for_query(3),
                    tenant="team-red",
                )
                assert client.bypass_stats(tenant="team-red")["n_insert_requests"] == 1
            registry = server.bypass_registry
            assert DEFAULT_TENANT not in registry.tenants() or (
                registry.stats(DEFAULT_TENANT)["n_insert_requests"] == 0
            )


class TestWarmStartPersistence:
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_restart_round_trip(self, tiny_collection, tmp_path, front_end):
        """Snapshot-on-close + boot-time load reproduce the served tree."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        config = _bypass_config(bypass_snapshot_dir=str(tmp_path), bypass_snapshot_every=4)
        probes = _probe_points(tiny_collection)

        with FRONT_ENDS[front_end](engine, config) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                for index in range(10):
                    client.bypass_insert(
                        tiny_collection.vectors[index],
                        _parameters_for(index, dimension),
                        tenant="durable",
                    )
                before = [client.bypass_mopt(p, tenant="durable") for p in probes]
                nodes_before = client.bypass_stats(tenant="durable")["n_stored_queries"]

        with FRONT_ENDS[front_end](engine, config) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                after = [client.bypass_mopt(p, tenant="durable") for p in probes]
                stats = client.bypass_stats(tenant="durable")
        assert stats["n_stored_queries"] == nodes_before
        assert all(
            _identical_parameters(first, second)
            for first, second in zip(before, after)
        )

    def test_wal_replay_without_final_snapshot(self, tiny_collection, tmp_path):
        """A registry abandoned without close() recovers from its insert log."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        registry = BypassRegistry.for_engine(
            engine, snapshot_dir=tmp_path, snapshot_every=0
        )
        for index in range(6):
            registry.insert(
                "crashy", tiny_collection.vectors[index], _parameters_for(index, dimension)
            )
        probes = _probe_points(tiny_collection)
        before = [registry.mopt("crashy", p) for p in probes]
        # No close(): simulate a crash — only the write-ahead log survives.

        reborn = BypassRegistry.for_engine(
            engine, snapshot_dir=tmp_path, snapshot_every=0
        )
        stats = reborn.stats("crashy")
        assert stats["n_replayed"] == 6
        after = [reborn.mopt("crashy", p) for p in probes]
        assert all(
            _identical_parameters(first, second)
            for first, second in zip(before, after)
        )

    def test_torn_tail_record_is_dropped(self, tiny_collection, tmp_path):
        """A crash mid-append loses at most the torn record, never the log."""
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        registry = BypassRegistry.for_engine(
            engine, snapshot_dir=tmp_path, snapshot_every=0
        )
        for index in range(4):
            registry.insert(
                "torn", tiny_collection.vectors[index], _parameters_for(index, dimension)
            )
        family = registry.family
        log_path = tmp_path / f"{family}--torn.log"
        with open(log_path, "ab") as handle:
            handle.write(b"\x00" * 17)  # a torn partial record

        reborn = BypassRegistry.for_engine(
            engine, snapshot_dir=tmp_path, snapshot_every=0
        )
        assert reborn.stats("torn")["n_replayed"] == 4

    def test_periodic_snapshot_truncates_the_log(self, tiny_collection, tmp_path):
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        registry = BypassRegistry.for_engine(
            engine, snapshot_dir=tmp_path, snapshot_every=3
        )
        for index in range(7):
            registry.insert(
                "periodic",
                tiny_collection.vectors[index],
                _parameters_for(index, dimension),
            )
        assert registry.stats()["n_snapshots"] >= 2
        # 6 of the 7 inserts are snapshotted; the log holds only the tail.
        reborn = BypassRegistry.for_engine(
            engine, snapshot_dir=tmp_path, snapshot_every=3
        )
        assert reborn.stats("periodic")["n_replayed"] == 1
        assert (
            reborn.stats("periodic")["n_stored_queries"]
            == registry.stats("periodic")["n_stored_queries"]
        )


class TestSizeAndEvictionPolicy:
    def test_max_nodes_caps_the_tree(self, tiny_collection):
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        registry = BypassRegistry.for_engine(engine, max_nodes=2)
        outcomes = [
            registry.insert(
                None, tiny_collection.vectors[index], _parameters_for(index, dimension)
            )
            for index in range(5)
        ]
        assert [outcome.action for outcome in outcomes[:2]] == ["inserted", "inserted"]
        assert all(outcome.action == "capped" for outcome in outcomes[2:])
        stats = registry.stats(DEFAULT_TENANT)
        assert stats["n_stored_queries"] == 2
        assert stats["n_capped"] == 3
        # Capped attempts never enter the ordered log — local replay of the
        # log still reconstructs the served tree exactly.
        assert stats["log_length"] == 2

    def test_least_recently_trained_tenant_is_evicted(self, tiny_collection, tmp_path):
        engine = RetrievalEngine(tiny_collection)
        dimension = tiny_collection.dimension
        registry = BypassRegistry.for_engine(
            engine, max_tenants=2, snapshot_dir=tmp_path, snapshot_every=0
        )
        for position, tenant in enumerate(["alpha", "beta"]):
            registry.insert(
                tenant, tiny_collection.vectors[position], _parameters_for(position, dimension)
            )
        # Re-train alpha so beta becomes the least recently trained.
        registry.insert(
            "alpha", tiny_collection.vectors[5], _parameters_for(5, dimension)
        )
        registry.insert(
            "gamma", tiny_collection.vectors[2], _parameters_for(2, dimension)
        )
        assert set(registry.tenants()) == {"alpha", "gamma"}
        assert registry.stats()["n_evictions"] == 1
        # The evicted tenant was snapshotted first: touching it again
        # warm-starts from disk with its training intact.
        assert registry.stats("beta")["n_stored_queries"] == 1

    def test_closed_registry_refuses_serving(self, tiny_collection):
        engine = RetrievalEngine(tiny_collection)
        registry = BypassRegistry.for_engine(engine)
        registry.insert(
            None, tiny_collection.vectors[0], _parameters_for(0, tiny_collection.dimension)
        )
        registry.close()
        with pytest.raises(ValidationError):
            registry.mopt(None, tiny_collection.vectors[0])
        with pytest.raises(ValidationError):
            registry.insert(
                None,
                tiny_collection.vectors[1],
                _parameters_for(1, tiny_collection.dimension),
            )
