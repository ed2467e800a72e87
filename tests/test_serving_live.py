"""The served live corpus: mutation ops over the wire, exact under traffic.

Two contracts.  First, the PR 9 serving grid: ``insert`` / ``delete`` /
``compact`` / ``corpus_stats`` behave identically on both front ends
(thread-per-connection and asyncio) — the same mutation script produces
byte-identical corpus statistics on each, and
``corpus_stats`` answers on frozen corpora too.  Second, the stress bar
from the roadmap item: writers hammering inserts, deletes and compactions
against a server **while** coalesced feedback sessions are mid-flight must
never change a single bit of any session — the written rows are placed far
from the query cluster, so every served session stays byte-identical to the
frozen-corpus reference whatever the interleaving.
"""

import threading

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.segments import LiveCollection
from repro.feedback.engine import FeedbackEngine
from repro.evaluation.simulated_user import SimulatedUser
from repro.serving import (
    AsyncRetrievalServer,
    PooledServingClient,
    RetrievalServer,
    ServerConfig,
    ServingClient,
)
from repro.utils.validation import ValidationError

pytestmark = pytest.mark.serving

DIMENSION = 5

FRONT_ENDS = {"threaded": RetrievalServer, "async": AsyncRetrievalServer}


def _fresh_live(n=30, seed=900):
    rng = np.random.default_rng(seed)
    return LiveCollection(rng.random((n, DIMENSION)))


def _mutation_script(client, rng):
    """The shared mutation sequence every grid cell replays identically."""
    first = client.insert(rng.random((4, DIMENSION)))
    second = client.insert(rng.random((2, DIMENSION)))
    client.delete([int(first[1]), int(second[0])])
    folded = client.compact()
    client.insert(rng.random((3, DIMENSION)))
    client.delete([int(first[0])])
    return folded, client.corpus_stats()


class TestCorpusStatsGrid:
    """Identical composition counters on both front ends."""

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_mutation_script_reports_identically(self, front_end):
        # The local reference: the same script against a local collection.
        reference_live = _fresh_live()
        rng = np.random.default_rng(31)

        class _Local:
            insert = staticmethod(reference_live.insert)
            delete = staticmethod(reference_live.delete)
            compact = staticmethod(reference_live.compact)
            corpus_stats = staticmethod(reference_live.corpus_stats)

        reference_folded, reference_stats = _mutation_script(_Local, rng)

        live = _fresh_live()
        engine = RetrievalEngine(live)
        with FRONT_ENDS[front_end](engine, ServerConfig()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                folded, stats = _mutation_script(client, np.random.default_rng(31))
        assert folded == reference_folded
        assert stats == reference_stats
        assert stats["live"] is True
        assert stats["compactions"] == 1

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_frozen_corpus_answers_without_an_error(self, front_end):
        rng = np.random.default_rng(32)
        engine = RetrievalEngine(FeatureCollection(rng.random((12, DIMENSION))))
        with FRONT_ENDS[front_end](engine, ServerConfig()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                assert client.corpus_stats() == {"live": False, "size": 12}
                with pytest.raises(ValidationError):
                    client.insert(rng.random((1, DIMENSION)))
                with pytest.raises(ValidationError):
                    client.delete([0])
                with pytest.raises(ValidationError):
                    client.compact()

    def test_pooled_client_speaks_the_same_ops(self):
        live = _fresh_live()
        engine = RetrievalEngine(live)
        with RetrievalServer(engine, ServerConfig()) as server:
            host, port = server.address
            with PooledServingClient(host, port, max_connections=2) as pool:
                ids = pool.insert(np.random.default_rng(33).random((3, DIMENSION)))
                assert [int(i) for i in ids] == [30, 31, 32]
                assert pool.delete([31]) == 1
                assert pool.compact()["compacted"] is True
                stats = pool.corpus_stats()
                assert stats == live.corpus_stats()
                assert stats["size"] == 32


class TestServedMutationSemantics:
    def test_inserted_rows_are_immediately_searchable(self):
        live = _fresh_live()
        engine = RetrievalEngine(live)
        with RetrievalServer(engine, ServerConfig()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                row = np.full(DIMENSION, 0.5)
                (new_id,) = client.insert(row[None, :])
                result = client.search(row, 1)
                assert result.indices()[0] == new_id
                assert result.distances()[0] == 0.0
                client.delete([int(new_id)])
                assert client.search(row, 1).indices()[0] != new_id

    def test_labelled_inserts_carry_labels(self):
        rng = np.random.default_rng(34)
        live = LiveCollection(
            rng.random((10, DIMENSION)), labels=[f"c{i % 2}" for i in range(10)]
        )
        engine = RetrievalEngine(live)
        with RetrievalServer(engine, ServerConfig()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                (new_id,) = client.insert(rng.random((1, DIMENSION)), labels=["fresh"])
                assert live.label(int(new_id)) == "fresh"
                with pytest.raises(ValidationError):
                    client.insert(rng.random((1, DIMENSION)))  # label required

    def test_server_stats_carry_the_corpus_section(self):
        live = _fresh_live()
        engine = RetrievalEngine(live)
        with RetrievalServer(engine, ServerConfig()) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                client.insert(np.random.default_rng(35).random((2, DIMENSION)))
                snapshot = client.stats()
                assert snapshot["corpus"] == live.corpus_stats()
                assert snapshot["engine"]["delta_hits"] == 0

    def test_autocompact_requires_a_live_engine(self):
        engine = RetrievalEngine(
            FeatureCollection(np.random.default_rng(36).random((8, DIMENSION)))
        )
        with pytest.raises(ValidationError):
            RetrievalServer(engine, ServerConfig(autocompact_delta_rows=64))

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_autocompact_folds_in_the_background(self, front_end, wait_until):
        live = _fresh_live()
        engine = RetrievalEngine(live)
        config = ServerConfig(autocompact_delta_rows=8)
        with FRONT_ENDS[front_end](engine, config) as server:
            host, port = server.address
            with ServingClient(host, port) as client:
                client.insert(np.random.default_rng(37).random((10, DIMENSION)))
                wait_until(lambda: client.corpus_stats()["compactions"] >= 1, timeout=5.0)
                assert client.corpus_stats()["delta_rows"] == 0


class TestWritesAgainstCoalescedSessions:
    """The roadmap stress bar: writers vs mid-flight coalesced feedback sessions."""

    N_LOOP_CLIENTS = 4
    N_WRITERS = 2
    WRITE_ROUNDS = 12

    def test_served_sessions_stay_byte_identical_under_writes(self, tiny_collection):
        dimension = tiny_collection.dimension
        labels = list(tiny_collection.labels)
        live = LiveCollection(tiny_collection.vectors, labels=labels)
        engine = RetrievalEngine(live)

        # The frozen reference: the original corpus, untouched by writes.
        # Written rows are offset far outside the histogram simplex, so no
        # non-negative weighting ever ranks one above a corpus row — and a
        # distance tie (all-zero weights) still breaks toward the smaller
        # (original) id.  Deletes only ever target previously written rows.
        reference_engine = RetrievalEngine(
            FeatureCollection(tiny_collection.vectors, labels=labels),
            default_distance=engine.default_distance,
        )
        user = SimulatedUser(tiny_collection)
        loop_indices = [7, 23, 41, 66]
        references = [
            FeedbackEngine(reference_engine, max_iterations=6).run_loop(
                tiny_collection.vectors[index], 8, user.judge_for_query(index)
            )
            for index in loop_indices
        ]

        config = ServerConfig(max_batch=8, max_iterations=6)
        errors: list = []
        loops: dict = {}
        with RetrievalServer(engine, config) as server:
            host, port = server.address
            barrier = threading.Barrier(self.N_LOOP_CLIENTS + self.N_WRITERS)

            def loop_client(slot):
                try:
                    index = loop_indices[slot]
                    with ServingClient(host, port) as client:
                        barrier.wait()
                        loops[slot] = client.run_feedback_session(
                            tiny_collection.vectors[index],
                            8,
                            user.judge_for_query(index),
                        )
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            def writer(slot):
                try:
                    far = 50.0 + 10.0 * slot
                    written: list = []
                    with ServingClient(host, port) as client:
                        barrier.wait()
                        for round_id in range(self.WRITE_ROUNDS):
                            rows = far + np.random.default_rng(
                                1000 * slot + round_id
                            ).random((2, dimension))
                            ids = client.insert(rows, labels=["far", "far"])
                            written.extend(int(i) for i in ids)
                            if round_id % 3 == 2:
                                client.delete([written.pop(0)])
                            if round_id % 5 == 4:
                                client.compact()
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=loop_client, args=(slot,))
                for slot in range(self.N_LOOP_CLIENTS)
            ] + [
                threading.Thread(target=writer, args=(slot,))
                for slot in range(self.N_WRITERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]

            # Every session ran against a corpus mutating under it — and not
            # one bit differs from the frozen-corpus reference.
            for slot, reference in enumerate(references):
                assert loops[slot].identical_to(reference)

            # The writes really happened and really interleaved.
            stats = server.stats()
            corpus = stats["corpus"]
            inserted = self.N_WRITERS * self.WRITE_ROUNDS * 2
            deleted = self.N_WRITERS * (self.WRITE_ROUNDS // 3)
            assert corpus["total_inserted"] == tiny_collection.size + inserted
            assert corpus["size"] == tiny_collection.size + inserted - deleted
            assert corpus["compactions"] >= 1
            assert stats["engine"]["delta_hits"] > 0
