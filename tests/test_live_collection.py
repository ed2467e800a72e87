"""The live-corpus contract: mutation without losing a bit of exactness.

A :class:`~repro.database.segments.LiveCollection` composes an immutable
base segment with append-only deltas and tombstones.  The tier-1
contract tested here: **any** interleaving of inserts, deletes, queries and
compactions is byte-identical — indices *and* distance bits — to freezing
the alive rows into a plain :class:`FeatureCollection` at that snapshot and
querying it, with frozen positions mapped through the snapshot's id order.
Cross-segment distance ties (duplicate vectors split between base and
delta) must break by ascending stable id, exactly like the sharded merge.
"""

import contextlib
import threading

import numpy as np
import pytest

from repro.database import knn, segments
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.knn import DEFAULT_BLOCK_ROWS
from repro.database.segments import Compactor, LiveCollection
from repro.database.sharding import ShardedEngine
from repro.distances.minkowski import MinkowskiDistance
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.utils.validation import ValidationError

DIMENSION = 6


def _base_vectors(n=40, seed=501):
    rng = np.random.default_rng(seed)
    vectors = rng.random((n, DIMENSION))
    if n > 30:
        # Duplicates inside the base: ties the base engine must already
        # break by ascending position (== ascending id).
        vectors[7] = vectors[30]
    return vectors


def _alive_ids(live):
    """Stable ids of the alive rows, ascending — the frozen rebuild's order."""
    ids = []
    for segment in live.snapshot().segments:
        unit_ids = segment.unit.ids
        if segment.alive is None:
            ids.append(np.asarray(unit_ids))
        else:
            ids.append(np.asarray(unit_ids)[segment.alive])
    return np.sort(np.concatenate(ids))


def _frozen_rebuild(live):
    """The alive rows frozen into a plain collection, plus the id map."""
    ids = _alive_ids(live)
    vectors = np.ascontiguousarray(live.vectors[ids])
    labels = None if live.labels is None else [live.labels[int(i)] for i in ids]
    return FeatureCollection(vectors, labels=labels), ids


def _assert_identical(live_results, frozen_results, ids):
    assert len(live_results) == len(frozen_results)
    for live_result, frozen_result in zip(live_results, frozen_results):
        np.testing.assert_array_equal(
            live_result.indices(), ids[frozen_result.indices()]
        )
        assert live_result.distances().tobytes() == frozen_result.distances().tobytes()


def _queries(live, seed=77, n=8):
    rng = np.random.default_rng(seed)
    points = rng.random((n, DIMENSION))
    points[0] = live.vector(7)  # lands exactly on the duplicate pair
    return points


class TestLiveCollectionShape:
    def test_starts_as_one_base_segment(self):
        live = LiveCollection(_base_vectors())
        stats = live.corpus_stats()
        assert stats == {
            "live": True,
            "size": 40,
            "total_inserted": 40,
            "segments": 1,
            "delta_segments": 0,
            "delta_rows": 0,
            "tombstones": 0,
            "compactions": 0,
            "epoch": 0,
        }
        assert live.size == len(live) == 40
        assert live.dimension == DIMENSION

    def test_insert_returns_monotonic_stable_ids(self):
        live = LiveCollection(_base_vectors())
        rng = np.random.default_rng(1)
        first = live.insert(rng.random((3, DIMENSION)))
        second = live.insert(rng.random(DIMENSION))  # 1-D row accepted
        np.testing.assert_array_equal(first, [40, 41, 42])
        np.testing.assert_array_equal(second, [43])
        assert live.size == 44
        assert live.corpus_stats()["delta_rows"] == 4

    def test_vectors_is_the_id_indexed_archive(self):
        live = LiveCollection(_base_vectors())
        row = np.linspace(0.0, 1.0, DIMENSION)
        (new_id,) = live.insert(row)
        live.delete([3])
        # The archive keeps dead rows: id-based gathers stay valid.
        assert live.vectors.shape[0] == 41
        np.testing.assert_array_equal(live.vectors[new_id], row)
        np.testing.assert_array_equal(live.vector(3), _base_vectors()[3])
        with pytest.raises(ValueError):
            live.vectors[0, 0] = 9.0  # read-only view

    def test_labelled_collection_round_trips_labels(self):
        vectors = _base_vectors(10)
        labels = [f"c{i % 3}" for i in range(10)]
        live = LiveCollection(vectors, labels=labels)
        live.insert(np.random.default_rng(2).random((2, DIMENSION)), labels=["x", "c0"])
        assert live.labels[-2:] == ("x", "c0")
        assert live.label(10) == "x"
        assert live.labels_of([0, 11]) == ["c0", "c0"]
        live.delete([0])
        # indices_with_label reports alive ids only; labels stay id-indexed.
        assert 0 not in live.indices_with_label("c0").tolist()
        assert 11 in live.indices_with_label("c0").tolist()
        assert live.labels_array[0] == "c0"

    def test_insert_label_contract(self):
        labelled = LiveCollection(_base_vectors(5), labels=list("abcde"))
        with pytest.raises(ValidationError):
            labelled.insert(np.ones(DIMENSION))
        with pytest.raises(ValidationError):
            labelled.insert(np.ones((2, DIMENSION)), labels=["only-one"])
        unlabelled = LiveCollection(_base_vectors(5))
        with pytest.raises(ValidationError):
            unlabelled.insert(np.ones(DIMENSION), labels=["nope"])

    def test_delete_contract(self):
        live = LiveCollection(_base_vectors(3))
        assert live.delete([]) == 0
        assert live.delete([0, 0, 1]) == 2  # duplicates collapse
        with pytest.raises(ValidationError):
            live.delete([0])  # already dead
        with pytest.raises(ValidationError):
            live.delete([99])  # out of range
        with pytest.raises(ValidationError):
            live.delete([2])  # the last alive vector
        assert live.size == 1

    def test_dimension_mismatch_rejected(self):
        live = LiveCollection(_base_vectors())
        with pytest.raises(ValidationError):
            live.insert(np.ones(DIMENSION + 1))


def _inserts_only(live, rng):
    live.insert(rng.random((7, DIMENSION)))
    # A delta row duplicating a base row: the cross-segment tie must
    # break toward the smaller (base) id.
    live.insert(live.vector(7)[None, :])
    live.insert(rng.random((3, DIMENSION)))


def _deletes_only(live, rng):
    # Tombstones in the base alone, one of them on the duplicate pair.
    live.delete([2, 30, int(rng.integers(31, 40))])


def _mixed(live, rng):
    live.insert(rng.random((7, DIMENSION)))
    live.insert(live.vector(7)[None, :])
    live.delete([2, 30, 44])
    live.insert(rng.random((3, DIMENSION)))


HISTORIES = {
    "inserts-only": _inserts_only,
    "deletes-only": _deletes_only,
    "mixed": _mixed,
}


@pytest.mark.parametrize("history", sorted(HISTORIES))
@pytest.mark.parametrize("precision", ["exact", "fast"])
class TestByteIdentityToFrozenRebuild:
    """Each history leaves a different segment layout: deltas, tombstones, both."""

    @pytest.fixture
    def live(self, history):
        live = LiveCollection(_base_vectors())
        HISTORIES[history](live, np.random.default_rng(9))
        return live

    def test_search_batch(self, live, precision):
        engine = RetrievalEngine(live)
        frozen, ids = _frozen_rebuild(live)
        reference = RetrievalEngine(frozen, default_distance=engine.default_distance)
        queries = _queries(live)
        for k in (1, 5, live.size, live.size + 10):
            _assert_identical(
                engine.search_batch(queries, k, precision=precision),
                reference.search_batch(queries, k, precision=precision),
                ids,
            )

    def test_search_batch_under_a_fallback_distance(self, live, precision):
        engine = RetrievalEngine(live)
        frozen, ids = _frozen_rebuild(live)
        reference = RetrievalEngine(frozen)
        distance = MinkowskiDistance(DIMENSION, order=1.0)
        queries = _queries(live)
        _assert_identical(
            engine.search_batch(queries, 9, distance, precision=precision),
            reference.search_batch(queries, 9, distance, precision=precision),
            ids,
        )

    def test_single_search_matches_batch(self, live, precision):
        del precision
        engine = RetrievalEngine(live)
        queries = _queries(live)
        batched = engine.search_batch(queries, 6)
        for point, expected in zip(queries, batched):
            single = engine.search(point, 6)
            np.testing.assert_array_equal(single.indices(), expected.indices())
            assert single.distances().tobytes() == expected.distances().tobytes()

    def test_search_batch_with_parameters(self, live, precision):
        engine = RetrievalEngine(live)
        frozen, ids = _frozen_rebuild(live)
        reference = RetrievalEngine(frozen)
        queries = _queries(live)
        rng = np.random.default_rng(13)
        deltas = rng.normal(scale=0.05, size=queries.shape)
        weights = rng.random(queries.shape) + 0.25
        _assert_identical(
            engine.search_batch_with_parameters(queries, 7, deltas, weights, precision),
            reference.search_batch_with_parameters(queries, 7, deltas, weights, precision),
            ids,
        )

    def test_identity_survives_a_compaction(self, live, precision):
        engine = RetrievalEngine(live)
        queries = _queries(live)
        before = engine.search_batch(queries, 8, precision=precision)
        outcome = live.compact()
        assert outcome["compacted"] is True
        after = engine.search_batch(queries, 8, precision=precision)
        # Stable ids: the exact same indices and bits, before and after.
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old.indices(), new.indices())
            assert old.distances().tobytes() == new.distances().tobytes()
        frozen, ids = _frozen_rebuild(live)
        reference = RetrievalEngine(frozen, default_distance=engine.default_distance)
        _assert_identical(
            after, reference.search_batch(queries, 8, precision=precision), ids
        )


@contextlib.contextmanager
def _parked_fold(live, monkeypatch):
    """``live.compact()`` on a thread parked in its off-lock rebuild until the block exits."""
    building, release = threading.Event(), threading.Event()
    warm_up = segments._warm

    def parked_warm_up(*args):
        building.set()
        assert release.wait(timeout=30.0)
        return warm_up(*args)

    monkeypatch.setattr(segments, "_warm", parked_warm_up)
    fold = threading.Thread(target=live.compact)
    fold.start()
    try:
        assert building.wait(timeout=30.0)
        yield
    finally:
        release.set()
        fold.join(timeout=30.0)
    assert not fold.is_alive()


def _assert_reads_match(live, k_values, precision, distance=None):
    """Every ``k`` of ``k_values`` reads byte-identically to the frozen rebuild."""
    engine = RetrievalEngine(live)
    frozen, ids = _frozen_rebuild(live)
    reference = RetrievalEngine(frozen, default_distance=engine.default_distance)
    queries = _queries(live)
    for k in k_values:
        _assert_identical(
            engine.search_batch(queries, k, distance, precision=precision),
            reference.search_batch(queries, k, distance, precision=precision),
            ids,
        )


class _Unbounded(MinkowskiDistance):
    """A family without a ``term_bound``: the scan sizes its margin from the values it sees."""

    def term_bound(self, reach):
        return None


@pytest.mark.parametrize("precision", ["exact", "fast"])
class TestOneScanEdges:
    """The one-scan read where its pool and cut are easiest to get wrong."""

    def test_a_first_block_with_fewer_than_k_alive_rows(self, precision):
        """The cut stays infinite past the first block: tombstones must stay out by mask."""
        rng = np.random.default_rng(41)
        live = LiveCollection(rng.random((DEFAULT_BLOCK_ROWS + 40, DIMENSION)))
        live.delete(np.arange(3, DEFAULT_BLOCK_ROWS))
        live.insert(rng.random((5, DIMENSION)))
        assert live.snapshot().segments[0].alive[:DEFAULT_BLOCK_ROWS].sum() == 3
        _assert_reads_match(live, (1, 5, 9), precision)

    def test_a_segment_whose_every_row_is_dead(self, precision):
        rng = np.random.default_rng(42)
        dead_delta = LiveCollection(_base_vectors())
        dead_delta.delete(dead_delta.insert(rng.random((6, DIMENSION))))
        _assert_reads_match(dead_delta, (1, 5), precision)
        dead_base = LiveCollection(_base_vectors())
        dead_base.insert(rng.random((9, DIMENSION)))
        dead_base.delete(np.arange(40))
        assert dead_base.snapshot().segments[0].alive.sum() == 0
        _assert_reads_match(dead_base, (1, 5, 9), precision)

    def test_k_above_the_alive_count(self, precision):
        live = LiveCollection(_base_vectors())
        _mixed(live, np.random.default_rng(43))
        live.delete([0, 1, 45])
        resident = sum(len(segment.unit) for segment in live.snapshot().segments)
        assert live.size + 3 < resident
        _assert_reads_match(live, (live.size - 1, live.size, live.size + 3, resident + 1), precision)

    def test_per_row_parameters(self, precision):
        live = LiveCollection(_base_vectors())
        _mixed(live, np.random.default_rng(44))
        engine = RetrievalEngine(live)
        frozen, ids = _frozen_rebuild(live)
        reference = RetrievalEngine(frozen)
        queries = _queries(live)
        rng = np.random.default_rng(45)
        deltas = rng.normal(scale=0.05, size=queries.shape)
        weights = rng.random(queries.shape) + 0.25
        for k in (1, 6, live.size + 2):
            _assert_identical(
                engine.search_batch_with_parameters(queries, k, deltas, weights, precision),
                reference.search_batch_with_parameters(queries, k, deltas, weights, precision),
                ids,
            )

    def test_a_family_without_a_term_bound(self, precision):
        live = LiveCollection(_base_vectors())
        _mixed(live, np.random.default_rng(46))
        _assert_reads_match(live, (1, 7, live.size), precision, _Unbounded(DIMENSION, order=1.0))

    def test_a_delta_cached_across_a_compaction(self, precision, monkeypatch):
        """A delta read on the old base is re-centred on the new base's mean.

        The base sits far from everything that survives it, so the fold
        moves the mean by about fifty per coordinate: a delta workspace
        still centred on the old mean would score its rows wrongly.
        """
        rng = np.random.default_rng(47)
        live = LiveCollection(np.vstack([rng.random((30, DIMENSION)) + 50.0, _base_vectors(12)]))
        live.delete(np.arange(30))
        engine = RetrievalEngine(live)
        with _parked_fold(live, monkeypatch):
            live.insert(rng.random((6, DIMENSION)))
            engine.search_batch(_queries(live), 5, precision=precision)
            delta = live.snapshot().segments[-1].unit
            stale = delta.centred_on(live.snapshot().segments[0].unit.collection.workspace)
        base = live.snapshot().segments[0].unit.collection.workspace
        assert live.epoch == 1 and live.snapshot().segments[-1].unit is delta
        assert np.abs(stale.mean - base.mean).min() > 10.0
        _assert_reads_match(live, (1, 5, 9), precision)
        assert delta.centred_on(base).mean is base.mean


class TestOneScanPerRead:
    def test_a_live_read_builds_one_streamed_scan(self, monkeypatch):
        """However many delta segments ride on the base, a read is one scan."""
        built = []

        class CountedScan(knn._StreamedScan):
            def __init__(self, *args):
                built.append(args[0].n_rows)
                super().__init__(*args)

        monkeypatch.setattr(knn, "_StreamedScan", CountedScan)
        live = LiveCollection(_base_vectors())
        engine = RetrievalEngine(live)
        live.insert(np.random.default_rng(48).random((4, DIMENSION)))
        live.delete([3, 41])
        assert live.snapshot().n_delta_segments == 1
        engine.search_batch(_queries(live), 5)
        assert built == [8]
        with _parked_fold(live, monkeypatch):
            live.insert(np.random.default_rng(49).random((2, DIMENSION)))
            assert live.snapshot().n_delta_segments == 2
            engine.search_batch(_queries(live, n=3), 5)
            assert built == [8, 3]


class TestWritesNeverRebuild:
    N_WRITES = 24

    def test_single_row_writes_leave_the_base_untouched(self):
        """O(delta), no rebuild: writes never replace the base.

        After many single-row inserts and deletes — with queries in between,
        so every intermediate snapshot is materialised and searched — the
        base segment and its kernel workspace are the very objects the
        collection started with, no compaction ran, and the inserted rows
        sit in exactly one delta segment.
        """
        live = LiveCollection(_base_vectors())
        engine = RetrievalEngine(live)
        base = live.snapshot().segments[0].unit
        workspace = base.collection.workspace

        rng = np.random.default_rng(8)
        inserted = []
        for write in range(self.N_WRITES):
            (new_id,) = live.insert(rng.random(DIMENSION))
            inserted.append(int(new_id))
            live.delete([write])
            engine.search_batch(_queries(live, seed=write, n=2), 5)

        snapshot = live.snapshot()
        assert snapshot.segments[0].unit is base
        assert snapshot.segments[0].unit.collection.workspace is workspace
        assert snapshot.epoch == live.epoch == 0
        assert live.n_compactions == live.corpus_stats()["compactions"] == 0
        assert snapshot.n_delta_segments == 1
        np.testing.assert_array_equal(snapshot.segments[1].unit.ids, inserted)
        assert live.corpus_stats()["tombstones"] == self.N_WRITES
        assert live.size == 40

    @staticmethod
    def _base_objects(live):
        unit = live.snapshot().segments[0].unit
        return unit, unit.collection.workspace

    @staticmethod
    def _assert_base_is(live, objects):
        unit, workspace = objects
        assert live.snapshot().segments[0].unit is unit
        assert unit.collection.workspace is workspace

    def test_mixed_traffic_is_exact_and_never_rebuilds(self):
        """Nine reads to one write, every read checked against a frozen rebuild.

        The reads stay byte-identical to freezing the alive rows at that
        instant, and the writes between them still touch nothing but the
        delta segment and the tombstones.
        """
        live = LiveCollection(_base_vectors())
        engine = RetrievalEngine(live)
        base = self._base_objects(live)
        rng = np.random.default_rng(21)
        for step in range(40):
            if step % 10 == 9:
                live.insert(rng.random((2, DIMENSION)))
                live.delete([step])
                continue
            frozen, ids = _frozen_rebuild(live)
            reference = RetrievalEngine(frozen, default_distance=engine.default_distance)
            queries = _queries(live, seed=step, n=3)
            _assert_identical(
                engine.search_batch(queries, 6), reference.search_batch(queries, 6), ids
            )
        self._assert_base_is(live, base)
        assert live.epoch == 0 and live.n_compactions == 0
        assert live.corpus_stats()["delta_rows"] == 8
        assert live.corpus_stats()["tombstones"] == 4

    def test_compaction_is_the_one_rebuild(self):
        live = LiveCollection(_base_vectors())
        original = self._base_objects(live)
        rng = np.random.default_rng(23)
        live.insert(rng.random((4, DIMENSION)))
        live.delete([3])
        live.compact()
        folded = self._base_objects(live)
        assert all(new is not old for new, old in zip(folded, original))
        assert live.epoch == 1 and live.n_compactions == 1
        for write in range(self.N_WRITES):
            live.insert(rng.random(DIMENSION))
            live.delete([10 + write])
        self._assert_base_is(live, folded)
        assert live.epoch == 1 and live.n_compactions == 1

    def test_compaction_warms_what_the_scan_reads(self):
        """The new base's float32 terms exist before its first query — and nothing else.

        The base scan serves the default distance, so the off-lock rebuild
        builds ``centered32`` and the default weights' point norms; the
        float64 centred copies stay unbuilt.
        """
        live = LiveCollection(_base_vectors())
        rng = np.random.default_rng(24)
        live.insert(rng.random((4, DIMENSION)))
        live.delete([2])
        live.compact()
        collection = live.snapshot().segments[0].unit.collection
        workspace = collection._workspace
        assert workspace is not None and workspace._centered32 is not None
        assert list(workspace._norms) == [live.index_distance.weights.tobytes()]
        assert workspace._centered is None and workspace._centered_squared is None

    def test_reads_and_writes_proceed_while_a_fold_rebuilds(self, monkeypatch):
        """A compaction parked in its O(corpus) phase holds up nobody.

        The fold's off-lock warm-up is blocked on an event; meanwhile
        reads answer byte-identically to a frozen rebuild and writes land,
        all before the fold is let go.  After the swap the racing insert
        sits in the fresh delta and the racing delete is a tombstone of the
        new base.
        """
        building, release = threading.Event(), threading.Event()
        warm_up = segments._warm

        def blocking_warm_up(*args):
            # Only the compaction's off-lock rebuild warms a workspace.
            building.set()
            assert release.wait(timeout=30.0)
            return warm_up(*args)

        monkeypatch.setattr(segments, "_warm", blocking_warm_up)
        live = LiveCollection(_base_vectors())
        engine = RetrievalEngine(live)
        live.insert(np.random.default_rng(24).random((3, DIMENSION)))
        outcomes = []
        fold = threading.Thread(target=lambda: outcomes.append(live.compact()))
        fold.start()
        try:
            assert building.wait(timeout=30.0)
            reads = 0
            for seed in range(3):
                frozen, ids = _frozen_rebuild(live)
                reference = RetrievalEngine(frozen, default_distance=engine.default_distance)
                queries = _queries(live, seed=seed, n=4)
                _assert_identical(
                    engine.search_batch(queries, 5), reference.search_batch(queries, 5), ids
                )
                reads += 1
            (racing_id,) = live.insert(live.vector(7)[None, :])
            live.delete([5])
            frozen, ids = _frozen_rebuild(live)
            reference = RetrievalEngine(frozen, default_distance=engine.default_distance)
            queries = _queries(live, seed=9, n=4)
            racing = engine.search_batch(queries, 5)
            _assert_identical(racing, reference.search_batch(queries, 5), ids)
            reads += 1
            assert fold.is_alive() and live.epoch == 0
        finally:
            release.set()
            fold.join(timeout=30.0)
        assert not fold.is_alive()
        assert reads == 4
        assert outcomes[0]["compacted"] is True and live.epoch == 1
        snapshot = live.snapshot()
        assert snapshot.n_delta_segments == 1
        np.testing.assert_array_equal(snapshot.segments[1].unit.ids, [racing_id])
        assert live.corpus_stats()["tombstones"] == 1
        assert live.size == 40 + 3 + 1 - 1
        # The same answers, bit for bit, across the swap.
        for before, after in zip(racing, engine.search_batch(queries, 5)):
            np.testing.assert_array_equal(before.indices(), after.indices())
            assert before.distances().tobytes() == after.distances().tobytes()


class TestCompaction:
    def test_compact_folds_everything_into_one_segment(self):
        live = LiveCollection(_base_vectors())
        rng = np.random.default_rng(3)
        live.insert(rng.random((5, DIMENSION)))
        live.delete([1, 41])
        outcome = live.compact()
        assert outcome["compacted"] is True
        assert outcome["segments"] == 1
        assert outcome["delta_rows"] == 0
        assert outcome["tombstones"] == 0
        assert outcome["epoch"] == live.epoch == 1
        assert live.n_compactions == 1
        assert live.snapshot().segments[0].unit.collection.size == live.size

    def test_compact_with_nothing_to_fold_is_a_no_op(self):
        live = LiveCollection(_base_vectors())
        outcome = live.compact()
        assert outcome["compacted"] is False
        assert live.epoch == 0 and live.n_compactions == 0

    def test_compact_folds_base_tombstones_alone(self):
        live = LiveCollection(_base_vectors())
        live.delete([0, 5])
        outcome = live.compact()
        assert outcome["compacted"] is True
        assert outcome["tombstones"] == 0
        assert live.size == 38

    def test_ids_survive_any_number_of_compactions(self):
        live = LiveCollection(_base_vectors(), labels=[f"c{i}" for i in range(40)])
        engine = RetrievalEngine(live)
        probe = live.vector(7)
        for round_id in range(3):
            live.insert(
                np.random.default_rng(round_id).random((4, DIMENSION)),
                labels=[f"n{round_id}-{j}" for j in range(4)],
            )
            live.delete([10 + round_id])
            live.compact()
        assert live.epoch == 3
        result = engine.search(probe, 2)
        # Ids 7 and 30 hold the duplicate pair through every fold, and the
        # tie still breaks toward the smaller id.
        np.testing.assert_array_equal(result.indices(), [7, 30])
        assert live.label(7) == "c7"

    def test_snapshot_in_flight_survives_the_swap(self):
        live = LiveCollection(_base_vectors())
        live.insert(np.random.default_rng(4).random((3, DIMENSION)))
        snapshot = live.snapshot()
        queries = _queries(live)
        distance = WeightedEuclideanDistance.default(DIMENSION)
        before = snapshot.search_batch(queries, 5, distance)
        live.compact()
        live.delete([0])
        # The old snapshot still answers — RCU: readers never block or see
        # the swap — and still reflects its own instant (id 0 alive).
        after = snapshot.search_batch(queries, 5, distance)
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old.indices(), new.indices())
            assert old.distances().tobytes() == new.distances().tobytes()

    def test_concurrent_compactions_serialise(self):
        live = LiveCollection(_base_vectors(60))
        live.insert(np.random.default_rng(5).random((30, DIMENSION)))
        outcomes = []
        threads = [
            threading.Thread(target=lambda: outcomes.append(live.compact()))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(1 for outcome in outcomes if outcome["compacted"]) >= 1
        assert live.corpus_stats()["delta_rows"] == 0


class TestCompactor:
    def test_triggers_on_delta_rows(self, wait_until):
        live = LiveCollection(_base_vectors())
        with Compactor(live, min_delta_rows=8, interval=0.005):
            live.insert(np.random.default_rng(6).random((10, DIMENSION)))
            wait_until(lambda: live.n_compactions >= 1, timeout=5.0)
        assert live.corpus_stats()["delta_rows"] == 0

    def test_triggers_on_tombstones(self, wait_until):
        live = LiveCollection(_base_vectors())
        with Compactor(live, min_delta_rows=10_000, max_tombstones=3, interval=0.005):
            live.delete([0, 1, 2])
            wait_until(lambda: live.corpus_stats()["tombstones"] == 0, timeout=5.0)
        assert live.size == 37

    def test_idle_compactor_never_fires(self):
        live = LiveCollection(_base_vectors())
        compactor = Compactor(live, min_delta_rows=100, interval=0.005).start()
        live.insert(np.random.default_rng(7).random((5, DIMENSION)))
        compactor.close()
        assert live.n_compactions == 0
        assert live.epoch == 0

    def test_validation(self):
        live = LiveCollection(_base_vectors())
        with pytest.raises(ValidationError):
            Compactor(live, min_delta_rows=0)
        with pytest.raises(ValidationError):
            Compactor(live, interval=0.0)


class TestEngineOverLiveCollection:
    def test_engine_defaults_to_the_index_distance(self):
        """The engine's default and the compaction warm-up's are the same weights."""
        live = LiveCollection(_base_vectors())
        engine = RetrievalEngine(live)
        assert engine.is_live
        assert engine.default_distance.is_default() and live.index_distance.is_default()
        engine.search_batch(_queries(live), 5)
        stats = engine.stats()
        assert stats["index_hits"] == 0 and stats["scan_fallbacks"] == 8
        assert stats["delta_hits"] == 0 and stats["compactions"] == 0

    def test_delta_hits_count_resident_deltas(self):
        live = LiveCollection(_base_vectors())
        engine = RetrievalEngine(live)
        live.insert(np.random.default_rng(8).random((2, DIMENSION)))
        engine.search_batch(_queries(live), 5)
        assert engine.stats()["delta_hits"] == 8
        live.compact()
        engine.search_batch(_queries(live), 5)
        stats = engine.stats()
        assert stats["delta_hits"] == 8 and stats["compactions"] == 1  # none since the compaction

    def test_describe_reports_live(self):
        live = LiveCollection(_base_vectors())
        description = RetrievalEngine(live).describe()
        assert description["live"] is True
        assert "metric_index" not in description

    def test_frozen_stats_shape_is_unchanged(self):
        engine = RetrievalEngine(FeatureCollection(_base_vectors()))
        assert "delta_hits" not in engine.stats()
        assert "compactions" not in engine.stats()


class TestShardedEngineOverLiveCollection:
    def test_guard_rails(self):
        """A live snapshot is already one scan over its segments, so the
        shard layer refuses it whatever the layout asked for."""
        live = LiveCollection(_base_vectors())
        for options in ({}, {"n_shards": 4}, {"backend": "process"}, {"n_workers": 2}):
            with pytest.raises(ValidationError, match="RetrievalEngine"):
                ShardedEngine(live, **options)


class TestFeedbackOverLiveCollection:
    def test_feedback_loop_matches_the_frozen_loop(self):
        """A full relevance-feedback loop over a live collection (grown by
        inserts) reproduces the loop over the frozen equivalent bit for bit
        — the judge's ``labels[indices]`` and the engine's
        ``vectors[indices]`` gathers are id-indexed either way."""
        rng = np.random.default_rng(21)
        n = 50
        vectors = rng.random((n, DIMENSION))
        labels = [f"c{i % 4}" for i in range(n)]
        live = LiveCollection(vectors[:30], labels=labels[:30])
        live.insert(vectors[30:], labels=labels[30:])

        frozen = FeatureCollection(vectors, labels=labels)
        live_engine = RetrievalEngine(live)
        frozen_engine = RetrievalEngine(frozen, default_distance=live_engine.default_distance)

        queries = rng.random((4, DIMENSION))
        for point in queries:
            live_loop = FeedbackEngine(live_engine, max_iterations=5)
            frozen_loop = FeedbackEngine(frozen_engine, max_iterations=5)
            live_judge = SimulatedUser(live).judge_for_query(3)
            frozen_judge = SimulatedUser(frozen).judge_for_query(3)
            live_result = live_loop.run_loop(point, 8, live_judge)
            frozen_result = frozen_loop.run_loop(point, 8, frozen_judge)
            assert live_result.identical_to(frozen_result)
