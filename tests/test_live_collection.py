"""The live-corpus contract: mutation without losing a bit of exactness.

A :class:`~repro.database.segments.LiveCollection` composes an immutable
indexed base segment with append-only deltas and tombstones.  The tier-1
contract tested here: **any** interleaving of inserts, deletes, queries and
compactions is byte-identical — indices *and* distance bits — to freezing
the alive rows into a plain :class:`FeatureCollection` at that snapshot and
querying it, with frozen positions mapped through the snapshot's id order.
Cross-segment distance ties (duplicate vectors split between base and
delta) must break by ascending stable id, exactly like the sharded merge.
"""

import threading

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.mtree import MTreeIndex
from repro.database.segments import Compactor, LiveCollection
from repro.database.sharding import ShardedEngine
from repro.database.vptree import VPTreeIndex
from repro.distances.minkowski import cityblock
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.utils.validation import ValidationError

DIMENSION = 6


def _vptree_factory(collection, distance):
    return VPTreeIndex(collection, distance, leaf_size=4, seed=11)


def _mtree_factory(collection, distance):
    return MTreeIndex(collection, distance, node_capacity=4, seed=7)


INDEX_FACTORIES = {
    "none": None,
    "vptree": _vptree_factory,
    "mtree": _mtree_factory,
}


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
        with pytest.raises(ValidationError):
            LiveCollection(_base_vectors(), index_distance=WeightedEuclideanDistance.default(3))


@pytest.mark.parametrize("index_kind", sorted(INDEX_FACTORIES))
@pytest.mark.parametrize("precision", ["exact", "fast"])
class TestByteIdentityToFrozenRebuild:
    def _mutated(self, index_kind):
        live = LiveCollection(_base_vectors(), index_factory=INDEX_FACTORIES[index_kind])
        rng = np.random.default_rng(9)
        live.insert(rng.random((7, DIMENSION)))
        # A delta row duplicating a base row: the cross-segment tie must
        # break toward the smaller (base) id.
        live.insert(live.vector(7)[None, :])
        live.delete([2, 30, 44])
        live.insert(rng.random((3, DIMENSION)))
        return live

    def test_search_batch(self, index_kind, precision):
        live = self._mutated(index_kind)
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

    def test_search_batch_under_a_fallback_distance(self, index_kind, precision):
        live = self._mutated(index_kind)
        engine = RetrievalEngine(live)
        frozen, ids = _frozen_rebuild(live)
        reference = RetrievalEngine(frozen)
        distance = cityblock(DIMENSION)
        queries = _queries(live)
        _assert_identical(
            engine.search_batch(queries, 9, distance, precision=precision),
            reference.search_batch(queries, 9, distance, precision=precision),
            ids,
        )

    def test_single_search_matches_batch(self, index_kind, precision):
        del precision
        live = self._mutated(index_kind)
        engine = RetrievalEngine(live)
        queries = _queries(live)
        batched = engine.search_batch(queries, 6)
        for point, expected in zip(queries, batched):
            single = engine.search(point, 6)
            np.testing.assert_array_equal(single.indices(), expected.indices())
            assert single.distances().tobytes() == expected.distances().tobytes()

    def test_search_batch_with_parameters(self, index_kind, precision):
        live = self._mutated(index_kind)
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

    def test_identity_survives_a_compaction(self, index_kind, precision):
        live = self._mutated(index_kind)
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


class TestWritesNeverRebuild:
    N_WRITES = 24

    def test_single_row_writes_leave_the_base_untouched(self):
        """O(delta), no rebuild: writes never replace the indexed base.

        After many single-row inserts and deletes — with queries in between,
        so every intermediate snapshot is materialised and searched — the
        base segment, its metric index and its kernel workspace are the very
        objects the collection started with, no compaction ran, and the
        inserted rows sit in exactly one delta segment.
        """
        live = LiveCollection(_base_vectors(), index_factory=_vptree_factory)
        engine = RetrievalEngine(live)
        base = live.snapshot().segments[0].unit
        base_index = live.base_index
        workspace = base.collection.workspace
        assert isinstance(base_index, VPTreeIndex)

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
        assert live.base_index is base_index
        assert snapshot.epoch == live.epoch == 0
        assert live.n_compactions == live.corpus_stats()["compactions"] == 0
        assert snapshot.n_delta_segments == 1
        np.testing.assert_array_equal(snapshot.segments[1].unit.ids, inserted)
        assert snapshot.n_tombstones == self.N_WRITES
        assert live.size == 40

    @staticmethod
    def _base_objects(live):
        unit = live.snapshot().segments[0].unit
        return unit, live.base_index, unit.collection.workspace

    @staticmethod
    def _assert_base_is(live, objects):
        unit, index, workspace = objects
        assert live.snapshot().segments[0].unit is unit
        assert live.base_index is index
        assert unit.collection.workspace is workspace

    @pytest.mark.parametrize("index_kind", sorted(INDEX_FACTORIES))
    def test_mixed_traffic_is_exact_and_never_rebuilds(self, index_kind):
        """Nine reads to one write, every read checked against a frozen rebuild.

        Whatever the base index, the reads stay byte-identical to freezing
        the alive rows at that instant, and the writes between them still
        touch nothing but the delta segment and the tombstones.
        """
        live = LiveCollection(_base_vectors(), index_factory=INDEX_FACTORIES[index_kind])
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

    def test_sharded_engine_writes_leave_the_base_untouched(self):
        live = LiveCollection(_base_vectors(), index_factory=_vptree_factory)
        base = self._base_objects(live)
        rng = np.random.default_rng(22)
        with ShardedEngine(live, n_workers=2) as sharded:
            for write in range(self.N_WRITES):
                live.insert(rng.random(DIMENSION))
                live.delete([write])
                sharded.search_batch(_queries(live, seed=write, n=2), 5)
            stats = sharded.stats()
            # The fan-out covers the base and the one delta segment.
            assert sharded.n_shards == stats["shard_count"] == 2
        self._assert_base_is(live, base)
        assert stats["compactions"] == 0
        assert stats["n_searches"] == 2 * self.N_WRITES
        assert live.epoch == 0

    def test_compaction_is_the_one_rebuild(self):
        live = LiveCollection(_base_vectors(), index_factory=_vptree_factory)
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

    def test_reads_and_writes_proceed_while_a_fold_rebuilds(self):
        """A compaction parked in its O(corpus) phase holds up nobody.

        The fold's index build is blocked on an event; meanwhile reads
        answer byte-identically to a frozen rebuild and writes land, all
        before the fold is let go.  After the swap the racing insert sits in
        the fresh delta and the racing delete is a tombstone of the new base.
        """
        building, release = threading.Event(), threading.Event()
        armed = []

        def blocking_factory(collection, distance):
            if armed:
                building.set()
                assert release.wait(timeout=30.0)
            return _vptree_factory(collection, distance)

        live = LiveCollection(_base_vectors(), index_factory=blocking_factory)
        engine = RetrievalEngine(live)
        live.insert(np.random.default_rng(24).random((3, DIMENSION)))
        armed.append(True)
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
        assert snapshot.n_tombstones == 1
        assert live.size == 40 + 3 + 1 - 1
        # The same answers, bit for bit, across the swap.
        for before, after in zip(racing, engine.search_batch(queries, 5)):
            np.testing.assert_array_equal(before.indices(), after.indices())
            assert before.distances().tobytes() == after.distances().tobytes()


class TestCompaction:
    def test_compact_folds_everything_into_one_segment(self):
        live = LiveCollection(_base_vectors(), index_factory=_vptree_factory)
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
        # The base index was rebuilt over the folded corpus.
        assert isinstance(live.base_index, VPTreeIndex)
        assert live.base_index.collection.size == live.size

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
        with Compactor(live, min_delta_rows=8, interval=0.005) as compactor:
            live.insert(np.random.default_rng(6).random((10, DIMENSION)))
            wait_until(lambda: live.n_compactions >= 1, timeout=5.0)
            assert compactor.n_runs >= 1
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
        assert compactor.n_runs == 0
        assert live.epoch == 0

    def test_validation(self):
        live = LiveCollection(_base_vectors())
        with pytest.raises(ValidationError):
            Compactor(live, min_delta_rows=0)
        with pytest.raises(ValidationError):
            Compactor(live, interval=0.0)


class TestEngineOverLiveCollection:
    def test_engine_defaults_to_the_index_distance(self):
        live = LiveCollection(_base_vectors(), index_factory=_vptree_factory)
        engine = RetrievalEngine(live)
        assert engine.is_live
        assert engine.default_distance is live.index_distance
        engine.search_batch(_queries(live), 5)
        stats = engine.stats()
        assert stats["index_hits"] == 8 and stats["scan_fallbacks"] == 0
        assert stats["delta_hits"] == 0 and stats["compactions"] == 0

    def test_delta_hits_count_resident_deltas(self):
        live = LiveCollection(_base_vectors(), index_factory=_vptree_factory)
        engine = RetrievalEngine(live)
        live.insert(np.random.default_rng(8).random((2, DIMENSION)))
        engine.search_batch(_queries(live), 5)
        assert engine.stats()["delta_hits"] == 8
        live.compact()
        engine.reset_counters()
        engine.search_batch(_queries(live), 5)
        stats = engine.stats()
        assert stats["delta_hits"] == 0 and stats["compactions"] == 1

    def test_engine_level_metric_index_rejected(self):
        live = LiveCollection(_base_vectors())
        frozen = FeatureCollection(_base_vectors())
        with pytest.raises(ValidationError):
            RetrievalEngine(live, metric_index=_vptree_factory(
                frozen, WeightedEuclideanDistance.default(DIMENSION)
            ))

    def test_describe_reports_live(self):
        live = LiveCollection(_base_vectors(), index_factory=_mtree_factory)
        description = RetrievalEngine(live).describe()
        assert description["live"] is True
        assert description["metric_index"] == "MTreeIndex"

    def test_frozen_stats_shape_is_unchanged(self):
        engine = RetrievalEngine(FeatureCollection(_base_vectors()))
        assert "delta_hits" not in engine.stats()
        assert "compactions" not in engine.stats()


class TestShardedEngineOverLiveCollection:
    def _mutated(self):
        live = LiveCollection(_base_vectors(), index_factory=_vptree_factory)
        rng = np.random.default_rng(10)
        live.insert(rng.random((6, DIMENSION)))
        live.insert(live.vector(7)[None, :])
        live.delete([4, 42])
        return live

    def test_byte_identical_to_the_unsharded_engine(self):
        live = self._mutated()
        sharded = ShardedEngine(live, n_workers=3)
        try:
            reference = RetrievalEngine(live)
            queries = _queries(live)
            for k in (1, 6, live.size + 5):
                _assert_identical(
                    sharded.search_batch(queries, k),
                    reference.search_batch(queries, k),
                    np.arange(live.vectors.shape[0], dtype=np.intp),
                )
            rng = np.random.default_rng(14)
            deltas = rng.normal(scale=0.05, size=queries.shape)
            weights = rng.random(queries.shape) + 0.25
            _assert_identical(
                sharded.search_batch_with_parameters(queries, 6, deltas, weights),
                reference.search_batch_with_parameters(queries, 6, deltas, weights),
                np.arange(live.vectors.shape[0], dtype=np.intp),
            )
            single = sharded.search(queries[0], 5)
            expected = reference.search(queries[0], 5)
            np.testing.assert_array_equal(single.indices(), expected.indices())
            assert single.distances().tobytes() == expected.distances().tobytes()
        finally:
            sharded.close()

    def test_stats_and_shape(self):
        live = self._mutated()
        with ShardedEngine(live, n_workers=2) as sharded:
            assert sharded.is_live
            assert sharded.collection is live
            assert sharded.sharded_collection is None
            assert sharded.n_shards == live.snapshot().n_segments
            sharded.search_batch(_queries(live), 5)
            stats = sharded.stats()
            assert stats["index_hits"] == 8
            assert stats["delta_hits"] == 8
            assert stats["per_shard"] == ()
            assert sharded.describe()["live"] is True

    def test_guard_rails(self):
        live = LiveCollection(_base_vectors())
        with pytest.raises(ValidationError):
            ShardedEngine(live, n_shards=4)
        with pytest.raises(ValidationError):
            ShardedEngine(live, backend="process")
        with pytest.raises(ValidationError):
            ShardedEngine(live, index_factory=_vptree_factory)


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
