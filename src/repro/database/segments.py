"""Segment-composed live collections: mutation without rebuild-on-write.

Everything below this module assumes a corpus frozen at construction — a
:class:`~repro.database.collection.FeatureCollection` is immutable, its
:class:`~repro.database.collection.CorpusWorkspace` and any metric index are
built once, and the only way to add or remove a vector is a full O(corpus)
rebuild on the hot path.  This module adopts the levelled
storage-by-composition shape (an immutable indexed base plus small mutable
deltas, folded together by background compaction — the CobbleDB model from
PAPERS.md) so a corpus can mutate *under* serving traffic:

* :class:`LiveCollection` — one immutable **base segment** (a plain
  ``FeatureCollection`` with its workspace and, via ``index_factory``, an
  optional metric index) composed with small append-only **delta segments**
  and a **tombstone mask**.  ``insert`` lands in the newest delta in
  O(delta); ``delete`` flips copy-on-write tombstones in O(corpus-mask);
  neither touches the base.
* :class:`LiveSnapshot` — a consistent, immutable view of the composition
  at one instant.  Queries run per segment with a ``k + dead`` widened
  top-k, drop tombstoned rows, and re-select the global top-k through
  :func:`~repro.database.index.merge_topk` under the library-wide
  (distance, ascending **stable id**) tie-break.
* :class:`Compactor` — a background thread folding deltas into a new base
  off the hot path: the rebuild (matrix gather, workspace, index) runs
  outside the mutation lock and the new composition swaps in atomically
  under an epoch counter, RCU-style — in-flight queries finish on the old
  composition and never block.

**Exactness is the contract.**  Per-object distances are element-wise
expressions whose bits do not depend on which segment hosts the object (the
same argument as the sharded engine's), ids are assigned once and never
reused, each segment's local order is id-ascending, and the merge re-selects
under (distance, ascending id) — so any interleaving of writes and queries
is **byte-identical** to rebuilding a frozen collection from the alive rows
at that snapshot and querying it (tier-1, ``tests/test_live_collection.py``
and the hypothesis interleavings in ``tests/test_properties_live.py``).

**Stable ids.**  Result-set indices of a live collection are stable
external ids: row ``id`` of the id-indexed :attr:`LiveCollection.vectors`
archive is the inserted vector forever, across any number of compactions.
That is what keeps the feedback layer working unchanged — judges gather
``labels[results.indices()]`` and the feedback engine gathers
``collection.vectors[indices]``, both id-indexed.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.database.budget import Budget, fan_out
from repro.database.collection import FeatureCollection
from repro.database.index import KNNIndex, merge_topk
from repro.database.knn import LinearScanIndex
from repro.database.query import QueryBatch, ResultSet
from repro.distances.base import DistanceFunction
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.utils.validation import (
    ValidationError,
    as_float_matrix,
    as_float_vector,
    check_dimension,
)

__all__ = ["LiveCollection", "LiveSnapshot", "SegmentUnit", "Compactor"]

#: Initial archive capacity (rows); the archive doubles as it fills, so the
#: amortised per-insert cost stays O(delta) whatever the final size.
_INITIAL_CAPACITY = 64


class SegmentUnit:
    """One segment of a live collection: a frozen collection plus its ids.

    ``ids`` maps the collection's local positions to stable external ids,
    and is **strictly ascending** — ids are assigned monotonically within a
    delta, and a compacted base keeps its alive ids sorted — so the local
    (distance, position) tie-break order of any engine over ``collection``
    is the same order as (distance, id).  That order-isomorphism is what
    lets per-segment results merge under the global tie-break without
    re-sorting anything inside a segment.

    The unit itself carries no liveness: tombstones are snapshot state
    (:class:`_SnapshotSegment`), so one unit object — with its lazily built
    workspace, its scan and its optional metric index — is reused across
    snapshots until a compaction retires it.
    """

    __slots__ = ("collection", "ids", "index", "scan", "is_base")

    def __init__(
        self,
        collection: FeatureCollection,
        ids: np.ndarray,
        *,
        index: "KNNIndex | None" = None,
        is_base: bool = False,
    ) -> None:
        self.collection = collection
        ids = np.asarray(ids, dtype=np.intp)
        ids.setflags(write=False)
        self.ids = ids
        self.index = index
        self.scan = LinearScanIndex(collection)
        self.is_base = is_base

    def __len__(self) -> int:
        return self.collection.size


class _SnapshotSegment:
    """One segment as seen by one snapshot: a unit plus its tombstones.

    ``alive`` is ``None`` when every row is alive (the common case, and the
    fast path), otherwise a read-only bool mask parallel to the unit's
    rows.  The mask is a copy-on-write gather taken under the mutation
    lock, so it can never change under a running query.
    """

    __slots__ = ("unit", "alive", "n_dead")

    def __init__(self, unit: SegmentUnit, alive: "np.ndarray | None", n_dead: int) -> None:
        self.unit = unit
        self.alive = alive
        self.n_dead = int(n_dead)


class LiveSnapshot:
    """A consistent, immutable view of a :class:`LiveCollection`.

    Searching a snapshot is the live system's read path: every segment
    answers with a ``min(k + its dead, its size)`` top-k (any global top-k
    alive object has fewer than ``k`` alive predecessors anywhere — so in
    particular within its segment — plus at most ``n_dead`` dead ones, so
    widening by the segment's tombstone count loses nothing), tombstoned
    rows are dropped, local positions map to stable ids, and
    :func:`~repro.database.index.merge_topk` re-selects the global top-k
    under (distance, ascending id).  The result is byte-identical to
    querying a frozen collection rebuilt from the snapshot's alive rows.

    ``mapper`` on :meth:`execute` accepts a
    :meth:`~repro.database.sharding.WorkerPool.map`-shaped callable so a
    sharded engine can fan the per-segment scans out over its worker pool;
    the merge is order-fixed, so parallelism never shows in the bits.
    """

    __slots__ = ("_segments", "_epoch", "_size", "_dimension")

    def __init__(
        self, segments: "tuple[_SnapshotSegment, ...]", *, epoch: int, size: int, dimension: int
    ) -> None:
        self._segments = segments
        self._epoch = int(epoch)
        self._size = int(size)
        self._dimension = int(dimension)

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Compaction epoch this snapshot was taken at."""
        return self._epoch

    @property
    def size(self) -> int:
        """Number of alive vectors."""
        return self._size

    @property
    def dimension(self) -> int:
        """Dimensionality of the feature vectors."""
        return self._dimension

    @property
    def n_segments(self) -> int:
        """Number of segments (base + deltas)."""
        return len(self._segments)

    @property
    def n_delta_segments(self) -> int:
        """Number of delta segments riding on the base."""
        return len(self._segments) - 1

    @property
    def n_tombstones(self) -> int:
        """Dead rows still resident in this snapshot's segments."""
        return sum(segment.n_dead for segment in self._segments)

    @property
    def segments(self) -> "tuple[_SnapshotSegment, ...]":
        """The snapshot's segments, base first."""
        return self._segments

    def base_index_supports(self, distance: DistanceFunction) -> bool:
        """True when the base segment's metric index serves ``distance``."""
        index = self._segments[0].unit.index
        return index is not None and index.supports(distance)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def execute(
        self, batch: QueryBatch, *, budget: "Budget | None" = None, mapper=None
    ) -> "list[ResultSet]":
        """The ``k`` nearest alive vectors of every batch row, by stable id.

        Every segment answers the batch widened to ``k + its dead`` — through
        the base segment's metric index when it serves the batch's shared
        distance, otherwise through the segment's linear scan (always, for
        per-row ``(Δ, W)`` batches) — tombstoned rows are dropped, local
        positions map to stable ids, and
        :func:`~repro.database.index.merge_topk` re-selects across segments.
        Byte-identical to ``FeatureCollection(alive rows)`` queried through
        the same engine configuration, with positions mapped to ids: the
        exact candidate distances are element-wise per object, so segment
        membership never shows in the bits.

        The segments are the parts of one :func:`~repro.database.budget.fan_out`:
        a finite ``budget`` runs them serially (base first, then deltas in
        admission order, ignoring ``mapper``), each one the budget reaches
        is consulted through the budgeted per-engine path and counted
        ``segments_answered``, and segments the exhausted budget never
        reaches are unbounded skips counted ``segments_skipped``.  The
        budget charges what a scan actually evaluates — resident rows, dead
        ones included, since liveness is filtered after the distances.
        """

        def answer_segment(segment: _SnapshotSegment, segment_budget: "Budget | None") -> list:
            unit = segment.unit
            part = batch.with_k(min(batch.k + segment.n_dead, len(unit)))
            if part.weights is None and unit.index is not None and unit.index.supports(part.distance):
                results = unit.index.search_batch(part.points, part.k, budget=segment_budget)
            else:
                results = unit.scan.execute(part, budget=segment_budget)
            pairs = []
            for result in results:
                local = result.indices()
                ordered = result.distances()
                if segment.alive is not None:
                    keep = segment.alive[local]
                    local = local[keep]
                    ordered = ordered[keep]
                pairs.append((unit.ids[local], ordered))
            return pairs

        rows_resident = sum(len(segment.unit) for segment in self._segments)
        per_segment = fan_out(
            self._segments,
            answer_segment,
            budget,
            rows_resident * batch.n_rows,
            Budget.note_segment,
            mapper,
        )
        return merge_topk(per_segment, batch.k, batch.n_rows)

    def search_batch(
        self,
        query_points,
        k: int,
        distance: DistanceFunction,
        precision: str = "fast",
        *,
        budget: "Budget | None" = None,
    ) -> "list[ResultSet]":
        """Validate a shared-``distance`` batch and :meth:`execute` it."""
        batch = QueryBatch.plain(query_points, k, distance, precision, dimension=self._dimension)
        return self.execute(batch, budget=budget)


class LiveCollection:
    """A mutable corpus composed of one indexed base and append-only deltas.

    Parameters
    ----------
    vectors, labels:
        The initial corpus (at least one vector, exactly as
        :class:`~repro.database.collection.FeatureCollection`); it becomes
        the first base segment with ids ``0..n-1``.
    index_factory:
        Optional ``(collection, distance) -> KNNIndex | None`` callable —
        the same shape as the sharded engine's — building the **base**
        segment's metric index.  Called at construction and again by every
        compaction (off the hot path); deltas are never indexed, they are
        small by construction.
    index_distance:
        The distance handed to ``index_factory`` (default: the unweighted
        Euclidean distance, the library default).

    Concurrency: one re-entrant mutation lock guards the composition;
    writers hold it for O(delta) (insert) or O(mask-copy) (delete), readers
    only to grab a :meth:`snapshot` — after that a query runs entirely on
    immutable state, so queries never block on each other, on writers, or
    on a running compaction.  The heavy part of :meth:`compact` (gather,
    workspace, index build) runs outside the lock; only the final pointer
    swap — the epoch bump — is locked.

    Ids are assigned monotonically and never reused; :attr:`vectors` is the
    id-indexed archive (row ``id`` = inserted vector, dead or alive), which
    is what keeps id-based gathers — the feedback engine's
    ``collection.vectors[indices]``, a judge's ``labels[indices]`` — valid
    across compactions.
    """

    def __init__(
        self,
        vectors,
        labels=None,
        *,
        index_factory=None,
        index_distance: "DistanceFunction | None" = None,
    ) -> None:
        base_collection = FeatureCollection(vectors, labels=labels)
        n = base_collection.size
        self._dimension = base_collection.dimension
        if index_distance is None:
            index_distance = WeightedEuclideanDistance.default(self._dimension)
        if index_distance.dimension != self._dimension:
            raise ValidationError("index distance dimensionality does not match the collection")
        self._index_factory = index_factory
        self._index_distance = index_distance

        capacity = max(_INITIAL_CAPACITY, 2 * n)
        self._archive = np.zeros((capacity, self._dimension), dtype=np.float64)
        self._archive[:n] = base_collection.vectors
        self._alive = np.zeros(capacity, dtype=bool)
        self._alive[:n] = True
        self._next_id = n
        self._n_alive = n
        if base_collection.labels is None:
            self._labels: "list[str] | None" = None
        else:
            self._labels = list(base_collection.labels)
        self._labels_array: "np.ndarray | None" = None

        index = None if index_factory is None else index_factory(base_collection, index_distance)
        self._base_unit = SegmentUnit(
            base_collection, np.arange(n, dtype=np.intp), index=index, is_base=True
        )
        self._sealed: "tuple[SegmentUnit, ...]" = ()
        self._active_start = n
        self._active_cache: "SegmentUnit | None" = None
        self._epoch = 0
        self._n_compactions = 0

        self._lock = threading.RLock()
        self._compact_gate = threading.Lock()
        self._snapshot_cache: "LiveSnapshot | None" = None
        self._snapshot_key = None

    # ------------------------------------------------------------------ #
    # FeatureCollection-shaped accessors (the duck type feedback code sees)
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Dimensionality of the feature vectors."""
        return self._dimension

    @property
    def size(self) -> int:
        """Number of **alive** vectors (what a frozen rebuild would hold)."""
        with self._lock:
            return self._n_alive

    def __len__(self) -> int:
        return self.size

    @property
    def vectors(self) -> np.ndarray:
        """The id-indexed archive: row ``id`` is the inserted vector, forever.

        Read-only view over every id assigned so far — including
        tombstoned rows, so id-based gathers stay valid whatever was
        deleted since.  Unlike a frozen collection, ``len(vectors)`` is the
        total id count, not :attr:`size`.
        """
        with self._lock:
            view = self._archive[: self._next_id]
        view = view.view()
        view.setflags(write=False)
        return view

    @property
    def labels(self) -> "tuple[str, ...] | None":
        """Id-indexed labels (``None`` when unlabelled)."""
        with self._lock:
            return None if self._labels is None else tuple(self._labels)

    @property
    def labels_array(self) -> "np.ndarray | None":
        """Id-indexed labels as a read-only object array (``None`` unlabelled)."""
        with self._lock:
            if self._labels is None:
                return None
            if self._labels_array is None or self._labels_array.shape[0] != len(self._labels):
                array = np.asarray(self._labels, dtype=object)
                array.setflags(write=False)
                self._labels_array = array
            return self._labels_array

    def label(self, index: int) -> str:
        """The label of id ``index`` (requires a labelled collection)."""
        with self._lock:
            if self._labels is None:
                raise ValidationError("this collection has no labels")
            if not 0 <= index < self._next_id:
                raise ValidationError(f"id {index} out of range [0, {self._next_id})")
            return self._labels[index]

    def labels_of(self, indices) -> "list[str]":
        """Labels of many ids with one vectorised gather."""
        labels_array = self.labels_array
        if labels_array is None:
            raise ValidationError("this collection has no labels")
        indices = np.asarray(indices)
        if indices.size == 0:
            return []
        if indices.dtype.kind not in "iu":
            raise ValidationError("indices must be integers")
        indices = indices.astype(np.intp, copy=False)
        if indices.min() < 0 or indices.max() >= labels_array.shape[0]:
            raise ValidationError(f"indices out of range [0, {labels_array.shape[0]})")
        return labels_array[indices].tolist()

    def indices_with_label(self, label: str) -> np.ndarray:
        """Ids of every **alive** vector carrying ``label``."""
        with self._lock:
            if self._labels is None:
                raise ValidationError("this collection has no labels")
            return np.asarray(
                [
                    index
                    for index, value in enumerate(self._labels)
                    if value == label and self._alive[index]
                ],
                dtype=np.intp,
            )

    def vector(self, index: int) -> np.ndarray:
        """A copy of the vector with id ``index`` (dead or alive)."""
        with self._lock:
            if not 0 <= index < self._next_id:
                raise ValidationError(f"id {index} out of range [0, {self._next_id})")
            return self._archive[index].copy()

    def validate_query_point(self, point) -> np.ndarray:
        """Validate a query point against the collection's dimensionality."""
        return as_float_vector(point, name="query point", dim=self._dimension)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._archive.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        archive = np.zeros((capacity, self._dimension), dtype=np.float64)
        archive[: self._next_id] = self._archive[: self._next_id]
        alive = np.zeros(capacity, dtype=bool)
        alive[: self._next_id] = self._alive[: self._next_id]
        # Sealed units and cached snapshots keep views of the old buffers;
        # rows below _next_id are immutable, so their bits stay valid.
        self._archive = archive
        self._alive = alive

    def insert(self, vectors, labels=None) -> np.ndarray:
        """Append vectors to the newest delta segment; returns their stable ids.

        O(delta): the rows land in the id-indexed archive and the active
        delta grows to cover them — no workspace, no index, no base is
        touched.  A labelled collection requires one label per new vector
        (a frozen rebuild could not otherwise exist); an unlabelled one
        rejects labels.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        vectors = as_float_matrix(vectors, name="vectors", shape=(None, self._dimension))
        n = int(vectors.shape[0])
        if n == 0:
            return np.empty(0, dtype=np.intp)
        with self._lock:
            if self._labels is not None:
                if labels is None:
                    raise ValidationError("a labelled collection needs one label per new vector")
                labels = [str(label) for label in labels]
                if len(labels) != n:
                    raise ValidationError("labels must have one entry per vector")
            elif labels is not None:
                raise ValidationError("this collection is unlabelled; labels are not accepted")
            self._ensure_capacity(self._next_id + n)
            start = self._next_id
            self._archive[start : start + n] = vectors
            self._alive[start : start + n] = True
            if self._labels is not None:
                self._labels.extend(labels)
            self._next_id = start + n
            self._n_alive += n
            self._active_cache = None
            self._snapshot_cache = None
            return np.arange(start, start + n, dtype=np.intp)

    def delete(self, ids) -> int:
        """Tombstone the given ids; returns how many were deleted.

        Copy-on-write: the alive mask is copied, flipped and swapped under
        the lock, so a snapshot taken before the delete keeps its own
        consistent mask.  Deleting an unknown or already-dead id raises;
        so does deleting the last alive vector (a collection can never be
        empty, frozen or live).
        """
        ids = np.unique(np.asarray(ids, dtype=np.intp))
        if ids.size == 0:
            return 0
        with self._lock:
            if ids[0] < 0 or ids[-1] >= self._next_id:
                raise ValidationError(f"ids out of range [0, {self._next_id})")
            if not bool(self._alive[ids].all()):
                dead = ids[~self._alive[ids]]
                raise ValidationError(f"id {int(dead[0])} is already deleted")
            if self._n_alive - ids.size < 1:
                raise ValidationError("cannot delete the last alive vector")
            alive = self._alive.copy()
            alive[ids] = False
            self._alive = alive
            self._n_alive -= int(ids.size)
            self._snapshot_cache = None
            return int(ids.size)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def _active_unit(self, count: int) -> SegmentUnit:
        """The active delta as a segment unit (cached until it grows)."""
        cached = self._active_cache
        if cached is not None and cached.ids.shape[0] == count:
            return cached
        start = self._active_start
        matrix = self._archive[start : start + count]
        collection = FeatureCollection(matrix, copy=False)
        unit = SegmentUnit(collection, np.arange(start, start + count, dtype=np.intp))
        self._active_cache = unit
        return unit

    def snapshot(self) -> LiveSnapshot:
        """A consistent view of the current composition (cached until it changes)."""
        with self._lock:
            key = (self._epoch, self._next_id, id(self._alive), len(self._sealed))
            if self._snapshot_cache is not None and self._snapshot_key == key:
                return self._snapshot_cache
            units = [self._base_unit, *self._sealed]
            active_count = self._next_id - self._active_start
            if active_count > 0:
                units.append(self._active_unit(active_count))
            segments = []
            for unit in units:
                mask = self._alive[unit.ids]
                n_dead = int(unit.ids.shape[0] - np.count_nonzero(mask))
                if n_dead:
                    mask.setflags(write=False)
                    segments.append(_SnapshotSegment(unit, mask, n_dead))
                else:
                    segments.append(_SnapshotSegment(unit, None, 0))
            snapshot = LiveSnapshot(
                tuple(segments),
                epoch=self._epoch,
                size=self._n_alive,
                dimension=self._dimension,
            )
            self._snapshot_cache = snapshot
            self._snapshot_key = key
            return snapshot

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        """Compaction epoch (bumps once per completed fold)."""
        with self._lock:
            return self._epoch

    @property
    def base_index(self) -> "KNNIndex | None":
        """The current base segment's metric index (rebuilt per compaction)."""
        with self._lock:
            return self._base_unit.index

    @property
    def index_distance(self) -> DistanceFunction:
        """The distance instance handed to ``index_factory``.

        Metric indexes serve a query only under the *same* distance object
        they were built for, so an engine defaulting to this instance gets
        base-index hits out of the box.
        """
        return self._index_distance

    @property
    def n_compactions(self) -> int:
        """Completed compactions over this collection's lifetime."""
        with self._lock:
            return self._n_compactions

    @property
    def delta_rows(self) -> int:
        """Rows living outside the base segment (sealed + active deltas)."""
        with self._lock:
            sealed = sum(len(unit) for unit in self._sealed)
            return sealed + (self._next_id - self._active_start)

    def corpus_stats(self) -> dict:
        """Deterministic shape counters of the current composition.

        The serving layer's ``corpus_stats`` op returns exactly this dict,
        so two front ends (or codecs) serving the same collection at the
        same state report identical numbers.
        """
        with self._lock:
            active_count = self._next_id - self._active_start
            sealed_rows = sum(len(unit) for unit in self._sealed)
            resident = len(self._base_unit) + sealed_rows + active_count
            return {
                "live": True,
                "size": self._n_alive,
                "total_inserted": self._next_id,
                "segments": 1 + len(self._sealed) + (1 if active_count else 0),
                "delta_segments": len(self._sealed) + (1 if active_count else 0),
                "delta_rows": sealed_rows + active_count,
                "tombstones": resident - self._n_alive,
                "compactions": self._n_compactions,
                "epoch": self._epoch,
            }

    def compact(self) -> dict:
        """Fold deltas and tombstones into a fresh base segment.

        Synchronous form of what the :class:`Compactor` thread runs.  Three
        phases: **seal** (under the lock, O(1): the active delta freezes
        and a new empty one opens), **rebuild** (off the lock: gather the
        alive rows in id order, build the collection + workspace + index —
        the O(corpus) part, off the hot path), **swap** (under the lock,
        O(1): the new base replaces base + sealed deltas, epoch bumps).
        Queries in flight keep their snapshot of the old composition;
        deletes racing the rebuild simply tombstone rows of the new base
        (purged by the next compaction).  Concurrent calls serialise on a
        gate.  Returns the composition stats after the fold, with
        ``"compacted"`` false when there was nothing to fold.
        """
        with self._compact_gate:
            with self._lock:
                active_count = self._next_id - self._active_start
                if active_count > 0:
                    self._sealed = self._sealed + (self._active_unit(active_count),)
                    self._active_start = self._next_id
                    self._active_cache = None
                    self._snapshot_cache = None
                base_dead = len(self._base_unit) - int(
                    np.count_nonzero(self._alive[self._base_unit.ids])
                )
                if not self._sealed and base_dead == 0:
                    return {"compacted": False, **self.corpus_stats()}
                archive = self._archive
                alive_ref = self._alive
                next_id = self._next_id

            # Rebuild off the lock: the captured buffers are immutable below
            # next_id, so inserts and deletes racing this fold cannot change
            # what it sees.
            alive_ids = np.flatnonzero(alive_ref[:next_id]).astype(np.intp)
            matrix = np.ascontiguousarray(archive[alive_ids])
            collection = FeatureCollection(matrix, copy=False)
            index = (
                None
                if self._index_factory is None
                else self._index_factory(collection, self._index_distance)
            )
            new_base = SegmentUnit(collection, alive_ids, index=index, is_base=True)
            if index is None or not index.supports(self._index_distance):
                # One default-distance scan builds exactly the workspace terms
                # the base scan reads, off the hot path, not under traffic.
                new_base.scan.search_batch(matrix[:1], 1, self._index_distance)

            with self._lock:
                self._base_unit = new_base
                self._sealed = ()
                self._epoch += 1
                self._n_compactions += 1
                self._snapshot_cache = None
                return {"compacted": True, **self.corpus_stats()}


class Compactor:
    """Background thread folding a live collection's deltas off the hot path.

    Polls every ``interval`` seconds and triggers
    :meth:`LiveCollection.compact` when the delta rows reach
    ``min_delta_rows`` (or, with ``max_tombstones``, when that many dead
    rows are resident).  Because the fold's heavy phase runs outside the
    mutation lock, queries keep dispatching at full rate while this thread
    works.
    """

    def __init__(
        self,
        live: LiveCollection,
        *,
        min_delta_rows: int = 1024,
        max_tombstones: "int | None" = None,
        interval: float = 0.05,
    ) -> None:
        check_dimension(min_delta_rows, "min_delta_rows")
        if max_tombstones is not None:
            check_dimension(max_tombstones, "max_tombstones")
        if interval <= 0:
            raise ValidationError("interval must be positive")
        self._live = live
        self._min_delta_rows = int(min_delta_rows)
        self._max_tombstones = max_tombstones
        self._interval = float(interval)
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._n_runs = 0

    @property
    def n_runs(self) -> int:
        """Compactions this thread has triggered."""
        return self._n_runs

    def due(self) -> bool:
        """True when the composition has grown past a trigger threshold."""
        if self._live.delta_rows >= self._min_delta_rows:
            return True
        if self._max_tombstones is not None:
            return self._live.corpus_stats()["tombstones"] >= self._max_tombstones
        return False

    def start(self) -> "Compactor":
        """Start the background thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-compactor", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if self.due():
                result = self._live.compact()
                if result.get("compacted"):
                    self._n_runs += 1

    def close(self) -> None:
        """Stop the thread (idempotent; a fold in flight finishes first)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)

    def __enter__(self) -> "Compactor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
