"""The k-NN index protocol and shared selection machinery.

Every k-NN engine in the library (linear scan, VP-tree, M-tree) implements
the :class:`KNNIndex` contract:

* ``search(query_point, k, distance=None)`` — one query, one
  :class:`~repro.database.query.ResultSet`,
* ``search_batch(query_points, k, distance=None)`` — many queries at once;
  the contract guarantees the result equals ``[search(q, k) for q in
  query_points]`` element for element.

The metric trees are built for one fixed metric and reject any other; the
linear scan serves any distance of matching dimensionality and is the one
access path behind the engines.

Determinism on ties is part of the contract: equal distances are broken by
ascending collection index, so any two conforming engines — and the batch
and single-query paths of the same engine — return byte-identical result
sets.  :func:`k_smallest` and :class:`NeighborHeap` implement that rule for
array-based and heap-based engines respectively, and :func:`merge_topk` is
the one place per-part top-k lists (shards) are merged under it.

:func:`k_smallest` itself has two interchangeable selection strategies —
the vectorised argpartition pipeline and a bounded heap — whose outputs are
bit-identical; a process-wide :class:`KSelectionAutotuner` measures their
crossover once per ``(n, k)`` magnitude bucket and picks the winner for
every subsequent call of that shape.
"""

from __future__ import annotations

import abc
import heapq
import time

import numpy as np

from repro.database.query import QueryBatch, ResultSet
from repro.distances.base import DistanceFunction
from repro.utils.validation import ValidationError, check_dimension


def _argpartition_smallest(
    distances: np.ndarray, k: int, labels: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The vectorised selection pipeline: argpartition + tie widening + lexsort."""
    # argpartition finds *a* set of k smallest in O(n); widening to every
    # entry within the k-th distance makes the tie-break deterministic.
    candidate = np.argpartition(distances, k - 1)[:k]
    threshold = distances[candidate].max()
    candidate = np.flatnonzero(distances <= threshold)
    candidate_labels = candidate if labels is None else np.asarray(labels, dtype=np.intp)[candidate]
    order = np.lexsort((candidate_labels, distances[candidate]))[:k]
    return candidate_labels[order], distances[candidate[order]]


def _heap_smallest(
    distances: np.ndarray, k: int, labels: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Bounded-heap selection: one pass, O(n log k), no intermediate arrays.

    Bit-identical to :func:`_argpartition_smallest` — both select the k
    smallest entries under the total (distance, label) order and emit them
    in that order; the distances are carried through unmodified.  The
    Python-level loop only wins where the fixed overhead of the five-array
    numpy pipeline dominates, i.e. small ``n`` — which is exactly what the
    autotuner measures.
    """
    values = distances.tolist()
    heap = NeighborHeap(k)
    if labels is None:
        for index, value in enumerate(values):
            heap.offer(value, index)
    else:
        for label, value in zip(np.asarray(labels, dtype=np.intp).tolist(), values):
            heap.offer(value, label)
    items = heap.sorted_items()
    out_labels = np.asarray([index for _, index in items], dtype=np.intp)
    out_distances = np.asarray([value for value, _ in items], dtype=distances.dtype)
    return out_labels, out_distances


_STRATEGIES = {
    "argpartition": _argpartition_smallest,
    "heap": _heap_smallest,
}


class KSelectionAutotuner:
    """Measured argpartition-vs-heap crossover for :func:`k_smallest`.

    Both strategies return bit-identical output, so the choice is purely a
    matter of speed — and the crossover depends on the machine (numpy call
    overhead vs. interpreter loop speed), so it is *measured*, not assumed:
    the first call of a given ``(n, k)`` magnitude bucket runs a tiny
    calibration (both strategies on a seeded synthetic array of that shape,
    best of :data:`CALIBRATION_REPEATS`) and the winner is cached for the
    process lifetime.

    Above :data:`HEAP_CEILING` elements the heap's Python loop is never
    competitive with the O(n) C partition — those shapes skip calibration
    entirely (timing a million-element Python loop once would cost more
    than the choice could ever save), which also bounds the cost of a
    calibration run itself.

    Shapes are bucketed by bit length (powers of two) so a scan over a
    49,999-row block reuses the decision taken for a 50,000-row one.
    """

    #: Largest ``n`` for which the heap is ever considered (and calibrated).
    HEAP_CEILING = 8192

    #: Timing repetitions per strategy in one calibration run (best-of).
    CALIBRATION_REPEATS = 3

    def __init__(self) -> None:
        self._decisions: dict[tuple[int, int], str] = {}

    @staticmethod
    def _bucket(n: int, k: int) -> tuple[int, int]:
        return (int(n).bit_length(), int(k).bit_length())

    def decisions(self) -> dict[tuple[int, int], str]:
        """A snapshot of the cached per-bucket decisions (for inspection)."""
        return dict(self._decisions)

    def _calibrate(self, n: int, k: int) -> str:
        rng = np.random.default_rng(n * 31 + k)
        sample = rng.random(n)
        best: dict[str, float] = {}
        for name, strategy in _STRATEGIES.items():
            elapsed = float("inf")
            for _ in range(self.CALIBRATION_REPEATS):
                start = time.perf_counter()
                strategy(sample, k, None)
                elapsed = min(elapsed, time.perf_counter() - start)
            best[name] = elapsed
        return min(best, key=best.get)

    def choose(self, n: int, k: int) -> str:
        """The winning strategy name for a ``(n, k)``-shaped selection."""
        if n > self.HEAP_CEILING:
            return "argpartition"
        bucket = self._bucket(n, k)
        decision = self._decisions.get(bucket)
        if decision is None:
            # Calibrate on the bucket's representative shape (the upper
            # bound of the bucket, clamped to real values) so every shape
            # in the bucket shares one measurement.
            decision = self._decisions[bucket] = self._calibrate(n, k)
        return decision


#: The process-wide autotuner consulted by :func:`k_smallest`.
_AUTOTUNER = KSelectionAutotuner()


def k_selection_autotuner() -> KSelectionAutotuner:
    """The process-wide :class:`KSelectionAutotuner` (shared, inspectable)."""
    return _AUTOTUNER


def k_smallest(
    distances: np.ndarray,
    k: int,
    labels: np.ndarray | None = None,
    *,
    strategy: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``k`` smallest entries of ``distances``, ties broken by label.

    Parameters
    ----------
    distances:
        1-D array of distances.
    k:
        Number of entries wanted (clamped to the array length).
    labels:
        Optional array mapping positions to collection indices; defaults to
        ``arange(len(distances))``.  Ties on distance are broken by ascending
        label, which is what makes every engine's result sets comparable.
    strategy:
        ``"argpartition"``, ``"heap"``, or ``None`` (default) to let the
        process-wide :class:`KSelectionAutotuner` pick the measured winner
        for this shape.  The strategies are bit-identical in output, so the
        choice is unobservable in results.

    Returns
    -------
    (labels, distances):
        Parallel arrays of the selected entries in (distance, label) order.
    """
    n = int(distances.shape[0])
    k = min(k, n)
    if k == n:
        candidate = np.arange(n, dtype=np.intp)
        candidate_labels = (
            candidate if labels is None else np.asarray(labels, dtype=np.intp)
        )
        order = np.lexsort((candidate_labels, distances))[:k]
        return candidate_labels[order], distances[order]
    if strategy is None:
        strategy = _AUTOTUNER.choose(n, k)
    try:
        select = _STRATEGIES[strategy]
    except KeyError:
        raise ValidationError(
            f"unknown k-selection strategy {strategy!r} (expected one of {sorted(_STRATEGIES)})"
        ) from None
    return select(distances, k, labels)


def merge_topk(per_part: list, k: int, n_queries: int) -> "list[ResultSet]":
    """Global top-``k`` per query from per-part ``(labels, distances)`` lists.

    ``per_part`` holds one entry per corpus part that answered — a shard —
    each a list of ``n_queries`` pairs
    whose labels are already global and whose rows are in (distance,
    ascending label) order.  Every global top-k object is inside its own
    part's top-k (fewer than ``k`` objects precede it anywhere, so in
    particular within its part), so pooling the parts loses nothing, and
    :func:`k_smallest` over the pooled rows applies the library-wide
    tie-break; distances are carried through verbatim.  The selection is a
    pure function of the pooled (distance, label) set, so the bits do not
    depend on how the corpus was split.

    This partial merge is the only merge: parts a budget never reached are
    simply absent (zero parts → well-formed empty results), and the
    complete answer is the case where every part answered.
    """
    if not per_part:
        return [ResultSet.empty() for _ in range(n_queries)]
    if len(per_part) == 1:
        # Already in merged order: rows past rank k, if any, are cut.
        return [
            ResultSet._adopt(labels[:k], distances[:k]) for labels, distances in per_part[0]
        ]
    merged = []
    for position in range(n_queries):
        labels, distances = k_smallest(
            np.concatenate([pairs[position][1] for pairs in per_part]),
            k,
            labels=np.concatenate([pairs[position][0] for pairs in per_part]),
        )
        merged.append(ResultSet._adopt(labels, distances))
    return merged


class NeighborHeap:
    """Bounded max-heap keeping the ``k`` nearest (distance, index) pairs.

    Ties on distance are broken by ascending index — the same rule as
    :func:`k_smallest` — so tree-based engines agree with the linear scan
    even when several objects sit at exactly the same distance.
    """

    __slots__ = ("_k", "_heap")

    def __init__(self, k: int) -> None:
        self._k = check_dimension(k, "k")
        # Entries are (-distance, -index): the heap root is the current worst
        # neighbour (largest distance, largest index among equals).
        self._heap: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def offer(self, distance: float, index: int) -> None:
        """Consider one (distance, index) pair for the neighbour set."""
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, (-distance, -index))
            return
        worst_distance, worst_index = -self._heap[0][0], -self._heap[0][1]
        if distance < worst_distance or (distance == worst_distance and index < worst_index):
            heapq.heapreplace(self._heap, (-distance, -index))

    def bound(self) -> float:
        """Current pruning bound: the k-th best distance (inf while filling)."""
        if len(self._heap) < self._k:
            return float("inf")
        return -self._heap[0][0]

    def sorted_items(self) -> list[tuple[float, int]]:
        """The neighbour set as (distance, index) pairs in rank order."""
        return sorted((-negative_d, -negative_i) for negative_d, negative_i in self._heap)

    def result_set(self) -> ResultSet:
        """Materialise the neighbour set as a :class:`ResultSet`."""
        items = self.sorted_items()
        return ResultSet.from_arrays(
            [index for _, index in items], [distance for distance, _ in items]
        )


class KNNIndex(abc.ABC):
    """Abstract base class of every k-NN engine (the index protocol)."""

    @property
    @abc.abstractmethod
    def collection(self):
        """The indexed :class:`~repro.database.collection.FeatureCollection`."""

    @abc.abstractmethod
    def search(self, query_point, k: int, distance: DistanceFunction | None = None) -> ResultSet:
        """Return the ``k`` nearest neighbours of one query point."""

    def search_batch(
        self, query_points, k: int, distance: DistanceFunction | None = None
    ) -> list[ResultSet]:
        """Return the ``k`` nearest neighbours of every query row.

        Equivalent to ``[self.search(q, k, distance) for q in query_points]``;
        subclasses override it where the whole batch can be answered with
        shared matrix computations.
        """
        batch = QueryBatch.plain(query_points, k, distance, dimension=self.collection.dimension)
        return [self.search(query_point, batch.k, distance) for query_point in batch.points]
