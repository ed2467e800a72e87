"""Query and result value objects.

Following Section 2 of the paper, a query is a pair ``Q = (q, k)``: a query
point and a limit on the number of results.  A result set is the list of the
``k`` database objects closest to ``q`` under the current distance function,
ordered by increasing distance.

With FeedbackBypass in the picture a query is really ``(q, k, Δ, W)`` — the
default search is the ``Δ = 0, W = 1`` instance the bypass has not improved
yet — and the engines answer many of them per call.  :class:`QueryBatch` is
that request: the one validated value every execution layer below the public
``search*`` wrappers accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distances.base import DistanceFunction, check_precision
from repro.utils.validation import (
    ValidationError,
    as_float_matrix,
    check_dimension,
)


@dataclass(frozen=True, eq=False)
class QueryBatch:
    """A validated batch of k-NN queries ``(q + Δ, k, W)`` — one row per query.

    Build one through :meth:`plain` or :meth:`with_parameters`: those are the
    only places query input is validated, and every layer below the public
    ``search*`` wrappers (engines, live snapshots, the linear scan, shard
    workers) accepts nothing but a ``QueryBatch`` — the type *is* the proof
    that shapes, finiteness, ``k`` and ``precision`` were checked.  The bare
    constructor is for deriving a batch from a validated one
    (:meth:`resolved`).

    A batch is plain picklable data (it crosses the pipe to the shard worker
    processes); the mutable :class:`~repro.database.budget.Budget` accounting
    deliberately stays a separate ``execute`` argument.

    Attributes
    ----------
    points:
        ``(Q, D)`` float64 query points, already shifted by ``Δ``.
    k:
        Number of results requested per row.
    distance:
        The distance shared by every row; ``None`` means "the answering
        engine's default distance" (resolved per engine, so a shard worker
        uses its own instance).
    weights:
        ``(Q, D)`` non-negative per-row weights of the weighted Euclidean
        distance, or ``None`` for a shared-distance batch.  Never set
        together with ``distance``.
    precision:
        ``"fast"`` (the default: the scan's float32 candidate stage with
        exact float64 re-scoring, wherever the family and the magnitudes
        allow it) or ``"exact"`` (float64 kernels only) — same bytes either
        way.
    """

    points: np.ndarray
    k: int
    distance: "DistanceFunction | None" = None
    weights: "np.ndarray | None" = None
    precision: str = "fast"

    @classmethod
    def plain(
        cls,
        query_points,
        k: int,
        distance: "DistanceFunction | None" = None,
        precision: str = "fast",
        *,
        dimension: int,
    ) -> "QueryBatch":
        """Validate a shared-distance batch against a ``dimension``-D corpus."""
        points = as_float_matrix(query_points, name="query_points", shape=(None, dimension))
        if distance is not None and distance.dimension != dimension:
            raise ValidationError(
                "distance dimensionality does not match the collection "
                f"({distance.dimension} vs {dimension})"
            )
        return cls(points, check_dimension(k, "k"), distance, None, check_precision(precision))

    @classmethod
    def with_parameters(
        cls,
        query_points,
        k: int,
        deltas,
        weights,
        precision: str = "fast",
        *,
        dimension: int,
    ) -> "QueryBatch":
        """Validate a per-row ``(Δ, W)`` batch; shifts by ``Δ``, clips ``W`` at 0."""
        points = as_float_matrix(query_points, name="query_points", shape=(None, dimension))
        n_queries = points.shape[0]
        deltas = as_float_matrix(deltas, name="deltas", shape=(n_queries, dimension))
        weights = as_float_matrix(weights, name="weights", shape=(n_queries, dimension))
        return cls(
            points + deltas,
            check_dimension(k, "k"),
            None,
            np.clip(weights, 0.0, None),
            check_precision(precision),
        )

    @property
    def n_rows(self) -> int:
        """Number of queries in the batch."""
        return int(self.points.shape[0])

    @property
    def group_key(self) -> tuple:
        """What two batches must share for their rows to ride one dispatch."""
        return (self.weights is not None, self.k, self.distance, self.precision)

    def resolved(self, default_distance: DistanceFunction) -> "QueryBatch":
        """This batch with ``distance=None`` replaced by the engine's default."""
        if self.distance is not None or self.weights is not None:
            return self
        return QueryBatch(self.points, self.k, default_distance, None, self.precision)


@dataclass(frozen=True)
class ResultItem:
    """One retrieved object: its collection index and its distance to the query."""

    index: int
    distance: float


class ResultSet:
    """An ordered list of retrieved objects.

    The items are sorted by non-decreasing distance; ties keep the order the
    index produced, so two engines returning the same distances compare equal
    through :meth:`indices`.

    Internally the set is array-backed — the batch query pipeline creates
    thousands of result sets per second, so construction from parallel
    arrays (:meth:`from_arrays`) is O(validation) and the
    :class:`ResultItem` views are only materialised when someone iterates.
    """

    __slots__ = ("_indices", "_distances", "_items")

    def __init__(self, items=()) -> None:
        items = tuple(items)
        indices = np.asarray([item.index for item in items], dtype=np.intp)
        distances = np.asarray([item.distance for item in items], dtype=np.float64)
        _check_ranked(distances)
        self._hold(indices, distances, items)

    def _hold(
        self, indices: np.ndarray, distances: np.ndarray, items: tuple[ResultItem, ...] | None
    ) -> None:
        indices.setflags(write=False)
        distances.setflags(write=False)
        self._indices = indices
        self._distances = distances
        self._items = items

    @property
    def items(self) -> tuple[ResultItem, ...]:
        """The results as :class:`ResultItem` objects (materialised lazily)."""
        if self._items is None:
            self._items = tuple(
                ResultItem(index=int(index), distance=float(distance))
                for index, distance in zip(self._indices, self._distances)
            )
        return self._items

    def __len__(self) -> int:
        return int(self._indices.shape[0])

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, position: int) -> ResultItem:
        return self.items[position]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        return bool(
            np.array_equal(self._indices, other._indices)
            and np.array_equal(self._distances, other._distances)
        )

    def __hash__(self) -> int:
        return hash((self._indices.tobytes(), self._distances.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ResultSet(n={len(self)})"

    def indices(self) -> np.ndarray:
        """Return the retrieved collection indices, in rank order (read-only)."""
        return self._indices

    def distances(self) -> np.ndarray:
        """Return the distances, in rank order (read-only)."""
        return self._distances

    def same_objects(self, other: "ResultSet") -> bool:
        """True when both result sets contain the same objects in the same order.

        This is the convergence test of the feedback loop: iteration stops
        when the result list no longer changes (Section 5).
        """
        return len(self) == len(other) and bool(np.array_equal(self._indices, other._indices))

    @classmethod
    def empty(cls) -> "ResultSet":
        """The well-formed empty result (what a spent budget returns)."""
        return cls.from_arrays(np.array([], dtype=np.intp), np.array([], dtype=np.float64))

    @classmethod
    def from_arrays(cls, indices, distances) -> "ResultSet":
        """Build a result set from parallel index / distance arrays."""
        indices = np.array(indices, dtype=np.intp)
        distances = np.array(distances, dtype=np.float64)
        if indices.shape != distances.shape or indices.ndim != 1:
            raise ValidationError("indices and distances must be parallel 1-D arrays")
        _check_ranked(distances)
        return cls._adopt(indices, distances)

    @classmethod
    def _adopt(cls, indices: np.ndarray, distances: np.ndarray) -> "ResultSet":
        """Take over the engines' own ranked ``intp`` / ``float64`` arrays: no copy, no re-check."""
        instance = cls.__new__(cls)
        instance._hold(indices, distances, None)
        return instance


def _check_ranked(distances: np.ndarray) -> None:
    if distances.shape[0] > 1 and bool((distances[1:] - distances[:-1] < -1e-12).any()):
        raise ValidationError("result items must be sorted by non-decreasing distance")
