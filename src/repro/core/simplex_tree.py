"""The Simplex Tree (Section 4 of the paper).

The tree organises the query domain ``Q ⊆ R^D`` as an incrementally refined
triangulation whose vertices are the query points for which feedback has been
collected.  Every vertex carries a payload vector in ``R^N`` (the OQPs); a
prediction for a new query is the linear (unbalanced Haar) interpolation of
the payloads of the enclosing leaf simplex; an insertion splits that leaf
into up to D+1 children — but only if the prediction was off by more than the
threshold ε, which is how the structure's size tracks the complexity of the
optimal query mapping instead of the number of queries.

The class is generic over the payload: it maps points of R^D to vectors of
R^N without knowing that those vectors happen to be ``(Δ, W)`` pairs.  The
:class:`~repro.core.bypass.FeedbackBypass` facade adds that interpretation.

Every operation goes through one point location,
:meth:`SimplexTree.locate` (the barycentric-ratio descent of
:mod:`repro.geometry.triangulation`): ``predict`` walks the tree once and
solves once more on the leaf it finds for the interpolation weights;
``insert`` walks it once too — the located leaf gives the ε-gate's
prediction and, if the point is to be stored, is the leaf that is split.
Payloads live in one ``(n_vertices, N)`` table under the vertex ids of the
triangulation, so a prediction gathers its D+1 payload rows by id.

A stored vertex looked up again — the paper's repeated query — does not walk
from the root.  The tree remembers, per stored vertex, the state its last
walk ended in (:class:`~repro.geometry.triangulation.Walk`) and the point's
solved coordinates in that leaf.  While the leaf is still a leaf both are
the answer; once it has been split the walk resumes from it, which the
triangulation shows to be exact.  The insert that stores a point seeds its
entry with the state it reached at the leaf it split.  The entries hold
nothing that persistence replays: they are rebuilt on demand and replaced
whole, never changed in place, so concurrent readers need no lock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.simplex import Simplex
from repro.geometry.triangulation import IncrementalTriangulation, RowTable, TriangulationNode, Walk
from repro.utils.validation import (
    ValidationError,
    as_float_matrix,
    as_float_vector,
    check_dimension,
    check_positive,
)


@dataclass
class TreeStatistics:
    """Operation counters and structural measurements of a Simplex Tree.

    The Figure 16 experiment reports ``average traversal length`` (simplices
    visited per lookup) against the tree depth; both are tracked here.
    """

    n_lookups: int = 0
    n_predictions: int = 0
    n_inserts: int = 0
    n_updates: int = 0
    n_rejected_inserts: int = 0
    total_traversed: int = 0

    @property
    def average_traversal_length(self) -> float:
        """Average number of simplices visited per lookup (0 when unused)."""
        if self.n_lookups == 0:
            return 0.0
        return self.total_traversed / self.n_lookups

    def snapshot(self) -> dict[str, float]:
        """Return the counters as a plain dictionary (for reporting)."""
        return {
            "n_lookups": self.n_lookups,
            "n_predictions": self.n_predictions,
            "n_inserts": self.n_inserts,
            "n_updates": self.n_updates,
            "n_rejected_inserts": self.n_rejected_inserts,
            "average_traversal_length": self.average_traversal_length,
        }


@dataclass(frozen=True)
class InsertOutcome:
    """What an insert call did: stored a new vertex, updated one, or skipped."""

    action: str  # "inserted", "updated" or "skipped"
    prediction_error: float

    @property
    def stored(self) -> bool:
        """True when the call changed the tree (insert or update)."""
        return self.action in ("inserted", "updated")


class SimplexTree:
    """Wavelet-based index from query points to payload vectors.

    Parameters
    ----------
    root_vertices:
        ``(D+1, D)`` vertices of the root simplex ``S_0`` covering the query
        domain.
    value_dimension:
        Length N of the payload vectors.
    default_value:
        Payload assigned to the synthetic root vertices; an empty tree
        predicts exactly this value everywhere (for FeedbackBypass: the
        default query parameters).  Defaults to the zero vector.
    epsilon:
        Insert threshold ε: a point is only stored when the prediction error
        ``max_i |value_i - prediction_i|`` exceeds ε (Section 4.2).
    tolerance:
        Geometric tolerance for containment / degeneracy tests and for
        recognising an already-stored query point.
    """

    def __init__(
        self,
        root_vertices,
        value_dimension: int,
        *,
        default_value=None,
        epsilon: float = 0.0,
        tolerance: float = 1e-9,
    ) -> None:
        root_vertices = as_float_matrix(root_vertices, name="root_vertices")
        self._value_dimension = check_dimension(value_dimension, "value_dimension")
        self._epsilon = check_positive(epsilon, name="epsilon", strict=False)
        self._tolerance = check_positive(tolerance, name="tolerance")
        self._triangulation = IncrementalTriangulation(root_vertices, tolerance=tolerance)

        if default_value is None:
            default_value = np.zeros(self._value_dimension, dtype=np.float64)
        self._default_value = as_float_vector(
            default_value, name="default_value", dim=self._value_dimension
        ).copy()

        # One payload row per vertex, under the vertex's id in the
        # triangulation's table, so a vertex shared between adjacent simplices
        # shares a payload; the rounded coordinate tuple is how an
        # already-stored query point is recognised.
        self._payloads = RowTable(np.tile(self._default_value, (root_vertices.shape[0], 1)))
        self._vertex_ids: dict[tuple[float, ...], int] = {
            self._key(vertex): vertex_id for vertex_id, vertex in enumerate(root_vertices)
        }

        # Per stored vertex id: the state its last walk ended in, and its
        # solved coordinates in that leaf (None once the leaf is split).
        self._walks: dict[int, tuple[Walk, np.ndarray | None]] = {}

        self.statistics = TreeStatistics()
        # Ordered log of (point, payload, action) used by persistence to
        # reproduce the exact tree.
        self._journal: list[tuple[np.ndarray, np.ndarray, str]] = []

    # ------------------------------------------------------------------ #
    # Small helpers
    # ------------------------------------------------------------------ #
    def _key(self, point: np.ndarray) -> tuple[float, ...]:
        return tuple(np.round(np.asarray(point, dtype=np.float64), 12))

    def _interpolate(
        self, leaf: TriangulationNode, point: np.ndarray, weights: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(coordinates of point in leaf, interpolated payload)`` — the
        arithmetic of :func:`~repro.core.interpolation.interpolate_payloads`;
        ``weights``, when known, are ``leaf.coordinates(point)``."""
        if weights is None:
            weights = leaf.coordinates(point)
        return weights, weights @ self.vertex_payloads(leaf)

    def _lookup(self, point: np.ndarray, key: tuple[float, ...] | None = None) -> tuple[Walk, np.ndarray | None]:
        """Counted walk of an already validated point (``key`` is its
        :meth:`_key`), and its coordinates in the leaf when they are known.

        A point bitwise equal to a stored vertex resumes that vertex's
        remembered walk; the rounded key alone does not qualify it.
        """
        vertex_id = self._vertex_ids.get(self._key(point) if key is None else key)
        if vertex_id is None or self._triangulation.vertex(vertex_id).tobytes() != point.tobytes():
            walk, weights = self._triangulation.walk(point), None
        else:
            walk, weights = self._walks.get(vertex_id, (None, None))
            if walk is None or walk.node.children:
                walk = self._triangulation.walk(point, walk)
                weights = walk.node.coordinates(point)
                self._walks[vertex_id] = (walk, weights)
        self.statistics.n_lookups += 1
        self.statistics.total_traversed += walk.visited
        return walk, weights

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Dimensionality D of the query domain."""
        return self._triangulation.dimension

    @property
    def value_dimension(self) -> int:
        """Dimensionality N of the payload vectors."""
        return self._value_dimension

    @property
    def epsilon(self) -> float:
        """The insert threshold ε."""
        return self._epsilon

    @property
    def default_value(self) -> np.ndarray:
        """Payload of the synthetic root vertices (copy)."""
        return self._default_value.copy()

    @property
    def tolerance(self) -> float:
        """The geometric tolerance."""
        return self._tolerance

    @property
    def root(self) -> TriangulationNode:
        """The root node of the simplex hierarchy."""
        return self._triangulation.root

    @property
    def root_simplex(self) -> Simplex:
        """The root simplex ``S_0``."""
        return self._triangulation.root.simplex

    @property
    def n_stored_points(self) -> int:
        """Number of feedback points stored as vertices (root corners excluded)."""
        return self._triangulation.n_points

    @property
    def n_simplices(self) -> int:
        """Total number of simplices in the tree."""
        return self._triangulation.n_simplices

    def depth(self) -> int:
        """Maximum leaf depth of the tree (maintained by insert, O(1))."""
        return self._triangulation.depth()

    @property
    def journal(self) -> list[tuple[np.ndarray, np.ndarray, str]]:
        """The ordered insert/update log (copies), used by persistence."""
        return [(point.copy(), payload.copy(), action) for point, payload, action in self._journal]

    # ------------------------------------------------------------------ #
    # Lookup / Predict
    # ------------------------------------------------------------------ #
    def contains(self, point) -> bool:
        """True when ``point`` lies inside the root simplex (i.e. is predictable)."""
        point = as_float_vector(point, name="point", dim=self.dimension)
        return self.root_simplex.contains(point, tolerance=self._tolerance)

    def locate(self, point) -> tuple[TriangulationNode, int]:
        """Return the leaf node whose simplex contains ``point`` and the path length.

        The point location every operation of the tree answers with — a
        stored vertex's remembered walk reaches the same leaf after the same
        count — walked from the root; it touches no counter.  Raises
        :class:`ValidationError` outside the root simplex.
        """
        point = as_float_vector(point, name="point", dim=self.dimension)
        return self._triangulation.locate(point)

    def lookup(self, point) -> tuple[TriangulationNode, int]:
        """:meth:`locate`, counted in :attr:`statistics` (a stored vertex
        resumes its remembered walk).

        Mirrors ``SimplexTree::Lookup`` in Figure 8 of the paper; the path
        length feeds the Figure 16 statistics.
        """
        point = as_float_vector(point, name="point", dim=self.dimension)
        leaf, _, visited = self._lookup(point)[0]
        return leaf, visited

    def vertex_payloads(self, leaf: TriangulationNode) -> np.ndarray:
        """The ``(D+1, N)`` payloads stored at the vertices of ``leaf`` (copy)."""
        return self._payloads.take(leaf.vertex_ids)

    def predict(self, point) -> np.ndarray:
        """Predict the payload at ``point`` (``SimplexTree::Predict`` in the paper).

        The prediction interpolates the payloads stored at the vertices of
        the enclosing leaf simplex; for a point outside the root simplex the
        default payload is returned (the system then simply behaves as if no
        feedback history existed for that query).
        """
        point = as_float_vector(point, name="point", dim=self.dimension)
        self.statistics.n_predictions += 1
        try:
            walk, weights = self._lookup(point)
        except ValidationError:  # outside the root simplex
            return self._default_value.copy()
        return self._interpolate(walk.node, point, weights)[1]

    def predict_batch(self, points) -> np.ndarray:
        """Predict the payloads for every row of ``points`` at once.

        Equivalent to ``np.vstack([self.predict(p) for p in points])`` —
        including the statistics counters — but points are first located,
        then grouped by enclosing leaf, so the leaf's payloads are gathered
        once per distinct leaf instead of once per point.
        """
        points = as_float_matrix(points, name="points", shape=(None, self.dimension))
        predictions = np.empty((points.shape[0], self._value_dimension), dtype=np.float64)
        self.statistics.n_predictions += points.shape[0]

        # Locate every point, bucketing rows by their enclosing leaf.
        rows_by_leaf: dict[int, tuple[TriangulationNode, list[tuple[int, np.ndarray | None]]]] = {}
        for row, point in enumerate(points):
            try:
                walk, weights = self._lookup(point)
            except ValidationError:  # outside the root simplex
                predictions[row] = self._default_value
                continue
            rows_by_leaf.setdefault(id(walk.node), (walk.node, []))[1].append((row, weights))

        # Interpolate per leaf: the payload matrix is gathered once and
        # reused for every point that landed in the same simplex.
        for leaf, rows in rows_by_leaf.values():
            payloads = self.vertex_payloads(leaf)
            for row, weights in rows:
                if weights is None:
                    weights = leaf.coordinates(points[row])
                predictions[row] = weights @ payloads
        return predictions

    # ------------------------------------------------------------------ #
    # Insert
    # ------------------------------------------------------------------ #
    def insert(self, point, value, *, force: bool = False) -> InsertOutcome:
        """Store the payload ``value`` for ``point`` (``SimplexTree::Insert``).

        The point is stored only when the current prediction misses ``value``
        by more than ε in some component (or ``force=True``).  If the point
        coincides with an already-stored vertex its payload is overwritten —
        the "already seen query" case, whose prediction then becomes exact.

        Returns an :class:`InsertOutcome` describing what happened.
        """
        point = as_float_vector(point, name="point", dim=self.dimension)
        value = as_float_vector(value, name="value", dim=self._value_dimension)
        # One walk: the leaf it finds serves the ε-gate's prediction and,
        # if the point is stored, the split.
        key = self._key(point)
        try:
            walk, weights = self._lookup(point, key)
        except ValidationError:
            raise ValidationError("cannot insert a point outside the root simplex") from None
        leaf = walk.node
        self.statistics.n_predictions += 1
        weights, prediction = self._interpolate(leaf, point, weights)
        error = float(np.max(np.abs(value - prediction)))

        vertex_id = self._vertex_ids.get(key)
        if vertex_id is not None:
            # Already-seen query: refresh its OQPs, no geometric change.
            return self._update(vertex_id, point, value, error)

        if not force and error <= self._epsilon:
            self.statistics.n_rejected_inserts += 1
            return InsertOutcome(action="skipped", prediction_error=error)

        try:
            vertex_id = self._triangulation.split(leaf, point, weights)
        except ValidationError:
            # The point is geometrically indistinguishable from an existing
            # vertex (within tolerance) even though its rounded key differs:
            # treat it as an update of the closest vertex.
            nearest_key = min(
                self._vertex_ids,
                key=lambda candidate: float(np.max(np.abs(np.asarray(candidate) - point))),
            )
            return self._update(self._vertex_ids[nearest_key], point, value, error)

        self._payloads.append(value)
        self._vertex_ids[key] = vertex_id
        # The walk ended at the leaf just split: the new vertex's next
        # lookup resumes there and walks one level.
        self._walks[vertex_id] = (walk, None)
        self.statistics.n_inserts += 1
        self._journal.append((point.copy(), value.copy(), "inserted"))
        return InsertOutcome(action="inserted", prediction_error=error)

    def _update(self, vertex_id: int, point: np.ndarray, value: np.ndarray, error: float) -> InsertOutcome:
        self._payloads.replace(vertex_id, value)
        self.statistics.n_updates += 1
        self._journal.append((point.copy(), value.copy(), "updated"))
        return InsertOutcome(action="updated", prediction_error=error)

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    def stored_points(self) -> np.ndarray:
        """Return the stored feedback points in insertion order, a read-only
        ``(n_stored_points, D)`` view of the vertex table (no copy)."""
        return self._triangulation.points

    def stored_payload(self, point) -> np.ndarray:
        """Return the payload stored exactly at ``point`` (error if absent)."""
        point = as_float_vector(point, name="point", dim=self.dimension)
        vertex_id = self._vertex_ids.get(self._key(point))
        if vertex_id is None:
            raise ValidationError("no payload stored at this point")
        return self._payloads.take(vertex_id).copy()

    def leaf_count(self) -> int:
        """Number of leaf simplices (maintained by insert, O(1))."""
        return self._triangulation.n_leaves

    def traversal_profile(self, points) -> tuple[float, int]:
        """Return (average simplices traversed, tree depth) over ``points``.

        This is the measurement behind Figure 16; it does not perturb the
        operation counters used elsewhere.
        """
        points = as_float_matrix(points, name="points", shape=(None, self.dimension))
        visits = []
        for point in points:
            try:
                visits.append(self._triangulation.locate(point)[1])
            except ValidationError:  # outside the root simplex
                continue
        average = float(np.mean(visits)) if visits else 0.0
        return average, self.depth()
