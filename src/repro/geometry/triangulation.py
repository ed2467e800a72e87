"""Incremental triangulation of the query domain.

This is the purely geometric core of the Simplex Tree: starting from a root
simplex that covers the domain, every inserted point splits its enclosing
leaf simplex into (up to) D+1 children (Section 4.1 of the paper).  The class
here tracks only geometry — which simplices exist, which are leaves, which
points were inserted — while :class:`repro.core.simplex_tree.SimplexTree`
adds the OQP payloads and the wavelet interpolation on top.

Keeping the triangulation separate makes it independently testable: the key
invariants (leaves partition the root, every inserted point is a vertex,
leaf count grows by at most D per insert) are properties of this class alone.

**Geometry is stored once.**  Every vertex lives in one growing
:class:`RowTable` (the root corners, then the inserted points in order); a
node is D+1 row ids into it, and ``node.simplex`` gathers those rows into a
:class:`~repro.geometry.simplex.Simplex` on demand.

**Point location by barycentric ratio.**  The reference rule descends from
a node into *the first child, in order, whose barycentric coordinates of the
point all lie in* ``[-tolerance, 1 + tolerance]`` (when no child accepts:
the child whose smallest coordinate is largest), each child tested by its
own linear solve.  :meth:`IncrementalTriangulation.locate` reaches the same
decisions with one solve at the root and no solve below it.  A split records
the barycentric coordinates ``mu`` of its split point in the parent (the
split's containment test computes them anyway) and which vertex ``h`` each
kept child replaced; if ``lam`` are the coordinates of a point in the
parent, its coordinates in child ``h`` follow in closed form::

    C[h, h] = lam[h] / mu[h]
    C[h, j] = lam[j] - (lam[h] / mu[h]) * mu[j]        (j != h)

— one O(D²) expression for all children of a level.  The rule is applied to
``C`` only where ``C`` is sure to decide as the solves would (the argument
is written at ``DECISION_MARGIN``).  Everywhere else that node is decided by
the per-child solves themselves, and the chosen child's solved coordinates
replace ``lam``, so the closed form restarts from exact values.

**A walk can be resumed.**  The loop of :meth:`IncrementalTriangulation.walk`
carries ``(node, weights, visited)`` from level to level, and that state is
a function of the point and of the nodes above ``node`` alone.  A split only
turns a leaf into an inner node — it never changes ``children``,
``split_weights``, ``replaced`` or ``trusted`` of a node that has them — so
the state a walk ended in at a leaf is still the state a walk of the same
point from the root reaches at that node after any number of later splits.
Continuing the loop from it (:class:`Walk`) therefore finds the same leaf
after the same number of visited nodes, with the same bits.

**A split certifies its children from one inverse.**  Every child's edge
matrix is a rank-one update of its leaf's ``M``: child ``h >= 1`` replaces
row ``h-1``, ``M + e_{h-1} (q - s_h)^T``; child 0 moves the base vertex,
``M - 1 (q - s_0)^T``.  From ``A = M^-1`` Sherman–Morrison gives every
child's inverse in O(D²), and ``1 / (‖E‖_F ‖E^-1‖_F)`` is a lower bound on
``sigma_min / sigma_max`` (``sigma_max <= ‖E‖_F``, ``1 / sigma_min <=
‖E^-1‖_F``).  A child whose bound is at least ``CERTIFY_FACTOR`` times the
closed-form floor (and the degeneracy tolerance) is kept and trusted without
further work; only the others go to the SVD, which decides them exactly as
:meth:`Simplex.split` does.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.geometry.barycentric import barycentric_coordinates
from repro.geometry.simplex import Simplex
from repro.utils.validation import ValidationError, as_float_vector

#: The closed form decides a node only where every coordinate it relies on —
#: one rejecting coordinate of each earlier child, every coordinate of the
#: chosen child — stays at least this far from both edges of the tolerance
#: band, in units of ``max(1, largest |coordinate| of that child)``.
#:
#: Why that is enough.  The closed form and the reference solve are two
#: roundings of the same real coordinates, so they decide alike wherever
#: their errors together are smaller than the distance of those coordinates
#: from the edge.
#:
#: * The solve is LU with partial pivoting: relative to the largest
#:   coordinate it is off by at most about ``(D+1) * eps * kappa``, with
#:   ``kappa = sigma_max / sigma_min`` of the child's edge matrix.
#: * The closed form starts from such a solve at most ``ANCHOR_EVERY`` levels
#:   up and uses another one, ``mu``, at each level.  A level is three flops
#:   per coordinate; the one factor that amplifies what it inherits,
#:   ``max|mu| / |mu[h]|``, is the factor by which child ``h`` is thinner
#:   than its parent, so the closed form's error grows with ``kappa`` of the
#:   child it enters, as the solve's does: about two solves' worth per level.
#: * ``kappa`` is known — the split's degeneracy test computes
#:   ``sigma_min / sigma_max`` of every child — and the closed form is not
#:   used at a node, nor to reject or choose a child, where that ratio is
#:   below ``TRUST_FACTOR * (D+1) * eps / DECISION_MARGIN`` (1.1e-6 at
#:   D = 31; the split keeps children down to ``tolerance``, 1e-9).  Those
#:   nodes are decided by the solves.
#:
#: Where the closed form is used, the two errors therefore add up to less
#: than ``DECISION_MARGIN`` in those units.  Measured over every closed-form
#: decision of ``tests/test_core_locate_equivalence.py`` (which keeps the
#: child-by-child walk as the oracle): the two differ by 1.1e-13 at most on
#: the labelled corpus and 1.8e-11 on trees 24 levels deep.  ``1e-7`` is a
#: hundred times the default tolerance, so what falls inside the margin are
#: points on a face of the node — a stored vertex looked up again has
#: coordinates of exactly 0, within 1e-9 of the band's edge — and there the
#: solves decide, as they always did.
DECISION_MARGIN = 1e-7

#: The closed form is carried at most this many levels from a solve: every
#: ``ANCHOR_EVERY``-th visited node re-solves for the point's coordinates, so
#: rounding cannot pile up along a deep path.
ANCHOR_EVERY = 8

#: How many times a solve's worst-case error must fit into the margin for a
#: child to be left to the closed form: two per level it may have come.
TRUST_FACTOR = 2.0 * ANCHOR_EVERY

#: A split skips the SVD of a child whose Sherman–Morrison bound on
#: ``sigma_min / sigma_max`` is at least this many times the larger of the
#: closed-form floor and the degeneracy tolerance: the child is then kept
#: and trusted, as the SVD would decide.  The factor absorbs the rounding of
#: the bound itself — the inverse is only formed for a leaf at or above the
#: floor, so it is accurate to about ``(D+1) * eps / floor`` (6e-9 at
#: D = 31), a long way inside a factor of two.
CERTIFY_FACTOR = 2.0


class RowTable:
    """An append-only ``(n, width)`` float64 table with O(1) amortised append.

    Rows keep their index for life, so an index is a stable id.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self._data = np.array(rows, dtype=np.float64, order="C")
        self._size = self._data.shape[0]

    def __len__(self) -> int:
        return self._size

    def append(self, row: np.ndarray) -> int:
        """Store ``row`` and return its id."""
        if self._size == self._data.shape[0]:
            grown = np.empty((2 * self._size, self._data.shape[1]), dtype=np.float64)
            grown[: self._size] = self._data
            self._data = grown
        self._data[self._size] = row
        self._size += 1
        return self._size - 1

    def take(self, ids: np.ndarray) -> np.ndarray:
        """Return the rows ``ids`` as a fresh C-contiguous matrix."""
        return self._data[ids]

    def replace(self, row_id: int, row: np.ndarray) -> None:
        """Overwrite row ``row_id``."""
        self._data[row_id] = row

    def rows(self, start: int = 0) -> np.ndarray:
        """Read-only view of rows ``start`` onwards (no copy)."""
        view = self._data[start : self._size]
        view.setflags(write=False)
        return view


class TriangulationNode:
    """A node of the triangulation hierarchy.

    Attributes
    ----------
    vertex_ids:
        The D+1 ids of the node's vertices in the triangulation's vertex
        table, in vertex order.
    depth:
        Distance from the root.
    children:
        The kept children of the split, in order (empty for a leaf).
    rcond:
        A lower bound on ``sigma_min / sigma_max`` of the node's edge matrix,
        from the split that created it: the SVD's exact ratio, or — for a
        child the split certified — its Sherman–Morrison bound, at least
        ``CERTIFY_FACTOR`` times the closed-form floor and the tolerance.  It
        is only ever compared against those, which both sides of it clear
        alike.
    split_weights, replaced:
        Inner nodes only: the barycentric coordinates of the split point in
        this node, and for each child the position of the vertex it replaced
        with the split point.
    trusted:
        Inner nodes only: how many leading children the closed form may
        decide (see ``DECISION_MARGIN``).
    """

    __slots__ = (
        "vertex_ids", "depth", "rcond", "children", "split_weights", "replaced", "trusted", "_vertices",
    )

    def __init__(self, vertices: RowTable, vertex_ids: np.ndarray, depth: int, rcond: float) -> None:
        self._vertices = vertices
        self.vertex_ids = vertex_ids
        self.depth = depth
        self.rcond = rcond
        self.children: tuple["TriangulationNode", ...] = ()
        self.split_weights: np.ndarray | None = None
        self.replaced: np.ndarray | None = None
        self.trusted = 0

    @property
    def is_leaf(self) -> bool:
        """True when the node has not been split."""
        return not self.children

    @property
    def vertices(self) -> np.ndarray:
        """The node's ``(D+1, D)`` vertex matrix, gathered from the table."""
        return self._vertices.take(self.vertex_ids)

    @property
    def simplex(self) -> Simplex:
        """The node's simplex, materialised on demand (not cached)."""
        return Simplex(self.vertices)

    def coordinates(self, point: np.ndarray) -> np.ndarray:
        """Barycentric coordinates of ``point`` in this node, by the reference solve."""
        return barycentric_coordinates(self.vertices, point, check=False)


class Walk(NamedTuple):
    """Where the locate loop stands: at ``node``, with the point's
    coordinates ``weights`` in it, after ``visited`` nodes (``node``
    included).  A walk that ended at a leaf resumes from here once that leaf
    is split (see the module docstring)."""

    node: TriangulationNode
    weights: np.ndarray
    visited: int


def _in_band(weights: np.ndarray, tolerance: float) -> bool:
    return bool(np.all(weights >= -tolerance) and np.all(weights <= 1.0 + tolerance))


def _rcond(singular: np.ndarray) -> np.ndarray:
    """``sigma_min / sigma_max`` along the last axis (nan for a zero matrix)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return singular[..., -1] / singular[..., 0]


class IncrementalTriangulation:
    """Hierarchical triangulation driven by point insertions.

    Parameters
    ----------
    root_vertices:
        ``(D+1, D)`` array with the vertices of the root simplex ``S_0``.
    tolerance:
        Numerical tolerance used by containment and degeneracy tests.
    """

    def __init__(self, root_vertices, *, tolerance: float = 1e-9) -> None:
        root = Simplex(root_vertices)
        singular = np.linalg.svd(root.vertices[1:] - root.vertices[0], compute_uv=False)
        self._positions = np.arange(root.n_vertices)
        self._vertices = RowTable(root.vertices)
        self._root = TriangulationNode(self._vertices, self._positions, 0, float(_rcond(singular)))
        self._tolerance = float(tolerance)
        self._rcond_floor = TRUST_FACTOR * root.n_vertices * np.finfo(np.float64).eps / DECISION_MARGIN
        self._n_simplices = 1
        self._n_leaves = 1
        self._depth = 0

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Dimensionality of the triangulated space."""
        return len(self._positions) - 1

    @property
    def root(self) -> TriangulationNode:
        """The root node."""
        return self._root

    @property
    def n_points(self) -> int:
        """Number of successfully inserted points."""
        return len(self._vertices) - len(self._positions)

    @property
    def n_simplices(self) -> int:
        """Total number of simplices (inner nodes + leaves) ever created."""
        return self._n_simplices

    @property
    def n_leaves(self) -> int:
        """Number of leaf simplices (maintained by :meth:`split`)."""
        return self._n_leaves

    @property
    def points(self) -> np.ndarray:
        """Inserted points in insertion order, a read-only ``(n_points, D)`` view."""
        return self._vertices.rows(len(self._positions))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def locate(self, point) -> tuple[TriangulationNode, int]:
        """Return the leaf node containing ``point`` and the number of nodes visited.

        Raises
        ------
        ValidationError
            If ``point`` lies outside the root simplex.
        """
        point = as_float_vector(point, name="point", dim=self.dimension)
        leaf, _, visited = self.walk(point)
        return leaf, visited

    def walk(self, point: np.ndarray, start: Walk | None = None) -> Walk:
        """Walk a validated ``point`` down to its leaf; return the final state.

        ``start`` resumes the walk from a state an earlier walk of the same
        point ended in — exact, since the state depends only on the point
        and the nodes above it.  Without it the walk starts at the root and
        raises :class:`ValidationError` outside it.
        """
        if start is None:
            weights = self._accepted(self._root, point)
            if weights is None:
                raise ValidationError("point lies outside the root simplex")
            node, visited = self._root, 1
        else:
            node, weights, visited = start
        while node.children:
            if visited % ANCHOR_EVERY == 0 and node.trusted:
                weights = node.coordinates(point)
            node, weights = self._descend(node, weights, point)
            visited += 1
        # A copy: a row of the closed form's matrix would keep it all alive.
        return Walk(node, weights.copy(), visited)

    def vertex(self, vertex_id: int) -> np.ndarray:
        """The row of vertex ``vertex_id`` (a view; do not write to it)."""
        return self._vertices.take(vertex_id)

    def _accepted(self, node: TriangulationNode, point: np.ndarray) -> np.ndarray | None:
        """The reference containment test: the coordinates if ``node`` accepts, else None."""
        try:
            weights = node.coordinates(point)
        except np.linalg.LinAlgError:
            return None
        return weights if _in_band(weights, self._tolerance) else None

    def _descend(
        self, node: TriangulationNode, weights: np.ndarray, point: np.ndarray
    ) -> tuple[TriangulationNode, np.ndarray]:
        """One level down from inner ``node``; ``weights`` are the point's coordinates in it."""
        if not node.trusted:
            return self._descend_by_solves(node, point)
        tolerance = self._tolerance
        replaced = node.replaced
        with np.errstate(all="ignore"):
            ratio = weights[replaced] / node.split_weights[replaced]
            coords = weights - ratio[:, None] * node.split_weights
            coords[self._positions[: len(replaced)], replaced] = ratio
            low = coords.min(axis=1)
            high = coords.max(axis=1)
            slack = DECISION_MARGIN * np.maximum(1.0, np.maximum(high, -low))
            rejects = (low < -tolerance - slack) | (high > 1.0 + tolerance + slack)
        first = int(rejects.argmin())  # first child not surely rejected
        if (
            first < node.trusted
            and not rejects[first]
            and low[first] > -tolerance + slack[first]
            and high[first] < 1.0 + tolerance - slack[first]
        ):
            return node.children[first], coords[first]
        return self._descend_by_solves(node, point)

    def _descend_by_solves(
        self, node: TriangulationNode, point: np.ndarray
    ) -> tuple[TriangulationNode, np.ndarray]:
        """The reference rule itself, one solve per child."""
        for child in node.children:
            weights = self._accepted(child, point)
            if weights is not None:
                return child, weights
        # Numerical corner case: the point sits on a face shared by children
        # but each strict test rejected it.  Fall back to the child whose
        # most-negative barycentric coordinate is largest.
        child = max(node.children, key=lambda child: float(np.min(child.coordinates(point))))
        return child, child.coordinates(point)

    def leaves(self) -> list[TriangulationNode]:
        """Return every leaf node (depth-first order)."""
        result: list[TriangulationNode] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                result.append(node)
            else:
                stack.extend(reversed(node.children))
        return result

    def depth(self) -> int:
        """Return the maximum leaf depth (root alone has depth 0)."""
        return self._depth

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert(self, point) -> TriangulationNode:
        """Insert ``point``, splitting its enclosing leaf.

        Returns the (former) leaf node that was split.  Raises
        :class:`ValidationError` when the point is outside the root simplex or
        coincides with an existing vertex (in which case no split is needed).
        """
        point = as_float_vector(point, name="point", dim=self.dimension)
        leaf, _ = self.locate(point)
        self.split(leaf, point)
        return leaf

    def split(self, leaf: TriangulationNode, point, weights: np.ndarray | None = None) -> int:
        """Split ``leaf`` around ``point`` and return the new vertex's id.

        The kept children are those of ``leaf.simplex.split(point,
        tolerance=...)`` — same vertices, same order, same omissions, same
        errors.  Children the Sherman–Morrison bound certifies need no SVD;
        the others are decided by one batched SVD, as each child's own
        degeneracy test would.  ``weights``, when given, must be
        ``leaf.coordinates(point)`` (a caller that already solved on the leaf
        passes it to save the solve).
        """
        point = as_float_vector(point, name="point", dim=self.dimension)
        if leaf.children:
            raise ValidationError("only a leaf can be split")
        tolerance = self._tolerance
        if weights is None:
            weights = self._accepted(leaf, point)
        elif not _in_band(weights, tolerance):
            weights = None
        if weights is None:
            raise ValidationError("split point must lie inside the simplex")
        vertices = leaf.vertices
        # np.isclose(vertices, point, atol=tolerance) for finite rows.
        if np.any(np.all(np.abs(vertices - point) <= tolerance + 1e-5 * np.abs(point), axis=1)):
            raise ValidationError("split point coincides with an existing vertex")

        # Child h is the leaf with vertex h replaced by the point.
        positions = self._positions
        rcond = np.full(len(positions), np.nan)
        if leaf.rcond >= self._rcond_floor:
            rcond = self._bound_children(vertices, point)
        doubtful = positions[~(rcond >= CERTIFY_FACTOR * max(self._rcond_floor, tolerance))]
        if len(doubtful):
            stack = np.repeat(vertices[None], len(doubtful), axis=0)
            stack[positions[: len(doubtful)], doubtful] = point
            singular = np.linalg.svd(stack[:, 1:] - stack[:, :1], compute_uv=False)
            rcond[doubtful] = np.where(singular[:, 0] == 0.0, np.nan, _rcond(singular))
        kept = rcond >= tolerance
        replaced, rcond = positions[kept], rcond[kept]
        if not len(replaced):
            raise ValidationError("split produced no non-degenerate children")

        vertex_id = self._vertices.append(point)
        child_ids = np.repeat(leaf.vertex_ids[None], len(replaced), axis=0)
        child_ids[positions[: len(replaced)], replaced] = vertex_id
        leaf.children = tuple(
            TriangulationNode(self._vertices, ids, leaf.depth + 1, float(ratio))
            for ids, ratio in zip(child_ids, rcond)
        )
        leaf.split_weights = weights
        leaf.replaced = replaced
        thin = rcond < self._rcond_floor
        if leaf.rcond >= self._rcond_floor:
            leaf.trusted = int(thin.argmax()) if thin.any() else len(replaced)
        self._n_simplices += len(replaced)
        self._n_leaves += len(replaced) - 1
        self._depth = max(self._depth, leaf.depth + 1)
        return vertex_id

    @staticmethod
    def _bound_children(vertices: np.ndarray, point: np.ndarray) -> np.ndarray:
        """``1 / (‖E_h‖_F ‖E_h^-1‖_F)`` for every child ``h`` of a split of
        ``vertices`` around ``point``: a lower bound on its ``sigma_min /
        sigma_max`` (nan where the leaf's inverse cannot be formed).

        With ``A`` the inverse of the leaf's edge matrix ``M`` (rows ``s_j -
        s_0``), child ``h`` is ``M + u_h w_h^T`` with ``w_h = point - s_h``
        and ``u_h = e_{h-1}`` (``-1`` for ``h = 0``).  By Sherman–Morrison
        its inverse is ``A - x_h y_h^T / c_h`` with ``x_h = A u_h``, ``y_h =
        A^T w_h`` and ``c_h = 1 + y_h . u_h``, so

            ‖E_h^-1‖_F² = ‖A‖_F² - 2 x_h.(A y_h) / c_h + ‖x_h‖² ‖y_h‖² / c_h²

        — O(D²) per child.  The sum is taken with its own rounding added
        (``(D+1) * eps`` per unit of ``(‖A‖_F + ‖x_h‖ ‖y_h‖ / |c_h|)²``), so a
        cancellation can only lower the bound.
        """
        edges = vertices[1:] - vertices[0]
        try:
            inverse = np.linalg.inv(edges)
        except np.linalg.LinAlgError:
            return np.full(len(vertices), np.nan)
        shifts = point - vertices  # w_h, one row per child
        columns = np.vstack([-inverse.sum(axis=1), inverse.T])  # x_h
        rows = shifts @ inverse  # y_h
        pivots = np.concatenate(([1.0 - rows[0].sum()], 1.0 + np.diagonal(rows[1:])))  # c_h
        inverse_sq = np.einsum("ij,ij->", inverse, inverse)
        cross = np.einsum("ij,ij->i", columns @ inverse, rows)
        product = np.sqrt(np.einsum("ij,ij->i", columns, columns) * np.einsum("ij,ij->i", rows, rows))
        edge_rows = np.einsum("ij,ij->i", edges, edges)
        shift_rows = np.einsum("ij,ij->i", shifts, shifts)
        edge_sq = np.concatenate(([shift_rows[1:].sum()], edge_rows.sum() - edge_rows + shift_rows[0]))
        with np.errstate(all="ignore"):
            spread = product / np.abs(pivots)
            rounding = len(vertices) * np.finfo(np.float64).eps * (np.sqrt(inverse_sq) + spread) ** 2
            child_sq = inverse_sq - 2.0 * cross / pivots + spread**2 + rounding
            return 1.0 / np.sqrt(edge_sq * child_sq)
