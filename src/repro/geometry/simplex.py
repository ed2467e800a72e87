"""The :class:`Simplex` value object.

A simplex is an interval of R^D spanned by D+1 vertices.  The Simplex Tree
(Section 4 of the paper) organises the query domain as a hierarchy of such
intervals; this module provides the purely geometric part — containment,
barycentric coordinates, volume and the D+1-way split used on insertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.barycentric import barycentric_coordinates
from repro.geometry.predicates import contains_point, is_degenerate, simplex_volume
from repro.utils.validation import ValidationError, as_float_matrix, as_float_vector


@dataclass(frozen=True)
class Simplex:
    """An immutable D-dimensional simplex.

    Attributes
    ----------
    vertices:
        ``(D+1, D)`` array; row ``j`` is vertex ``s_{j+1}``.
    """

    vertices: np.ndarray = field()

    def __post_init__(self) -> None:
        vertices = as_float_matrix(self.vertices, name="vertices")
        dim = vertices.shape[1]
        if vertices.shape[0] != dim + 1:
            raise ValidationError(
                f"a simplex in R^{dim} needs {dim + 1} vertices, got {vertices.shape[0]}"
            )
        vertices = vertices.copy()
        vertices.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Dimensionality D of the embedding space."""
        return int(self.vertices.shape[1])

    @property
    def n_vertices(self) -> int:
        """Number of vertices, always D+1."""
        return int(self.vertices.shape[0])

    def vertex(self, index: int) -> np.ndarray:
        """Return a copy of vertex ``index`` (0-based)."""
        return np.array(self.vertices[index], dtype=np.float64)

    def volume(self) -> float:
        """Return the D-dimensional volume."""
        return simplex_volume(self.vertices)

    def is_degenerate(self, tolerance: float = 1e-9) -> bool:
        """Return True when the vertices are (numerically) affinely dependent."""
        return is_degenerate(self.vertices, tolerance=tolerance)

    # ------------------------------------------------------------------ #
    # Point queries
    # ------------------------------------------------------------------ #
    def contains(self, point, tolerance: float = 1e-9) -> bool:
        """Return True when ``point`` lies inside or on the boundary."""
        point = as_float_vector(point, name="point", dim=self.dimension)
        return contains_point(self.vertices, point, tolerance=tolerance)

    def barycentric_coordinates(self, point) -> np.ndarray:
        """Return the barycentric coordinates of ``point``."""
        point = as_float_vector(point, name="point", dim=self.dimension)
        return barycentric_coordinates(self.vertices, point, check=False)

    # ------------------------------------------------------------------ #
    # Splitting
    # ------------------------------------------------------------------ #
    def split(self, point, *, tolerance: float = 1e-9) -> list["Simplex"]:
        """Split this simplex around an interior ``point``.

        Following Section 4.1 of the paper, the split replaces one vertex at a
        time with ``point``, producing up to D+1 child simplices

            S_h = {s_j | j != h} ∪ {q},   1 <= h <= D+1,

        which partition the parent.  Children that would be degenerate —
        which happens when ``point`` lies on the face opposite the replaced
        vertex — are omitted, so a point on a face yields fewer than D+1
        children while still covering the parent.

        Raises
        ------
        ValidationError
            If ``point`` is outside the simplex or coincides with a vertex.
        """
        point = as_float_vector(point, name="point", dim=self.dimension)
        if not self.contains(point, tolerance=tolerance):
            raise ValidationError("split point must lie inside the simplex")
        if np.any(np.all(np.isclose(self.vertices, point, atol=tolerance), axis=1)):
            raise ValidationError("split point coincides with an existing vertex")

        children: list[Simplex] = []
        for replaced in range(self.n_vertices):
            child_vertices = np.array(self.vertices, dtype=np.float64)
            child_vertices[replaced] = point
            if is_degenerate(child_vertices, tolerance=tolerance):
                continue
            children.append(Simplex(child_vertices))
        if not children:
            raise ValidationError("split produced no non-degenerate children")
        return children

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Simplex(dimension={self.dimension}, volume={self.volume():.3g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Simplex):
            return NotImplemented
        return self.vertices.shape == other.vertices.shape and bool(
            np.allclose(self.vertices, other.vertices)
        )

    def __hash__(self) -> int:
        return hash(self.vertices.tobytes())
