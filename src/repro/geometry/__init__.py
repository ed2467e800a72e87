"""Computational-geometry substrate.

The Simplex Tree (Section 4 of the paper) rests on a handful of geometric
operations on D-dimensional simplices:

* barycentric coordinates of a point with respect to a simplex
  (:mod:`repro.geometry.barycentric`),
* containment / degeneracy predicates (:mod:`repro.geometry.predicates`),
* the :class:`~repro.geometry.simplex.Simplex` value object with splitting,
* the incremental triangulation used by the tree
  (:mod:`repro.geometry.triangulation`), and
* canonical root simplices that cover the query domain
  (:mod:`repro.geometry.bounding`).
"""

from repro.geometry.barycentric import (
    barycentric_coordinates,
)
from repro.geometry.bounding import (
    standard_simplex_vertices,
    unit_cube_root_vertices,
    bounding_simplex_for_points,
)
from repro.geometry.predicates import (
    contains_point,
    is_degenerate,
    simplex_volume,
)
from repro.geometry.simplex import Simplex
from repro.geometry.triangulation import IncrementalTriangulation

__all__ = [
    "barycentric_coordinates",
    "standard_simplex_vertices",
    "unit_cube_root_vertices",
    "bounding_simplex_for_points",
    "contains_point",
    "is_degenerate",
    "simplex_volume",
    "Simplex",
    "IncrementalTriangulation",
]
