"""Barycentric coordinates on D-dimensional simplices.

A simplex in R^D is spanned by D+1 vertices ``s_1 .. s_{D+1}``.  Every point
``q`` in its affine hull has a unique representation

    q = sum_j lambda_j * s_j      with  sum_j lambda_j = 1.

The ``lambda_j`` are the *barycentric coordinates* of ``q``.  They drive both
the containment test used by Simplex-Tree lookups (all coordinates in
``[0, 1]``) and the prediction step: interpolating the stored optimal query
parameters with the barycentric weights is exactly the linear (unbalanced
Haar) interpolation of Section 4.2 of the paper — the determinant equation
given there is the implicit form of the same hyperplane.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ValidationError, as_float_matrix, as_float_vector


def _edge_matrix(vertices: np.ndarray) -> np.ndarray:
    """Return the D x D matrix of edge vectors ``s_j - s_1`` (j = 2..D+1)."""
    return (vertices[1:] - vertices[0]).T


def barycentric_coordinates(vertices, point, *, check: bool = True) -> np.ndarray:
    """Compute the barycentric coordinates of ``point`` w.r.t. ``vertices``.

    Parameters
    ----------
    vertices:
        ``(D+1, D)`` array of simplex vertices.
    point:
        length-``D`` query point.
    check:
        When true, validate the input shapes.

    Returns
    -------
    numpy.ndarray
        Length ``D+1`` vector ``lambda`` with ``sum(lambda) == 1``.

    Raises
    ------
    ValidationError
        If the shapes are inconsistent.
    numpy.linalg.LinAlgError
        If the simplex is degenerate (its edge matrix is singular).
    """
    if check:
        vertices = as_float_matrix(vertices, name="vertices")
        dim = vertices.shape[1]
        if vertices.shape[0] != dim + 1:
            raise ValidationError(
                f"a simplex in R^{dim} needs {dim + 1} vertices, got {vertices.shape[0]}"
            )
        point = as_float_vector(point, name="point", dim=dim)
    else:
        vertices = np.asarray(vertices, dtype=np.float64)
        point = np.asarray(point, dtype=np.float64)

    edges = _edge_matrix(vertices)
    rhs = point - vertices[0]
    tail = np.linalg.solve(edges, rhs)
    head = 1.0 - tail.sum()
    return np.concatenate(([head], tail))
