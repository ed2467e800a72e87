"""Quadratic (Mahalanobis-style) distances.

``d^2(p, q; W) = (p - q)^T W (p - q)`` with a symmetric positive
semi-definite matrix ``W`` — a "rotated" weighted Euclidean norm whose
iso-distance surfaces are arbitrarily oriented ellipsoids (Section 2).  The
paper's experiments do not use it (too many parameters for k <= 80 good
matches) but MindReader-style feedback does, so both the distance and the
full-matrix update are part of the substrate.
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import DistanceFunction, assemble_float32, check_precision
from repro.utils.validation import ValidationError, as_float_matrix


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2.0


class MahalanobisDistance(DistanceFunction):
    """Quadratic distance parameterised by a symmetric PSD matrix."""

    def __init__(self, dimension: int, matrix=None, *, validate_psd: bool = True) -> None:
        super().__init__(dimension)
        if matrix is None:
            matrix = np.eye(dimension, dtype=np.float64)
        matrix = as_float_matrix(matrix, name="matrix", shape=(dimension, dimension))
        matrix = _symmetrize(matrix)
        if validate_psd:
            eigenvalues = np.linalg.eigvalsh(matrix)
            if eigenvalues.min() < -1e-8 * max(1.0, abs(eigenvalues.max())):
                raise ValidationError("matrix must be positive semi-definite")
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        """The quadratic-form matrix (copy)."""
        return self._matrix.copy()

    @classmethod
    def from_covariance(cls, covariance, *, ridge: float = 1e-6) -> "MahalanobisDistance":
        """Build the distance whose matrix is the (ridge-regularised) inverse covariance."""
        covariance = as_float_matrix(covariance, name="covariance")
        if covariance.shape[0] != covariance.shape[1]:
            raise ValidationError("covariance must be square")
        dimension = covariance.shape[0]
        regularised = _symmetrize(covariance) + ridge * np.eye(dimension)
        return cls(dimension, matrix=np.linalg.inv(regularised))

    # ------------------------------------------------------------------ #
    # Parameter interface
    # ------------------------------------------------------------------ #
    @property
    def n_parameters(self) -> int:
        # Upper triangle including the diagonal: D * (D + 1) / 2 free values,
        # matching the paper's count of 31 * 32 / 2 = 496 for D = 31.
        return self.dimension * (self.dimension + 1) // 2

    def parameters(self) -> np.ndarray:
        indices = np.triu_indices(self.dimension)
        return self._matrix[indices].copy()

    def with_parameters(self, parameters) -> "MahalanobisDistance":
        parameters = np.asarray(parameters, dtype=np.float64)
        if parameters.shape != (self.n_parameters,):
            raise ValidationError(
                f"expected {self.n_parameters} parameters, got shape {parameters.shape}"
            )
        matrix = np.zeros((self.dimension, self.dimension), dtype=np.float64)
        indices = np.triu_indices(self.dimension)
        matrix[indices] = parameters
        matrix = matrix + np.triu(matrix, k=1).T
        return MahalanobisDistance(self.dimension, matrix=matrix, validate_psd=False)

    # ------------------------------------------------------------------ #
    # Distance computation
    # ------------------------------------------------------------------ #
    def distance(self, first, second) -> float:
        first = self._validate_point(first, "first")
        second = self._validate_point(second, "second")
        delta = first - second
        value = float(delta @ self._matrix @ delta)
        return float(np.sqrt(max(value, 0.0)))

    def distances_to(self, query, points) -> np.ndarray:
        query = self._validate_point(query, "query")
        points = self._validate_points(points)
        deltas = points - query
        # The same element-wise sequence for every row, so an object's bits do
        # not depend on which rows share the call (a three-operand einsum's do).
        transformed = deltas[:, :1] * self._matrix[0]
        for row in range(1, self.dimension):
            transformed += deltas[:, row : row + 1] * self._matrix[row]
        values = np.sum(transformed * deltas, axis=1)
        return np.sqrt(np.clip(values, 0.0, None))

    @property
    def pairwise_matches_rowwise(self) -> bool:
        return False

    def pairwise(self, queries, points, *, workspace=None, precision: str = "exact") -> np.ndarray:
        """Matrix form via the bilinear expansion ``d² = qᵀWq + pᵀWp - 2 qᵀWp``.

        ``W`` is applied once per side (two matrix products) instead of once
        per (query, point) pair.  The expansion differs from the row-wise
        einsum in the last bits, so ``pairwise_matches_rowwise`` is ``False``.

        The corpus :class:`~repro.database.collection.CorpusWorkspace`
        supplies the centred matrix (the mean and the ``(N, D)`` subtraction
        drop out of the per-batch path); the exact quadratic point norms
        still depend on ``W`` and are recomputed when the parameters change.

        ``precision="fast"`` returns the **squared** form values (no
        full-matrix clip + sqrt) from one float32 product against the
        workspace's float32 centred matrix; the query side and the point
        norms ``cᵀWc`` (cached by the workspace per ``W``) are computed in
        float64 — approximate candidate-selection output on a monotone
        scale, like every fast kernel.
        """
        check_precision(precision)
        queries = self._validate_points(queries, name="queries")
        points, cache = self._corpus(points, workspace)
        fast = precision == "fast"
        if cache is None:
            center = points.mean(axis=0)
            centered_points = points - center
            point_norms = np.einsum("ij,jk,ik->i", centered_points, self._matrix, centered_points)
            if fast:
                centered_points = centered_points.astype(np.float32)
        elif fast:
            center = cache.mean
            centered_points = cache.centered32
            point_norms = cache.point_norms(self._matrix)
        else:
            center = cache.mean
            centered_points = cache.centered
            point_norms = np.einsum("ij,jk,ik->i", centered_points, self._matrix, centered_points)
        queries = queries - center
        transformed_queries = queries @ self._matrix
        query_norms = np.einsum("ij,ij->i", transformed_queries, queries)
        if fast:
            return assemble_float32(
                -2.0 * transformed_queries, query_norms, centered_points, point_norms
            )
        squared = (
            query_norms[:, None] + point_norms[None, :] - 2.0 * transformed_queries @ centered_points.T
        )
        np.clip(squared, 0.0, None, out=squared)
        return np.sqrt(squared, out=squared)

    def term_bound(self, reach: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", reach @ np.abs(self._matrix), reach)
