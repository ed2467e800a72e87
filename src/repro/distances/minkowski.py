"""Minkowski (L_p) distances, optionally weighted.

``p = 1`` gives the Manhattan (city-block) distance and ``p = 2`` the
Euclidean distance, the two examples named in Section 2 of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import DistanceFunction, check_precision
from repro.utils.validation import ValidationError, as_float_vector, check_positive


class MinkowskiDistance(DistanceFunction):
    """Weighted L_p distance ``(sum_i w_i |x_i - y_i|^p)^(1/p)``.

    Parameters
    ----------
    dimension:
        Feature-space dimensionality D.
    order:
        The exponent ``p`` (>= 1).
    weights:
        Optional per-coordinate weights (default: all ones).
    """

    def __init__(self, dimension: int, order: float = 2.0, weights=None) -> None:
        super().__init__(dimension)
        self._order = check_positive(float(order), name="order")
        if self._order < 1.0:
            raise ValidationError(f"order must be >= 1 for a metric, got {self._order}")
        if weights is None:
            weights = np.ones(dimension, dtype=np.float64)
        self._weights = as_float_vector(weights, name="weights", dim=dimension)
        if np.any(self._weights < 0):
            raise ValidationError("weights must be non-negative")

    @property
    def order(self) -> float:
        """The L_p exponent."""
        return self._order

    @property
    def weights(self) -> np.ndarray:
        """Per-coordinate weights (copy)."""
        return self._weights.copy()

    # ------------------------------------------------------------------ #
    # Parameter interface
    # ------------------------------------------------------------------ #
    @property
    def n_parameters(self) -> int:
        return self.dimension

    def parameters(self) -> np.ndarray:
        return self._weights.copy()

    def with_parameters(self, parameters) -> "MinkowskiDistance":
        return MinkowskiDistance(self.dimension, order=self._order, weights=parameters)

    # ------------------------------------------------------------------ #
    # Distance computation
    # ------------------------------------------------------------------ #
    def distance(self, first, second) -> float:
        first = self._validate_point(first, "first")
        second = self._validate_point(second, "second")
        deltas = np.abs(first - second)
        return float(np.power(np.sum(self._weights * np.power(deltas, self._order)), 1.0 / self._order))

    def distances_to(self, query, points) -> np.ndarray:
        query = self._validate_point(query, "query")
        points = self._validate_points(points)
        deltas = np.abs(points - query)
        return np.power(np.sum(self._weights * np.power(deltas, self._order), axis=1), 1.0 / self._order)

    def pairwise(self, queries, points, *, workspace=None, precision: str = "exact") -> np.ndarray:
        """Matrix form by broadcasting the row computation over all queries.

        There is no product expansion for a general L_p norm, so the matrix
        is built from the same element-wise operations as
        :meth:`distances_to` (broadcast over a query chunk at a time to bound
        the ``(Q, N, D)`` intermediate); the results are therefore
        bit-identical to the row-wise form.  The exact path reads nothing
        from the workspace (an element-wise ``|p - q|^p`` kernel has nothing
        to reuse), but accepts it for the uniform :class:`KNNIndex` call shape.

        ``precision="fast"`` runs the same broadcast in float32 over the
        workspace's :attr:`~repro.database.collection.CorpusWorkspace.centered32`,
        read row by row through the transpose of its ``(D, N)`` layout (both
        sides centred in float64 first, so a large common offset costs no
        float32 bits), and returns the p-th **power sum** without
        the outer ``1/p`` root — a monotone transform of the distance, which
        is all candidate selection needs, and one full-matrix ``power`` call
        cheaper.  The result differs from the float64 row form in the low
        bits, so it is candidate-selection input like every fast matrix.
        """
        check_precision(precision)
        queries = self._validate_points(queries, name="queries")
        points, cache = self._corpus(points, workspace)
        if precision == "fast":
            if cache is None:
                center = points.mean(axis=0)
                points = (points - center).astype(np.float32)
            else:
                center, points = cache.mean, cache.centered32.T
            queries = (queries - center).astype(np.float32)
            weights = self._weights.astype(np.float32)
            dtype = np.float32
        else:
            weights = self._weights
            dtype = np.float64
        matrix = np.empty((queries.shape[0], points.shape[0]), dtype=dtype)
        chunk = max(1, 2_000_000 // max(points.shape[0] * points.shape[1], 1))
        for start in range(0, queries.shape[0], chunk):
            block = queries[start : start + chunk]
            deltas = np.abs(points[None, :, :] - block[:, None, :])
            power_sums = np.sum(weights * np.power(deltas, self._order), axis=2)
            if precision == "fast":
                matrix[start : start + chunk] = power_sums
            else:
                matrix[start : start + chunk] = np.power(power_sums, 1.0 / self._order)
        return matrix

    def term_bound(self, reach: np.ndarray) -> np.ndarray:
        return reach**self._order @ self._weights


def euclidean(dimension: int) -> MinkowskiDistance:
    """Unweighted Euclidean distance on R^D (the paper's default)."""
    return MinkowskiDistance(dimension, order=2.0)


def cityblock(dimension: int) -> MinkowskiDistance:
    """Unweighted Manhattan (L1) distance on R^D."""
    return MinkowskiDistance(dimension, order=1.0)
