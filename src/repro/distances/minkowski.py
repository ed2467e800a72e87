"""Minkowski (L_p) distances, optionally weighted.

``p = 1`` gives the Manhattan (city-block) distance and ``p = 2`` the
Euclidean distance, the two examples named in Section 2 of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import DistanceFunction
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

    def block_kernel(self, queries: np.ndarray, centred: np.ndarray, precision: str) -> "PowerSumKernel":
        """The row computation broadcast over all queries (:class:`PowerSumKernel`)."""
        return PowerSumKernel(self, queries, centred, precision)

    def term_bound(self, reach: np.ndarray) -> np.ndarray:
        return reach**self._order @ self._weights


class PowerSumKernel:
    """The weighted L_p matrix of one request's query rows, by broadcasting.

    There is no product expansion for a general L_p norm: the matrix is the
    element-wise form of :meth:`MinkowskiDistance.distances_to`, broadcast
    over a query chunk at a time, so exact results are bit-identical to it.
    ``"fast"`` runs the broadcast in float32 against the transpose of
    ``centered32`` (queries centred in float64, cast once) and returns the
    p-th **power sum** without the root: monotone in the distance,
    candidate-selection input like every fast matrix.
    """

    __slots__ = ("order", "precision", "_queries", "_weights")

    norms = None

    def __init__(
        self, distance: MinkowskiDistance, queries: np.ndarray, centred: np.ndarray, precision: str
    ) -> None:
        self.order, self.precision = distance.order, precision
        if precision == "fast":
            self._queries = centred.astype(np.float32)
            self._weights = distance._weights.astype(np.float32)
        else:
            self._queries, self._weights = queries, distance._weights

    def __call__(self, view) -> np.ndarray:
        fast = self.precision == "fast"
        points = view.centered32.T if fast else view.matrix
        queries, weights = self._queries, self._weights
        matrix = np.empty((queries.shape[0], points.shape[0]), dtype=queries.dtype)
        chunk = max(1, 2_000_000 // max(points.shape[0] * points.shape[1], 1))
        for start in range(0, queries.shape[0], chunk):
            block = queries[start : start + chunk]
            deltas = np.abs(points[None, :, :] - block[:, None, :])
            power_sums = np.sum(weights * np.power(deltas, self.order), axis=2)
            if fast:
                matrix[start : start + chunk] = power_sums
            else:
                matrix[start : start + chunk] = np.power(power_sums, 1.0 / self.order)
        return matrix


def euclidean(dimension: int) -> MinkowskiDistance:
    """Unweighted Euclidean distance on R^D (the paper's default)."""
    return MinkowskiDistance(dimension, order=2.0)


def cityblock(dimension: int) -> MinkowskiDistance:
    """Unweighted Manhattan (L1) distance on R^D."""
    return MinkowskiDistance(dimension, order=1.0)
