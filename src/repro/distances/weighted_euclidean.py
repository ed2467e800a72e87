"""The weighted Euclidean distance of Equation 1.

This is the retrieval model the paper's experiments use: 32-bin colour
histograms compared with ``L2W(p, q; W) = (sum_i w_i (p_i - q_i)^2)^(1/2)``,
where the weight vector ``W`` is what the re-weighting feedback strategy
adjusts and FeedbackBypass predicts.
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import DistanceFunction, block_workspace, check_precision
from repro.utils.validation import ValidationError, as_float_vector


class WeightedEuclideanDistance(DistanceFunction):
    """Weighted Euclidean distance with non-negative per-coordinate weights."""

    def __init__(self, dimension: int, weights=None) -> None:
        super().__init__(dimension)
        if weights is None:
            weights = np.ones(dimension, dtype=np.float64)
        self._weights = as_float_vector(weights, name="weights", dim=dimension)
        if np.any(self._weights < 0):
            raise ValidationError("weights must be non-negative")

    @property
    def weights(self) -> np.ndarray:
        """Per-coordinate weights (copy)."""
        return self._weights.copy()

    @classmethod
    def default(cls, dimension: int) -> "WeightedEuclideanDistance":
        """The default (unweighted) Euclidean distance used before any feedback."""
        return cls(dimension)

    def is_default(self, tolerance: float = 1e-12) -> bool:
        """True when every weight equals one (i.e. plain Euclidean)."""
        return bool(np.allclose(self._weights, 1.0, atol=tolerance))

    # ------------------------------------------------------------------ #
    # Parameter interface
    # ------------------------------------------------------------------ #
    def parameters(self) -> np.ndarray:
        return self._weights.copy()

    def with_parameters(self, parameters) -> "WeightedEuclideanDistance":
        return WeightedEuclideanDistance(self.dimension, weights=parameters)

    # ------------------------------------------------------------------ #
    # Distance computation
    # ------------------------------------------------------------------ #
    def distance(self, first, second) -> float:
        first = self._validate_point(first, "first")
        second = self._validate_point(second, "second")
        deltas = first - second
        return float(np.sqrt(np.sum(self._weights * deltas * deltas)))

    def distances_to(self, query, points) -> np.ndarray:
        query = self._validate_point(query, "query")
        return weighted_distances(query, self._validate_points(points), self._weights)

    def block_kernel(self, queries: np.ndarray, centred: np.ndarray, precision: str) -> "GramKernel":
        """The Gram expansion ``d² = |q|² + |p|² - 2 q·p`` under these weights (:class:`GramKernel`).

        One BLAS matrix product replaces Q row scans, which is what makes
        batched k-NN worthwhile.  The expansion loses a few low-order bits to
        cancellation; the data is centred on the point cloud's mean first so
        the error stays proportional to the distance scale rather than the
        coordinate scale.  ``precision="fast"`` returns the float32
        **squared** distances (candidate selection is monotone in d², so the
        clip + sqrt over the full matrix is skipped); ``"exact"`` the float64
        distances.
        """
        return GramKernel(centred, self._weights, precision)

    def term_bound(self, reach: np.ndarray) -> np.ndarray:
        return reach**2 @ self._weights

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WeightedEuclideanDistance(dimension={self.dimension}, "
            f"default={self.is_default()})"
        )


def weighted_distances(query, points, weights) -> np.ndarray:
    """Exact ``L2W`` from ``query`` to every row of ``points``: one expression for every caller."""
    deltas = points - query
    return np.sqrt((weights * deltas * deltas).sum(axis=1))


class GramKernel:
    """The weighted Gram expansion over one request's query rows.

    ``weights`` is a shared ``(D,)`` vector or one ``(Q, D)`` row per query.
    The query side is formed once: the weighted centred points, their
    float64 norms ``Σ_d w_d·c_d²`` (:attr:`norms`) and, for ``"fast"``, the
    float32 ``-2·(c∘w)`` cross matrix.  A block then costs one product
    against the dimension-major centred corpus (query-major result) plus its
    point norms — cached for shared weights, ``W @ centered_squared32`` per
    row — and returns the float32 **squared** distances (candidate-selection
    input, not final distances), or in float64 the clipped root.
    """

    __slots__ = ("weights", "precision", "norms", "_cross", "_offsets", "_weights32")

    def __init__(self, centred: np.ndarray, weights: np.ndarray, precision: str) -> None:
        weighted = centred * weights
        self.weights, self.precision = weights, precision
        self.norms = np.einsum("ij,ij->i", weighted, centred)
        if precision == "fast":
            self._cross = (-2.0 * weighted).astype(np.float32)
            self._offsets = self.norms.astype(np.float32)[:, None]
            self._weights32 = weights.astype(np.float32) if weights.ndim == 2 else None
        else:
            self._cross = 2.0 * weighted

    def __call__(self, view) -> np.ndarray:
        if self.precision == "fast":
            matrix = self._cross @ view.centered32
            if self._weights32 is None:
                matrix += view.point_norms(self.weights)
            else:
                matrix += self._weights32 @ view.centered_squared32
            matrix += self._offsets
            return matrix
        squared = self.norms[:, None] + self.weights @ view.centered_squared - self._cross @ view.centered
        np.clip(squared, 0.0, None, out=squared)
        return np.sqrt(squared, out=squared)


def pairwise_per_query_weights(
    queries, weights, points, *, workspace=None, precision: str = "exact"
) -> np.ndarray:
    """Approximate ``(Q, N)`` distance matrix with one weight vector per query.

    This generalises :meth:`WeightedEuclideanDistance.pairwise` to the case
    the retrieval engine meets when FeedbackBypass supplies per-query
    parameters: ``d_ij = sqrt(sum_d w_id (p_jd - q_id)²)``.  Everything still
    reduces to matrix products (``d² = (q²·w) + P² Wᵀ - 2 (q∘w) Pᵀ``), so a
    whole batch is the :class:`GramKernel` the scan calls per block,
    approximate in the last bits (``"fast"``: float32 squared distances).
    """
    check_precision(precision)
    queries = np.asarray(queries, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    workspace = block_workspace(points, workspace, queries.shape[1])
    return GramKernel(queries - workspace.mean, weights, precision)(workspace)


def per_query_weights_bound(weights, reach) -> np.ndarray:
    """:meth:`WeightedEuclideanDistance.term_bound` with one weight vector per query row."""
    return np.einsum("ij,ij->i", reach**2, weights)
