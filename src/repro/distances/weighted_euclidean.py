"""The weighted Euclidean distance of Equation 1.

This is the retrieval model the paper's experiments use: 32-bin colour
histograms compared with ``L2W(p, q; W) = (sum_i w_i (p_i - q_i)^2)^(1/2)``,
where the weight vector ``W`` is what the re-weighting feedback strategy
adjusts and FeedbackBypass predicts.
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import DistanceFunction, assemble_float32, check_precision
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
    @property
    def n_parameters(self) -> int:
        return self.dimension

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

    def pairwise(self, queries, points, *, workspace=None, precision: str = "exact") -> np.ndarray:
        """Matrix form via the Gram expansion ``d² = |q|² + |p|² - 2 q·p``.

        One BLAS matrix product replaces Q row scans, which is what makes
        batched k-NN worthwhile.  The expansion loses a few low-order bits to
        cancellation; the data is centred on the point cloud's mean first so
        the error stays proportional to the distance scale rather than the
        coordinate scale.

        With the corpus :class:`~repro.database.collection.CorpusWorkspace`
        supplied, every corpus-side term comes out of the cache: the centred
        matrix is reused as the product's right-hand side and the weighted
        point norms reduce to one matvec ``(P - mean)² @ w`` — no ``(N, D)``
        corpus temporary is allocated per batch.

        ``precision="fast"`` runs the same expansion in float32 (sgemm
        instead of dgemm, half the bytes through the memory bus) against the
        workspace's float32 centred matrix and its cached point norms for
        these weights, and returns the **squared** distances — candidate
        selection is monotone in d², so the fast path skips the clip + sqrt
        over the full ``(Q, N)`` matrix entirely.  The returned float32
        matrix is candidate-selection input for the two-stage scan, not
        final distances.
        """
        check_precision(precision)
        queries = self._validate_points(queries, name="queries")
        points, cache = self._corpus(points, workspace)
        if precision == "fast":
            return self._pairwise_fast(queries, points, cache)
        if cache is None:
            center = points.mean(axis=0)
            centered_points = points - center
            point_norms = np.einsum(
                "ij,ij->i", centered_points * self._weights, centered_points
            )
        else:
            center = cache.mean
            centered_points = cache.centered
            point_norms = cache.centered_squared @ self._weights
        queries = queries - center
        weighted_queries = queries * self._weights
        query_norms = np.einsum("ij,ij->i", weighted_queries, queries)
        squared = (
            query_norms[:, None] + point_norms[None, :] - 2.0 * weighted_queries @ centered_points.T
        )
        return np.sqrt(np.clip(squared, 0.0, None))

    def _pairwise_fast(self, queries: np.ndarray, points: np.ndarray, cache) -> np.ndarray:
        """Float32 *squared*-distance Gram expansion: the approximate half
        of the two-stage scan.  Skipping the root also sidesteps its error
        amplification near zero, so the float32 noise stays proportional to
        :meth:`term_bound`.  Both norm terms are computed in float64."""
        if cache is None:
            center = points.mean(axis=0)
            centered = points - center
            centered_points = centered.astype(np.float32)
            point_norms = np.einsum("ij,ij->i", centered * self._weights, centered)
        else:
            center = cache.mean
            centered_points = cache.centered32
            point_norms = cache.point_norms(self._weights)
        queries = queries - center
        weighted_queries = queries * self._weights
        query_norms = np.einsum("ij,ij->i", weighted_queries, queries)
        return assemble_float32(-2.0 * weighted_queries, query_norms, centered_points, point_norms)

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
    return np.sqrt(np.sum(weights * deltas * deltas, axis=1))


def pairwise_per_query_weights(
    queries, weights, points, *, workspace=None, precision: str = "exact"
) -> np.ndarray:
    """Approximate ``(Q, N)`` distance matrix with one weight vector per query.

    This generalises :meth:`WeightedEuclideanDistance.pairwise` to the case
    the retrieval engine meets when FeedbackBypass supplies per-query
    parameters: ``d_ij = sqrt(sum_d w_id (p_jd - q_id)²)``.  Everything still
    reduces to matrix products (``d² = (q²·w) + P² Wᵀ - 2 (q∘w) Pᵀ``), so a
    whole batch costs a handful of BLAS calls.  Like the Gram expansion it is
    approximate in the last bits; callers refine the final candidates through
    an exact row computation.

    This is the frontier scheduler's hot loop: every feedback iteration of
    every active query re-ranks the corpus through this expansion.  With the
    corpus :class:`~repro.database.collection.CorpusWorkspace` supplied, the
    centred matrix and its element-wise squares come from the cache, so the
    per-batch cost is exactly the three query-sized products — the
    ``points * points`` corpus temporary this function used to allocate on
    every call disappears.

    ``precision="fast"`` evaluates the same products in float32 against the
    workspace's float32 centred matrix and its squares — the frontier's
    candidate scan at scale — returning the approximate **squared**
    distances (no full-matrix clip + sqrt, as with
    :meth:`WeightedEuclideanDistance.pairwise`); callers re-score candidates
    exactly either way.
    """
    check_precision(precision)
    queries = np.asarray(queries, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    cache = workspace if workspace is not None and workspace.owns(points) else None
    points = np.asarray(points, dtype=np.float64)
    fast = precision == "fast"
    if cache is None:
        center = points.mean(axis=0)
        centered_points = points - center
        if fast:
            centered_points = centered_points.astype(np.float32)
        centered_squared = centered_points * centered_points
    elif fast:
        center = cache.mean
        centered_points = cache.centered32
        centered_squared = cache.centered_squared32
    else:
        center = cache.mean
        centered_points = cache.centered
        centered_squared = cache.centered_squared
    queries = queries - center
    weighted_queries = queries * weights
    query_norms = np.einsum("ij,ij->i", weighted_queries, queries)
    if fast:
        point_norms = centered_squared @ weights.T.astype(np.float32)
        return assemble_float32(-2.0 * weighted_queries, query_norms, centered_points, point_norms)
    squared = (
        query_norms[:, None]
        + weights @ centered_squared.T
        - 2.0 * weighted_queries @ centered_points.T
    )
    np.clip(squared, 0.0, None, out=squared)
    return np.sqrt(squared, out=squared)


def per_query_weights_bound(weights, reach) -> np.ndarray:
    """:meth:`WeightedEuclideanDistance.term_bound` with one weight vector per query row."""
    return np.einsum("ij,ij->i", reach**2, weights)
