"""The optimal-query-parameter (OQP) value object.

For a query ``q`` the OQPs are the pair ``(Δ_opt, W_opt)`` — the offset to
the optimal query point and the optimal distance-function parameters
(Section 3, Equation 3).  The Simplex Tree stores them as one flat vector of
length ``N = D + P``; this class is the typed view the rest of the library
works with (it mirrors the ``Oqp`` class of Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distances.parameters import (
    default_weight_vector,
    pack_oqp_vector,
    unpack_oqp_vector,
)
from repro.utils.validation import ValidationError, as_float_vector


@dataclass(frozen=True)
class OptimalQueryParameters:
    """The pair ``(Δ, W)`` learned for one query.

    Attributes
    ----------
    delta:
        Offset to the optimal query point, ``q_opt = q + Δ``.
    weights:
        Parameters of the optimal distance function (for the weighted
        Euclidean class: one weight per feature component).
    """

    delta: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        delta = as_float_vector(self.delta, name="delta")
        weights = as_float_vector(self.weights, name="weights")
        if np.any(weights < 0):
            raise ValidationError("weights must be non-negative")
        delta.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "weights", weights)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def default(cls, query_dimension: int, weight_dimension: int | None = None) -> "OptimalQueryParameters":
        """The default parameters: no offset, unweighted Euclidean distance."""
        if weight_dimension is None:
            weight_dimension = query_dimension
        return cls(
            delta=np.zeros(query_dimension, dtype=np.float64),
            weights=default_weight_vector(weight_dimension),
        )

    @classmethod
    def from_vector(cls, vector, query_dimension: int) -> "OptimalQueryParameters":
        """Unpack a flat ``(Δ, W)`` vector (inverse of :meth:`to_vector`)."""
        delta, weights = unpack_oqp_vector(vector, query_dimension)
        # Interpolation may produce slightly negative weights near the
        # boundary of a simplex; clamp rather than reject, since a zero
        # weight is the meaningful limit.
        return cls(delta=delta, weights=np.clip(weights, 0.0, None))

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_vector(self) -> np.ndarray:
        """Pack into the flat vector stored by the Simplex Tree."""
        return pack_oqp_vector(self.delta, self.weights)

    @property
    def query_dimension(self) -> int:
        """Dimensionality D of the query space."""
        return int(self.delta.shape[0])

    @property
    def weight_dimension(self) -> int:
        """Number of distance parameters P."""
        return int(self.weights.shape[0])

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def optimal_query_point(self, query_point) -> np.ndarray:
        """Return ``q_opt = q + Δ`` for the given original query point."""
        query_point = as_float_vector(query_point, name="query_point", dim=self.query_dimension)
        return query_point + self.delta

    def is_default(self, tolerance: float = 1e-12) -> bool:
        """True when the parameters equal the defaults (Δ = 0, W = 1)."""
        return bool(
            np.allclose(self.delta, 0.0, atol=tolerance)
            and np.allclose(self.weights, 1.0, atol=tolerance)
        )
