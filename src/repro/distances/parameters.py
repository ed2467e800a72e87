"""Packing and normalising the query parameters FeedbackBypass learns.

The optimal query parameters (OQPs) of a query ``q`` are the pair
``(Δ_opt, W_opt)``: the offset to the optimal query point and the optimal
distance weights (Section 3).  FeedbackBypass stores them as a single flat
vector of length ``N = D + P``.  This module provides

* the weight normalisation that removes the redundant degree of freedom
  (scaling all weights by a constant does not change the ranking, so one
  weight can be fixed — Example 1 in the paper), and
* the packing / unpacking between ``(Δ, W)`` pairs and flat vectors.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ValidationError, as_float_vector


def normalize_weights(weights, *, mode: str = "geometric", epsilon: float = 1e-12) -> np.ndarray:
    """Normalise a positive weight vector to remove its free scale.

    Parameters
    ----------
    weights:
        Positive weight vector.
    mode:
        ``"geometric"`` — rescale so that the geometric mean is 1 (the
        convention used throughout the experiments; it treats all coordinates
        symmetrically).  ``"last"`` — rescale so the last weight is exactly 1
        (the convention of Example 1 in the paper).  ``"sum"`` — rescale so
        the weights sum to the dimension D (keeps the default all-ones vector
        a fixed point).
    epsilon:
        Lower clamp applied before normalising, protecting against zero
        variance coordinates.
    """
    weights = as_float_vector(weights, name="weights")
    if np.any(weights < 0):
        raise ValidationError("weights must be non-negative")
    clamped = np.maximum(weights, epsilon)
    if mode == "geometric":
        scale = np.exp(np.mean(np.log(clamped)))
    elif mode == "last":
        scale = clamped[-1]
    elif mode == "sum":
        scale = clamped.sum() / clamped.shape[0]
    else:
        raise ValidationError(f"unknown normalisation mode {mode!r}")
    return clamped / scale


def default_weight_vector(dimension: int) -> np.ndarray:
    """The default (all ones) weight vector, i.e. plain Euclidean distance."""
    if dimension < 1:
        raise ValidationError(f"dimension must be >= 1, got {dimension}")
    return np.ones(dimension, dtype=np.float64)


def pack_oqp_vector(delta, weights) -> np.ndarray:
    """Pack ``(Δ, W)`` into the flat N-vector stored in the Simplex Tree."""
    delta = as_float_vector(delta, name="delta")
    weights = as_float_vector(weights, name="weights")
    return np.concatenate([delta, weights])


def unpack_oqp_vector(vector, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat OQP vector back into ``(Δ, W)``.

    Parameters
    ----------
    vector:
        Flat vector of length ``D + P``.
    dimension:
        The query-space dimensionality D (the first D entries are Δ).
    """
    vector = as_float_vector(vector, name="oqp vector")
    if vector.shape[0] <= dimension:
        raise ValidationError(
            f"an OQP vector must be longer than the query dimension {dimension}, "
            f"got length {vector.shape[0]}"
        )
    return vector[:dimension].copy(), vector[dimension:].copy()
