"""Input-validation helpers shared by all subpackages.

The library surfaces mis-use as :class:`ValidationError` (a ``ValueError``
subclass) so that callers can distinguish bad input from internal failures.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """Raised when caller-supplied data does not satisfy a precondition."""


def _as_float_array(values, name: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise ValidationError(f"{name} must be numeric: {error}") from None


def as_float_vector(values, name: str = "vector", dim: int | None = None) -> np.ndarray:
    """Convert ``values`` to a 1-D ``float64`` array, validating its shape.

    Parameters
    ----------
    values:
        Any array-like accepted by :func:`numpy.asarray`.
    name:
        Name used in error messages.
    dim:
        If given, the required length of the vector.
    """
    array = _as_float_array(values, name)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {array.shape}")
    if dim is not None and array.shape[0] != dim:
        raise ValidationError(f"{name} must have dimension {dim}, got {array.shape[0]}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} contains non-finite values")
    return array


def as_float_matrix(values, name: str = "matrix", shape: tuple[int | None, int | None] | None = None) -> np.ndarray:
    """Convert ``values`` to a 2-D ``float64`` array, validating its shape."""
    array = _as_float_array(values, name)
    if array.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {array.shape}")
    if shape is not None:
        rows, cols = shape
        if rows is not None and array.shape[0] != rows:
            raise ValidationError(f"{name} must have {rows} rows, got {array.shape[0]}")
        if cols is not None and array.shape[1] != cols:
            raise ValidationError(f"{name} must have {cols} columns, got {array.shape[1]}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} contains non-finite values")
    return array


def check_dimension(value: int, name: str = "dimension", minimum: int = 1) -> int:
    """Validate that ``value`` is an integer dimension of at least ``minimum``.

    Integers and integer-valued floats pass.  Booleans, ``None``, strings
    and non-finite floats are not counts: they raise
    :class:`ValidationError` like any other bad value.
    """
    if type(value) is int and value >= minimum:  # the common case, without the ABC checks
        return value
    if (
        isinstance(value, (bool, np.bool_))
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or int(value) != value
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative if ``strict=False``)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(value: float, low: float, high: float, name: str = "value") -> float:
    """Validate that ``low <= value <= high``."""
    value = float(value)
    if not (low <= value <= high):
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_probability_vector(values, name: str = "histogram", tolerance: float = 1e-6) -> np.ndarray:
    """Validate that ``values`` is a non-negative vector summing to one."""
    array = as_float_vector(values, name=name)
    if np.any(array < -tolerance):
        raise ValidationError(f"{name} has negative entries")
    total = float(array.sum())
    if abs(total - 1.0) > tolerance:
        raise ValidationError(f"{name} must sum to 1 (got {total:.6f})")
    return np.clip(array, 0.0, None)
