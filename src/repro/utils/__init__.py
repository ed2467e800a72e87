"""Shared utilities: seeded randomness and input validation.

These helpers are intentionally small; every other subpackage builds on them
so that array validation and RNG seeding behave identically across the
library.
"""

from repro.utils.rng import RandomState, derive_seed, ensure_rng
from repro.utils.validation import (
    ValidationError,
    as_float_matrix,
    as_float_vector,
    check_dimension,
    check_in_range,
    check_positive,
)

__all__ = [
    "RandomState",
    "derive_seed",
    "ensure_rng",
    "ValidationError",
    "as_float_matrix",
    "as_float_vector",
    "check_dimension",
    "check_in_range",
    "check_positive",
]
