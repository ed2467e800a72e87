"""Histogram normalisation and the simplex embedding.

Normalised histograms live on the probability simplex: all bins are
non-negative and sum to one.  Dropping one bin (the paper drops the last)
yields a point in the standard simplex of dimension D = n_bins - 1, which is
precisely the query domain the Simplex Tree roots itself on (Section 4.1 and
Example 1: 32 bins -> a mapping from R^31 to R^62).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ValidationError, as_float_matrix, as_float_vector


def drop_last_bin(histograms) -> np.ndarray:
    """Embed normalised histograms into the standard simplex by dropping the last bin.

    Accepts a single histogram (1-D) or a matrix of histograms (2-D); the
    returned array has one fewer column.  Because the bins sum to one, the
    dropped bin is redundant: it is one minus the sum of the kept bins.
    """
    array = np.asarray(histograms, dtype=np.float64)
    if array.ndim == 1:
        vector = as_float_vector(array, name="histogram")
        if vector.shape[0] < 2:
            raise ValidationError("histogram must have at least two bins")
        return vector[:-1].copy()
    matrix = as_float_matrix(array, name="histograms")
    if matrix.shape[1] < 2:
        raise ValidationError("histograms must have at least two bins")
    return matrix[:, :-1].copy()
