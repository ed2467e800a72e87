"""Query-point-movement feedback.

The loop moves the query with :func:`optimal_query_point`, the
score-weighted average of the good results that Ishikawa et al. proved
optimal for positive feedback (Equation 2 in the paper);
:func:`optimal_query_point_frontier` applies the same rule to a frontier of
queries at once.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ValidationError, as_float_matrix, as_float_vector


def optimal_query_point(good_vectors, scores=None) -> np.ndarray:
    """The optimal query point: the score-weighted average of the good results.

    Parameters
    ----------
    good_vectors:
        ``(n_good, D)`` matrix of positively judged result vectors.
    scores:
        Optional positive scores (default: all ones, i.e. binary feedback).

    Implements ``q' = (sum_j score_j * p_j) / (sum_j score_j)`` — Equation 2.
    """
    good_vectors = as_float_matrix(good_vectors, name="good_vectors")
    if good_vectors.shape[0] == 0:
        raise ValidationError("at least one good result is required")
    if scores is None:
        scores = np.ones(good_vectors.shape[0], dtype=np.float64)
    scores = as_float_vector(scores, name="scores", dim=good_vectors.shape[0])
    if np.any(scores < 0):
        raise ValidationError("scores must be non-negative")
    total = scores.sum()
    if total <= 0:
        raise ValidationError("at least one score must be positive")
    return (scores[:, None] * good_vectors).sum(axis=0) / total


def segment_boundaries(counts) -> np.ndarray:
    """Turn per-query good-result counts into ``(F + 1,)`` segment offsets.

    The frontier forms below consume one stacked ``(sum(counts), D)`` matrix
    holding every active query's good results back to back; ``offsets[f] :
    offsets[f + 1]`` slices out query ``f``'s segment.
    """
    counts = np.asarray(counts, dtype=np.intp)
    if counts.ndim != 1 or (counts.size and counts.min() < 0):
        raise ValidationError("counts must be a 1-D array of non-negative segment sizes")
    offsets = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def optimal_query_point_frontier(good_vectors, scores, offsets) -> np.ndarray:
    """Equation 2 for a whole frontier of queries at once.

    Parameters
    ----------
    good_vectors:
        ``(G, D)`` stack of every active query's positively judged result
        vectors, segments back to back (one gather from the collection for
        the entire frontier instead of one per query).
    scores:
        ``(G,)`` scores parallel to ``good_vectors``.
    offsets:
        ``(F + 1,)`` segment offsets (see :func:`segment_boundaries`).

    Returns
    -------
    numpy.ndarray
        ``(F, D)`` matrix of new query points, row ``f`` equal — bit for bit
        — to ``optimal_query_point(good_vectors[offsets[f]:offsets[f+1]],
        scores[...])``.

    Each segment is reduced through exactly the per-query arithmetic (the
    inlined body of :func:`optimal_query_point`, with the input validation
    hoisted to one pass over the stack): the score-weighted mean
    re-associates floating-point additions if it is fused across segments
    (segmented reductions such as ``np.add.reduceat`` use a different
    summation order than ``ndarray.sum``), and the frontier scheduler's
    contract is byte-identical equality with the sequential loop, which
    rules that out.
    """
    good_vectors = as_float_matrix(good_vectors, name="good_vectors")
    offsets = np.asarray(offsets, dtype=np.intp)
    n_queries = offsets.size - 1
    if scores is None:
        scores = np.ones(good_vectors.shape[0], dtype=np.float64)
    else:
        scores = as_float_vector(scores, name="scores", dim=good_vectors.shape[0])
        if np.any(scores < 0):
            raise ValidationError("scores must be non-negative")
    new_points = np.empty((n_queries, good_vectors.shape[1]), dtype=np.float64)
    for query, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        if stop <= start:
            raise ValidationError("at least one good result is required")
        segment_scores = scores[start:stop]
        total = segment_scores.sum()
        if total <= 0:
            raise ValidationError("at least one score must be positive")
        new_points[query] = (segment_scores[:, None] * good_vectors[start:stop]).sum(axis=0) / total
    return new_points
