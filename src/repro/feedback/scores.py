"""Relevance scores and judgments.

The paper discusses binary ("good" / "bad", with unmarked objects neutral),
graded and continuous score levels.  :class:`RelevanceScale` captures those
options; :func:`score_results_by_category` implements the automated judge of
the experiments, which marks a result good exactly when it belongs to the
query's category.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.database.query import ResultSet
from repro.utils.validation import ValidationError, as_float_vector


class RelevanceScale(enum.Enum):
    """Supported relevance-score scales."""

    BINARY = "binary"          # good = 1, bad = 0 (neutral objects omitted)
    GRADED = "graded"          # integer grades, e.g. 0..3
    CONTINUOUS = "continuous"  # arbitrary non-negative scores


@dataclass(frozen=True)
class RelevanceJudgment:
    """The user's evaluation of one result object."""

    index: int
    score: float

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValidationError("relevance scores must be non-negative")

    @property
    def is_relevant(self) -> bool:
        """True when the object received a positive score."""
        return self.score > 0


@dataclass(frozen=True)
class JudgmentBatch:
    """One feedback round's judgments as parallel arrays.

    The array form is what the vectorised feedback computation consumes: one
    fancy index into the collection replaces a per-result Python loop.  The
    batch iterates as :class:`RelevanceJudgment` objects, so anything written
    against the list form keeps working.
    """

    indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        # Checked before any cast: judgments arrive from the wire, and a
        # cast to intp would silently truncate 1.7 to 1.
        indices = np.asarray(self.indices)
        if indices.dtype == np.bool_ or (indices.size and indices.dtype.kind not in "iu"):
            raise ValidationError(f"judgment indices must be integers, got {indices.dtype}")
        indices = indices.astype(np.intp, copy=False)
        scores = np.asarray(self.scores)
        if indices.ndim != 1 or indices.shape != scores.shape:
            raise ValidationError("indices and scores must be parallel 1-D arrays")
        if scores.size and scores.dtype.kind not in "biuf":
            raise ValidationError(f"relevance scores must be numbers, got {scores.dtype}")
        scores = as_float_vector(scores, name="scores")
        if np.any(scores < 0):
            raise ValidationError("relevance scores must be non-negative")
        indices.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def __iter__(self):
        for index, score in zip(self.indices, self.scores):
            yield RelevanceJudgment(index=int(index), score=float(score))

    @property
    def relevant_mask(self) -> np.ndarray:
        """Boolean mask of the positively scored results."""
        return self.scores > 0

    @classmethod
    def from_judgments(cls, judgments: "list[RelevanceJudgment] | JudgmentBatch") -> "JudgmentBatch":
        """Coerce a judgment list (or an existing batch) to the array form."""
        if isinstance(judgments, cls):
            return judgments
        count = len(judgments)
        indices = np.fromiter((j.index for j in judgments), dtype=np.intp, count=count)
        scores = np.fromiter((j.score for j in judgments), dtype=np.float64, count=count)
        return cls(indices=indices, scores=scores)


def score_results_by_category_batch(
    results: ResultSet,
    result_categories,
    query_category: str,
    *,
    scale: RelevanceScale = RelevanceScale.BINARY,
    graded_levels: int = 3,
) -> JudgmentBatch:
    """Vectorised category oracle: the array form of :func:`score_results_by_category`.

    Produces exactly the same scores, but computes them with one comparison
    over the category array instead of a per-result loop — this is the judge
    the batched feedback paths use.
    """
    if len(results) != len(result_categories):
        raise ValidationError("result_categories must have one entry per result")
    n_results = len(results)
    indices = results.indices()
    if n_results == 0:
        return JudgmentBatch(indices=indices, scores=np.zeros(0, dtype=np.float64))
    relevant = np.asarray(result_categories, dtype=object) == query_category
    ranks = np.arange(n_results, dtype=np.intp)
    if scale is RelevanceScale.BINARY:
        scores = relevant.astype(np.float64)
    elif scale is RelevanceScale.GRADED:
        levels = graded_levels - (ranks * graded_levels) // max(n_results, 1)
        scores = np.where(relevant, np.maximum(levels, 1).astype(np.float64), 0.0)
    elif scale is RelevanceScale.CONTINUOUS:
        scores = np.where(relevant, 1.0 - ranks / max(n_results, 1), 0.0)
    else:  # pragma: no cover - exhaustive enum
        raise ValidationError(f"unsupported scale {scale!r}")
    return JudgmentBatch(indices=indices, scores=scores)


def score_results_by_category(
    results: ResultSet,
    result_categories: list[str],
    query_category: str,
    *,
    scale: RelevanceScale = RelevanceScale.BINARY,
    graded_levels: int = 3,
) -> list[RelevanceJudgment]:
    """Score a result list with the category oracle used in the experiments.

    Every result in the query's category receives a positive score, everything
    else a zero score.  With the graded scale, relevant objects earn a score
    that decays with their rank (front-of-list relevant results count more),
    which mirrors how real users weight what they see first.
    """
    if len(results) != len(result_categories):
        raise ValidationError("result_categories must have one entry per result")
    judgments: list[RelevanceJudgment] = []
    n_results = len(results)
    for rank, (item, category) in enumerate(zip(results, result_categories)):
        relevant = category == query_category
        if scale is RelevanceScale.BINARY:
            score = 1.0 if relevant else 0.0
        elif scale is RelevanceScale.GRADED:
            if relevant:
                level = graded_levels - int(rank * graded_levels / max(n_results, 1))
                score = float(max(level, 1))
            else:
                score = 0.0
        elif scale is RelevanceScale.CONTINUOUS:
            score = float(1.0 - rank / max(n_results, 1)) if relevant else 0.0
        else:  # pragma: no cover - exhaustive enum
            raise ValidationError(f"unsupported scale {scale!r}")
        judgments.append(RelevanceJudgment(index=item.index, score=score))
    return judgments

