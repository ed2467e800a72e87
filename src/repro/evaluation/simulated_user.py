"""The category-oracle simulated user.

Section 5 of the paper automates the feedback loop: "for each query image,
any image in the same category was considered a good match whereas all other
images were considered bad matches, regardless of their color similarity".
:class:`SimulatedUser` is exactly that judge, bound to a labelled feature
collection, and doubles as the source of ground truth for precision and
recall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.database.collection import FeatureCollection
from repro.database.query import ResultSet
from repro.feedback.scores import (
    JudgmentBatch,
    RelevanceJudgment,
    RelevanceScale,
    score_results_by_category,
    score_results_by_category_batch,
)
from repro.utils.validation import ValidationError


@dataclass(frozen=True, eq=False)
class CategoryJudge:
    """A category-oracle judge bound to one query category, as plain data.

    This is the callable :meth:`SimulatedUser.judge_for_query` hands to the
    feedback loops.  It carries only the collection's label array (shared
    across every judge of the same collection), the query's category and
    the score scale.  The scores are exactly :meth:`SimulatedUser.judge`'s,
    as parallel arrays.
    """

    labels: np.ndarray
    category: str
    scale: RelevanceScale = RelevanceScale.BINARY

    def __call__(self, results: ResultSet) -> JudgmentBatch:
        categories = self.labels[results.indices()].tolist()
        return score_results_by_category_batch(
            results, categories, self.category, scale=self.scale
        )


class SimulatedUser:
    """Judges results by category membership.

    Parameters
    ----------
    collection:
        A labelled feature collection (labels are the image categories).
    scale:
        Relevance-score scale; the experiments use binary scores.
    """

    def __init__(
        self, collection: FeatureCollection, *, scale: RelevanceScale = RelevanceScale.BINARY
    ) -> None:
        if collection.labels is None:
            raise ValidationError("the simulated user requires a labelled collection")
        self._collection = collection
        self._scale = scale

    @property
    def collection(self) -> FeatureCollection:
        """The labelled collection the user judges against."""
        return self._collection

    def categories_of(self, results: ResultSet) -> list[str]:
        """Return the category label of every result object.

        Served by one vectorised gather over the collection's label array —
        this is called once per query per feedback iteration, so it sits on
        the hot path of both the sequential loop and the frontier scheduler.
        """
        return self._collection.labels_of(results.indices())

    def judge(self, results: ResultSet, query_category: str) -> list[RelevanceJudgment]:
        """Score a result list for a query of the given category."""
        return score_results_by_category(
            results, self.categories_of(results), query_category, scale=self._scale
        )

    def judge_for_query(self, query_index: int) -> CategoryJudge:
        """Return a judge callable bound to the category of image ``query_index``.

        The returned :class:`CategoryJudge` has the signature the feedback
        engine expects (``ResultSet`` to one judgment per result) and
        produces the vectorised :class:`JudgmentBatch` form, which iterates
        as :class:`RelevanceJudgment` objects for compatibility.  It carries
        the label array, not the collection.
        """
        return CategoryJudge(
            labels=self._collection.labels_array,
            category=self._collection.label(query_index),
            scale=self._scale,
        )

    def relevant_count(self, query_category: str) -> int:
        """Number of relevant objects in the database for a category."""
        count = int(self._collection.indices_with_label(query_category).shape[0])
        if count == 0:
            raise ValidationError(f"no objects labelled {query_category!r} in the collection")
        return count
