"""Vectorised judgments (JudgmentBatch) and the vectorised feedback step."""

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.query import ResultSet
from repro.feedback.engine import FeedbackEngine, FeedbackState
from repro.feedback.scores import (
    JudgmentBatch,
    RelevanceJudgment,
    RelevanceScale,
    score_results_by_category,
    score_results_by_category_batch,
)
from repro.utils.validation import ValidationError


@pytest.fixture()
def results() -> ResultSet:
    return ResultSet.from_arrays([10, 11, 12, 13, 14], [0.0, 0.1, 0.2, 0.3, 0.4])


@pytest.fixture()
def categories() -> list[str]:
    return ["Bird", "Fish", "Bird", "Bird", "Mammal"]


class TestJudgmentBatch:
    def test_from_judgments_round_trip(self):
        judgments = [RelevanceJudgment(index=3, score=1.0), RelevanceJudgment(index=7, score=0.0)]
        batch = JudgmentBatch.from_judgments(judgments)
        assert len(batch) == 2
        assert [j.index for j in batch] == [3, 7]
        assert [j.is_relevant for j in batch] == [True, False]

    def test_from_judgments_is_idempotent(self):
        batch = JudgmentBatch(indices=np.array([1, 2]), scores=np.array([1.0, 0.0]))
        assert JudgmentBatch.from_judgments(batch) is batch

    def test_relevant_mask_and_count(self):
        batch = JudgmentBatch(indices=np.array([5, 6, 7]), scores=np.array([0.0, 2.0, 1.0]))
        np.testing.assert_array_equal(batch.relevant_mask, [False, True, True])
        assert np.count_nonzero(batch.relevant_mask) == 2

    def test_rejects_negative_scores(self):
        with pytest.raises(ValidationError):
            JudgmentBatch(indices=np.array([1]), scores=np.array([-1.0]))

    def test_rejects_misaligned_arrays(self):
        with pytest.raises(ValidationError):
            JudgmentBatch(indices=np.array([1, 2]), scores=np.array([1.0]))

    # Judgments arrive from the wire: nothing may be cast into shape first
    # (an intp cast would judge 1.7 as 1).
    @pytest.mark.parametrize(
        "indices,scores",
        [
            ([1.7, 2.2], [1.0, 0.0]),
            ([1.0, 2.0], [1.0, 0.0]),
            ([True, False], [1.0, 0.0]),
            (["1", "2"], [1.0, 0.0]),
            ([[1, 2]], [[1.0, 0.0]]),
            ([1], 1.0),
            ([], 1.0),
            ([1, 2], ["yes", "no"]),
            ([1, 2], [1.0, np.nan]),
        ],
        ids=[
            "float-indices",
            "integral-float-indices",
            "bool-indices",
            "string-indices",
            "2d",
            "0d-scores",
            "0d-scores-no-indices",
            "string-scores",
            "nan-score",
        ],
    )
    def test_rejects_malformed_judgments_before_any_cast(self, indices, scores):
        with pytest.raises(ValidationError):
            JudgmentBatch(indices=indices, scores=scores)

    @pytest.mark.parametrize(
        "indices", [[], np.array([], dtype=np.float64), np.array([3, 1], dtype=np.uint8)]
    )
    def test_accepts_integer_and_empty_indices(self, indices):
        batch = JudgmentBatch(indices=indices, scores=np.ones(len(indices)))
        assert batch.indices.dtype == np.intp
        assert batch.indices.tolist() == [int(i) for i in indices]


class TestVectorisedOracle:
    @pytest.mark.parametrize("scale", list(RelevanceScale))
    def test_matches_list_oracle_on_every_scale(self, results, categories, scale):
        listed = score_results_by_category(results, categories, "Bird", scale=scale)
        batch = score_results_by_category_batch(results, categories, "Bird", scale=scale)
        assert [j.index for j in listed] == list(batch.indices)
        np.testing.assert_array_equal([j.score for j in listed], batch.scores)

    def test_misaligned_categories_rejected(self, results):
        with pytest.raises(ValidationError):
            score_results_by_category_batch(results, ["Bird"], "Bird")

    def test_empty_results(self):
        empty = ResultSet.from_arrays([], [])
        batch = score_results_by_category_batch(empty, [], "Bird")
        assert len(batch) == 0


class TestVectorisedFeedbackStep:
    @pytest.fixture()
    def feedback(self, rng):
        collection = FeatureCollection(rng.random((30, 4)))
        return FeedbackEngine(RetrievalEngine(collection))

    def test_batch_and_list_judgments_give_identical_state(self, feedback, rng):
        state = FeedbackState(query_point=rng.random(4), weights=np.ones(4))
        judgments = [
            RelevanceJudgment(index=0, score=1.0),
            RelevanceJudgment(index=5, score=0.0),
            RelevanceJudgment(index=9, score=2.0),
        ]
        from_list = feedback.compute_new_state(state, judgments)
        from_batch = feedback.compute_new_state(state, JudgmentBatch.from_judgments(judgments))
        np.testing.assert_array_equal(from_list.query_point, from_batch.query_point)
        np.testing.assert_array_equal(from_list.weights, from_batch.weights)

    def test_no_relevant_results_returns_same_state(self, feedback, rng):
        state = FeedbackState(query_point=rng.random(4), weights=np.ones(4))
        batch = JudgmentBatch(indices=np.array([0, 1]), scores=np.array([0.0, 0.0]))
        assert feedback.compute_new_state(state, batch) is state
