"""Tests for repro.feedback.scores."""

import pytest

from repro.database.query import ResultSet
from repro.feedback.scores import (
    RelevanceJudgment,
    RelevanceScale,
    score_results_by_category,
)
from repro.utils.validation import ValidationError


@pytest.fixture()
def results() -> ResultSet:
    return ResultSet.from_arrays([10, 11, 12, 13], [0.1, 0.2, 0.3, 0.4])


CATEGORIES = ["Bird", "Fish", "Bird", "Mammal"]


class TestRelevanceJudgment:
    def test_positive_score_is_relevant(self):
        assert RelevanceJudgment(index=3, score=1.0).is_relevant

    def test_zero_score_is_not_relevant(self):
        assert not RelevanceJudgment(index=3, score=0.0).is_relevant

    def test_negative_score_rejected(self):
        with pytest.raises(ValidationError):
            RelevanceJudgment(index=3, score=-0.5)


class TestBinaryScoring:
    def test_good_and_bad_assignment(self, results):
        judgments = score_results_by_category(results, CATEGORIES, "Bird")
        assert [j.score for j in judgments] == [1.0, 0.0, 1.0, 0.0]
        assert [j.index for j in judgments] == [10, 11, 12, 13]

    def test_no_relevant_results(self, results):
        judgments = score_results_by_category(results, CATEGORIES, "Blossom")
        assert all(not j.is_relevant for j in judgments)

    def test_all_relevant_results(self, results):
        judgments = score_results_by_category(results, ["X"] * 4, "X")
        assert all(j.is_relevant for j in judgments)

    def test_category_count_mismatch_rejected(self, results):
        with pytest.raises(ValidationError):
            score_results_by_category(results, ["Bird"], "Bird")


class TestGradedAndContinuousScoring:
    def test_graded_scores_decay_with_rank(self, results):
        judgments = score_results_by_category(
            results, ["X", "X", "X", "X"], "X", scale=RelevanceScale.GRADED
        )
        scores = [j.score for j in judgments]
        assert scores[0] >= scores[-1]
        assert all(score >= 1.0 for score in scores)

    def test_continuous_scores_in_unit_interval(self, results):
        judgments = score_results_by_category(
            results, ["X", "X", "X", "X"], "X", scale=RelevanceScale.CONTINUOUS
        )
        assert all(0.0 < j.score <= 1.0 for j in judgments)

    def test_irrelevant_results_always_zero(self, results):
        for scale in (RelevanceScale.GRADED, RelevanceScale.CONTINUOUS):
            judgments = score_results_by_category(results, CATEGORIES, "Fish", scale=scale)
            assert judgments[0].score == 0.0
            assert judgments[1].score > 0.0
