"""Tests for repro.feedback.engine (the feedback loop)."""

import numpy as np
import pytest

from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.feedback.engine import FeedbackEngine, FeedbackState
from repro.feedback.reweighting import ReweightingRule
from repro.feedback.scores import RelevanceJudgment
from repro.evaluation.simulated_user import SimulatedUser
from repro.utils.validation import ValidationError


@pytest.fixture()
def synthetic_collection() -> FeatureCollection:
    """Two classes separable only on the first two of six components."""
    rng = np.random.default_rng(0)
    n_per_class = 60
    informative_a = rng.normal(loc=0.3, scale=0.03, size=(n_per_class, 2))
    informative_b = rng.normal(loc=0.7, scale=0.03, size=(n_per_class, 2))
    noise_a = rng.random((n_per_class, 4))
    noise_b = rng.random((n_per_class, 4))
    vectors = np.vstack([np.hstack([informative_a, noise_a]), np.hstack([informative_b, noise_b])])
    labels = ["A"] * n_per_class + ["B"] * n_per_class
    return FeatureCollection(vectors, labels=labels)


@pytest.fixture()
def feedback_setup(synthetic_collection):
    engine = RetrievalEngine(synthetic_collection)
    user = SimulatedUser(synthetic_collection)
    feedback = FeedbackEngine(engine, max_iterations=8)
    return engine, user, feedback


class TestFeedbackState:
    def test_arrays_are_read_only(self):
        state = FeedbackState(query_point=np.zeros(2), weights=np.ones(2))
        with pytest.raises(ValueError):
            state.query_point[0] = 1.0


class TestComputeNewState:
    def test_no_relevant_results_returns_same_state(self, feedback_setup):
        _, _, feedback = feedback_setup
        state = FeedbackState(query_point=np.zeros(6), weights=np.ones(6))
        judgments = [RelevanceJudgment(index=0, score=0.0)]
        assert feedback.compute_new_state(state, judgments) is state

    def test_query_point_moves_to_weighted_mean(self, feedback_setup, synthetic_collection):
        _, _, feedback = feedback_setup
        state = FeedbackState(query_point=np.zeros(6), weights=np.ones(6))
        judgments = [RelevanceJudgment(index=0, score=1.0), RelevanceJudgment(index=1, score=1.0)]
        new_state = feedback.compute_new_state(state, judgments)
        expected = synthetic_collection.vectors[[0, 1]].mean(axis=0)
        np.testing.assert_allclose(new_state.query_point, expected)

    def test_reweighting_disabled_keeps_weights(self, synthetic_collection):
        engine = RetrievalEngine(synthetic_collection)
        feedback = FeedbackEngine(engine, reweighting_rule=ReweightingRule.NONE)
        state = FeedbackState(query_point=np.zeros(6), weights=np.ones(6))
        judgments = [RelevanceJudgment(index=0, score=1.0), RelevanceJudgment(index=5, score=1.0)]
        new_state = feedback.compute_new_state(state, judgments)
        np.testing.assert_allclose(new_state.weights, np.ones(6))

    def test_movement_disabled_keeps_query_point(self, synthetic_collection):
        engine = RetrievalEngine(synthetic_collection)
        feedback = FeedbackEngine(engine, move_query_point=False)
        state = FeedbackState(query_point=np.full(6, 0.25), weights=np.ones(6))
        judgments = [RelevanceJudgment(index=0, score=1.0), RelevanceJudgment(index=5, score=1.0)]
        new_state = feedback.compute_new_state(state, judgments)
        np.testing.assert_allclose(new_state.query_point, np.full(6, 0.25))


class TestVarianceFloor:
    @pytest.mark.parametrize(
        "floor", [0.0, -1e-6, float("nan"), float("inf"), float("-inf")], ids=repr
    )
    def test_a_floor_that_is_not_positive_and_finite_is_rejected(
        self, synthetic_collection, floor
    ):
        with pytest.raises(ValidationError, match="variance_floor"):
            FeedbackEngine(RetrievalEngine(synthetic_collection), variance_floor=floor)

    def test_a_single_relevant_result_keeps_the_weights_finite(self, synthetic_collection):
        """One relevant result has zero variance: the floor alone bounds 1/σ²."""
        feedback = FeedbackEngine(RetrievalEngine(synthetic_collection), max_iterations=3)

        def first_only(results):
            return [
                RelevanceJudgment(index=item.index, score=float(rank == 0))
                for rank, item in enumerate(results)
            ]

        result = feedback.run_loop(synthetic_collection.vector(0), 10, first_only)
        assert result.iterations >= 1
        assert np.all(np.isfinite(result.final_state.weights))


class TestRunLoop:
    def _precision(self, collection, results, category):
        labels = [collection.label(item.index) for item in results]
        return sum(1 for label in labels if label == category) / len(results)

    def test_loop_improves_precision(self, feedback_setup, synthetic_collection):
        _, user, feedback = feedback_setup
        query_index = 0
        query_point = synthetic_collection.vector(query_index)
        result = feedback.run_loop(query_point, 20, user.judge_for_query(query_index))
        category = synthetic_collection.label(query_index)
        initial = self._precision(synthetic_collection, result.initial_results, category)
        final = self._precision(synthetic_collection, result.final_results, category)
        assert final >= initial

    def test_loop_learns_informative_components(self, feedback_setup, synthetic_collection):
        _, user, feedback = feedback_setup
        result = feedback.run_loop(
            synthetic_collection.vector(3), 20, user.judge_for_query(3)
        )
        weights = result.final_state.weights
        # The two informative components should end up with larger weights
        # than the four noise components.
        assert weights[:2].mean() > weights[2:].mean()

    def test_loop_counts_iterations(self, feedback_setup, synthetic_collection):
        _, user, feedback = feedback_setup
        result = feedback.run_loop(synthetic_collection.vector(10), 15, user.judge_for_query(10))
        assert 0 <= result.iterations <= 8

    def test_loop_with_no_feedback_signal_terminates(self, synthetic_collection):
        engine = RetrievalEngine(synthetic_collection)
        feedback = FeedbackEngine(engine)

        def hostile_judge(results):
            return [RelevanceJudgment(index=item.index, score=0.0) for item in results]

        result = feedback.run_loop(synthetic_collection.vector(0), 10, hostile_judge)
        assert result.iterations == 0
        assert not result.converged
        np.testing.assert_allclose(result.final_state.weights, np.ones(6))

    def test_initial_parameters_are_respected(self, feedback_setup, synthetic_collection):
        _, user, feedback = feedback_setup
        delta = np.full(6, 0.01)
        weights = np.full(6, 2.0)
        result = feedback.run_loop(
            synthetic_collection.vector(0),
            10,
            user.judge_for_query(0),
            initial_delta=delta,
            initial_weights=weights,
        )
        np.testing.assert_allclose(
            result.initial_state.query_point, synthetic_collection.vector(0) + delta
        )
        np.testing.assert_allclose(result.initial_state.weights, weights)

    def test_negative_initial_weights_rejected(self, feedback_setup, synthetic_collection):
        _, user, feedback = feedback_setup
        with pytest.raises(ValidationError):
            feedback.run_loop(
                synthetic_collection.vector(0),
                10,
                user.judge_for_query(0),
                initial_weights=np.full(6, -1.0),
            )

    def test_max_iterations_bound(self, synthetic_collection):
        engine = RetrievalEngine(synthetic_collection)
        user = SimulatedUser(synthetic_collection)
        feedback = FeedbackEngine(engine, max_iterations=1)
        result = feedback.run_loop(synthetic_collection.vector(0), 10, user.judge_for_query(0))
        assert result.iterations <= 1

    def test_starting_from_optimal_parameters_converges_quickly(
        self, feedback_setup, synthetic_collection
    ):
        _, user, feedback = feedback_setup
        query_index = 7
        query_point = synthetic_collection.vector(query_index)
        judge = user.judge_for_query(query_index)
        first_pass = feedback.run_loop(query_point, 20, judge)
        optimal_delta = first_pass.final_state.query_point - query_point
        second_pass = feedback.run_loop(
            query_point,
            20,
            judge,
            initial_delta=optimal_delta,
            initial_weights=first_pass.final_state.weights,
        )
        # Starting from the already-optimal parameters cannot need more
        # iterations than starting from scratch (this is the Saved-Cycles
        # effect the paper measures).
        assert second_pass.iterations <= first_pass.iterations
