"""Tests for repro.evaluation.session."""

import numpy as np
import pytest

from repro.core.oqp import OptimalQueryParameters
from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.feedback.reweighting import ReweightingRule
from repro.utils.validation import ValidationError


class TestSessionConfig:
    def test_defaults_match_paper(self):
        config = SessionConfig()
        assert config.k == 50
        assert config.reweighting_rule is ReweightingRule.OPTIMAL
        assert config.move_query_point

    def test_invalid_k_rejected(self):
        with pytest.raises(ValidationError):
            SessionConfig(k=0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            SessionConfig(epsilon=-0.1)


class TestSessionConstruction:
    def test_for_dataset_builds_consistent_components(self, tiny_dataset, tiny_session):
        assert tiny_session.collection.size == len(tiny_dataset.records)
        assert tiny_session.collection.dimension == tiny_dataset.n_bins - 1
        assert tiny_session.bypass.query_dimension == tiny_dataset.n_bins - 1

    def test_every_query_point_inside_root_simplex(self, tiny_session):
        vectors = tiny_session.collection.vectors
        for index in range(0, vectors.shape[0], 7):
            assert tiny_session.bypass.tree.contains(vectors[index])


class TestRunQuery:
    def test_outcome_fields(self, tiny_session):
        outcome = tiny_session.run_query(0)
        assert outcome.query_index == 0
        assert outcome.category == tiny_session.collection.label(0)
        assert 0.0 <= outcome.default.precision <= 1.0
        assert 0.0 <= outcome.bypass.recall <= 1.0
        assert outcome.loop_iterations_default >= 0
        assert outcome.loop_iterations_bypass is None  # not measured by default
        assert outcome.inserted in ("inserted", "updated", "skipped", "none")

    def test_first_query_prediction_is_default(self, tiny_session):
        outcome = tiny_session.run_query(3)
        assert outcome.prediction_was_default
        assert outcome.bypass.precision == pytest.approx(outcome.default.precision)

    def test_already_seen_dominates_default_on_average(self, tiny_session, tiny_dataset):
        rng = np.random.default_rng(0)
        outcomes = tiny_session.run_stream(tiny_dataset.sample_query_indices(25, rng))
        seen = np.mean([o.already_seen_precision for o in outcomes])
        default = np.mean([o.default_precision for o in outcomes])
        assert seen >= default

    def test_outcomes_are_recorded(self, tiny_session):
        tiny_session.run_query(1)
        tiny_session.run_query(2)
        assert len(tiny_session.outcomes) == 2

    def test_bypass_loop_measured_when_enabled(self, tiny_dataset):
        config = SessionConfig(k=10, epsilon=0.05, measure_bypass_loop=True, max_iterations=5)
        session = InteractiveSession.for_dataset(tiny_dataset, config)
        outcome = session.run_query(0)
        assert outcome.loop_iterations_bypass is not None
        assert outcome.loop_iterations_bypass >= 0

    def test_training_grows_the_tree(self, tiny_session, tiny_dataset):
        rng = np.random.default_rng(1)
        tiny_session.run_stream(tiny_dataset.sample_query_indices(20, rng))
        assert tiny_session.bypass.n_stored_queries > 0

    def test_repeated_query_prediction_matches_optimal(self, tiny_session):
        first = tiny_session.run_query(5)
        # Once the query has been seen (and stored), a second pass predicts
        # (close to) the stored optimal parameters, so the Bypass strategy
        # performs at least as well as AlreadySeen did the first time.
        if first.inserted in ("inserted", "updated"):
            second = tiny_session.run_query(5)
            assert second.bypass.precision >= first.already_seen.precision - 1e-9


class TestEvaluateFirstRound:
    def test_default_parameters_reproduce_default_strategy(self, tiny_session):
        outcome = tiny_session.run_query(4)
        dimension = tiny_session.collection.dimension
        metrics = tiny_session.evaluate_first_round(4, OptimalQueryParameters.default(dimension))
        assert metrics.precision == pytest.approx(outcome.default.precision)
        assert metrics.recall == pytest.approx(outcome.default.recall)

    def test_custom_k(self, tiny_session):
        dimension = tiny_session.collection.dimension
        metrics = tiny_session.evaluate_first_round(
            0, OptimalQueryParameters.default(dimension), k=5
        )
        assert 0.0 <= metrics.precision <= 1.0

    def test_run_feedback_loop_returns_final_state(self, tiny_session):
        dimension = tiny_session.collection.dimension
        loop = tiny_session.run_feedback_loop(0, OptimalQueryParameters.default(dimension))
        assert loop.final_state.weights.shape == (dimension,)


class TestRunStreamEdgeCases:
    def test_empty_stream(self, tiny_session):
        assert tiny_session.run_stream([]) == []
        assert tiny_session.run_stream([], batch_size=4) == []
        assert tiny_session.run_batch([]) == []
        assert tiny_session.outcomes == []

    def test_batch_size_one_matches_sequential_regime(self, tiny_dataset):
        # Chunks of one query arrive strictly after each other, so every
        # prediction sees all previous feedback — exactly the sequential
        # (batch_size=None) single-user regime.
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
        indices = [3, 11, 3, 20, 7]
        sequential = InteractiveSession.for_dataset(tiny_dataset, config)
        chunked = InteractiveSession.for_dataset(tiny_dataset, config)
        assert chunked.run_stream(indices, batch_size=1) == sequential.run_stream(indices)

    def test_final_partial_batch_processes_every_query(self, tiny_dataset):
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
        session = InteractiveSession.for_dataset(tiny_dataset, config)
        indices = [1, 4, 9, 16, 25, 2, 8]  # 7 queries, batch_size 3 -> 3+3+1
        outcomes = session.run_stream(indices, batch_size=3)
        assert [outcome.query_index for outcome in outcomes] == indices
        # The trailing chunk of one query must be processed like any full
        # chunk: same outcomes as running the chunks through run_batch.
        manual = InteractiveSession.for_dataset(tiny_dataset, config)
        manual_outcomes = (
            manual.run_batch(indices[:3]) + manual.run_batch(indices[3:6]) + manual.run_batch(indices[6:])
        )
        assert outcomes == manual_outcomes

    def test_batch_size_larger_than_stream(self, tiny_dataset):
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
        session = InteractiveSession.for_dataset(tiny_dataset, config)
        other = InteractiveSession.for_dataset(tiny_dataset, config)
        assert session.run_stream([5, 6], batch_size=100) == other.run_batch([5, 6])
