"""Batched sessions: one cohort's first rounds and loops at once."""

import pytest

from repro.evaluation.session import InteractiveSession, SessionConfig


class TestSessionRunBatch:
    def test_batch_outcomes_have_all_fields(self, tiny_dataset):
        session = InteractiveSession.for_dataset(
            tiny_dataset, SessionConfig(k=10, epsilon=0.05, max_iterations=4)
        )
        outcomes = session.run_batch([0, 1, 2, 3])
        assert len(outcomes) == 4
        assert session.outcomes == outcomes
        for outcome in outcomes:
            assert 0.0 <= outcome.bypass.precision <= 1.0
            assert outcome.inserted in ("inserted", "updated", "skipped", "none")

    def test_fresh_session_batch_bypass_equals_default(self, tiny_dataset):
        # Before any training the predictions are the defaults, so the two
        # first-round arms of the very first batch must coincide.
        session = InteractiveSession.for_dataset(
            tiny_dataset, SessionConfig(k=10, epsilon=0.05, max_iterations=4)
        )
        outcomes = session.run_batch([0, 5, 9])
        for outcome in outcomes:
            assert outcome.prediction_was_default
            assert outcome.bypass.precision == pytest.approx(outcome.default.precision)
            assert outcome.bypass.recall == pytest.approx(outcome.default.recall)

    def test_batch_of_one_matches_run_query(self, tiny_dataset):
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=4)
        batched = InteractiveSession.for_dataset(tiny_dataset, config)
        sequential = InteractiveSession.for_dataset(tiny_dataset, config)
        for query_index in (0, 7, 3):
            (batch_outcome,) = batched.run_batch([query_index])
            loop_outcome = sequential.run_query(query_index)
            assert batch_outcome == loop_outcome

    def test_empty_batch(self, tiny_session):
        assert tiny_session.run_batch([]) == []

    def test_run_stream_with_batch_size_processes_everything(self, tiny_dataset):
        session = InteractiveSession.for_dataset(
            tiny_dataset, SessionConfig(k=10, epsilon=0.05, max_iterations=4)
        )
        outcomes = session.run_stream([0, 1, 2, 3, 4], batch_size=2)
        assert [outcome.query_index for outcome in outcomes] == [0, 1, 2, 3, 4]
