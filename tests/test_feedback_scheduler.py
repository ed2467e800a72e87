"""The frontier scheduler's byte-identity contract with the sequential loop.

The tier-1 guarantee of the feedback refactor: for every query,
``LoopScheduler.run`` must reproduce ``FeedbackEngine.run_loop`` byte for
byte — states, result sets, iteration counts and convergence flags — across
every re-weighting rule, with and without query-point movement, and for
every iteration budget.  This mirrors the ``search_batch == mapped search``
contract of the index protocol one layer down.
"""

import numpy as np
import pytest

from repro.core.oqp import OptimalQueryParameters
from repro.database.engine import RetrievalEngine
from repro.evaluation.session import InteractiveSession, SessionConfig
from repro.evaluation.simulated_user import CategoryJudge, SimulatedUser
from repro.feedback.engine import FeedbackEngine, FeedbackLoopResult
from repro.feedback.query_point_movement import (
    optimal_query_point,
    optimal_query_point_frontier,
    segment_boundaries,
)
from repro.feedback.reweighting import ReweightingRule, reweight, reweight_frontier
from repro.feedback.scheduler import FeedbackFrontier, LoopRequest, LoopScheduler
from repro.utils.validation import ValidationError


def assert_loop_results_identical(sequential: FeedbackLoopResult, frontier: FeedbackLoopResult):
    """Byte-level equality of two feedback-loop results.

    Asserts field by field for diagnosable failures, then cross-checks the
    canonical :meth:`FeedbackLoopResult.identical_to` (which the serving
    suites rely on) against the same pair.
    """
    np.testing.assert_array_equal(
        sequential.initial_state.query_point, frontier.initial_state.query_point
    )
    np.testing.assert_array_equal(sequential.initial_state.weights, frontier.initial_state.weights)
    np.testing.assert_array_equal(
        sequential.final_state.query_point, frontier.final_state.query_point
    )
    np.testing.assert_array_equal(sequential.final_state.weights, frontier.final_state.weights)
    assert sequential.initial_results == frontier.initial_results
    assert sequential.final_results == frontier.final_results
    assert sequential.iterations == frontier.iterations
    assert sequential.converged == frontier.converged
    assert sequential.identical_to(frontier)


@pytest.fixture(scope="module")
def user(tiny_collection) -> SimulatedUser:
    return SimulatedUser(tiny_collection)


@pytest.fixture(scope="module")
def query_indices(tiny_collection) -> np.ndarray:
    rng = np.random.default_rng(31)
    return rng.integers(0, tiny_collection.size, size=10)


def assert_dispatch_counts(sequential_engine, frontier_engine, results, ks):
    """The frontier's batching, counted exactly.

    Sequentially every search is a single-row call: one first round per
    query plus one per feedback iteration, and no batched dispatch.  The
    frontier runs the same searches as one batched dispatch per round per
    k-group: the group's first rounds, then one per loop round until the
    group's longest loop retires.
    """
    sequential = sequential_engine.retrieval_engine.stats()
    frontier = frontier_engine.retrieval_engine.stats()
    searches = len(results) + sum(result.iterations for result in results)
    assert sequential["n_searches"] == frontier["n_searches"] == searches
    assert sequential["n_batches"] == sequential["frontier_batches"] == 0
    longest: dict = {}
    for result, k in zip(results, ks):
        longest[k] = max(longest.get(k, 0), result.iterations)
    rounds = sum(1 + iterations for iterations in longest.values())
    assert frontier["frontier_batches"] == frontier["n_batches"] == rounds


def _requests(collection, user, indices, k=8, deltas=None, weights=None):
    return [
        LoopRequest(
            query_point=collection.vectors[int(index)],
            k=k,
            judge=user.judge_for_query(int(index)),
            initial_delta=None if deltas is None else deltas[position],
            initial_weights=None if weights is None else weights[position],
        )
        for position, index in enumerate(indices)
    ]


class TestSchedulerEquivalenceGrid:
    @pytest.mark.parametrize("rule", list(ReweightingRule))
    @pytest.mark.parametrize("move_query_point", [True, False])
    @pytest.mark.parametrize("max_iterations", [1, 3, 10])
    def test_byte_identical_to_sequential_loop(
        self, tiny_collection, user, query_indices, rule, move_query_point, max_iterations
    ):
        sequential_engine = FeedbackEngine(
            RetrievalEngine(tiny_collection),
            reweighting_rule=rule,
            move_query_point=move_query_point,
            max_iterations=max_iterations,
        )
        frontier_engine = FeedbackEngine(
            RetrievalEngine(tiny_collection),
            reweighting_rule=rule,
            move_query_point=move_query_point,
            max_iterations=max_iterations,
        )
        sequential = [
            sequential_engine.run_loop(
                tiny_collection.vectors[int(index)], 8, user.judge_for_query(int(index))
            )
            for index in query_indices
        ]
        frontier = LoopScheduler(frontier_engine).run(
            _requests(tiny_collection, user, query_indices)
        )
        assert len(frontier) == len(sequential)
        for sequential_result, frontier_result in zip(sequential, frontier):
            assert_loop_results_identical(sequential_result, frontier_result)
        # Both paths account the same number of feedback iterations on their
        # engines; only the frontier dispatches batched searches, one per
        # round: max(iterations) loop rounds after the first-round batch.
        assert (
            sequential_engine.retrieval_engine.feedback_iterations
            == frontier_engine.retrieval_engine.feedback_iterations
            == sum(result.iterations for result in frontier)
        )
        assert_dispatch_counts(
            sequential_engine, frontier_engine, frontier, [8] * len(frontier)
        )

    def test_initial_parameters_are_honoured(self, tiny_collection, user, query_indices):
        rng = np.random.default_rng(5)
        deltas = rng.normal(0.0, 0.01, (query_indices.size, tiny_collection.dimension))
        weights = rng.random((query_indices.size, tiny_collection.dimension)) + 0.2
        sequential_engine = FeedbackEngine(RetrievalEngine(tiny_collection))
        frontier_engine = FeedbackEngine(RetrievalEngine(tiny_collection))
        sequential = [
            sequential_engine.run_loop(
                tiny_collection.vectors[int(index)],
                8,
                user.judge_for_query(int(index)),
                initial_delta=deltas[position],
                initial_weights=weights[position],
            )
            for position, index in enumerate(query_indices)
        ]
        frontier = LoopScheduler(frontier_engine).run(
            _requests(tiny_collection, user, query_indices, deltas=deltas, weights=weights)
        )
        for sequential_result, frontier_result in zip(sequential, frontier):
            assert_loop_results_identical(sequential_result, frontier_result)

    def test_mixed_k_frontier(self, tiny_collection, user, query_indices):
        ks = [3, 8, 3, 12, 8, 3, 12, 8, 3, 8][: query_indices.size]
        sequential_engine = FeedbackEngine(RetrievalEngine(tiny_collection))
        frontier_engine = FeedbackEngine(RetrievalEngine(tiny_collection))
        sequential = [
            sequential_engine.run_loop(
                tiny_collection.vectors[int(index)], k, user.judge_for_query(int(index))
            )
            for index, k in zip(query_indices, ks)
        ]
        requests = [
            LoopRequest(
                query_point=tiny_collection.vectors[int(index)],
                k=k,
                judge=user.judge_for_query(int(index)),
            )
            for index, k in zip(query_indices, ks)
        ]
        frontier = LoopScheduler(frontier_engine).run(requests)
        for sequential_result, frontier_result in zip(sequential, frontier):
            assert_loop_results_identical(sequential_result, frontier_result)
        assert_dispatch_counts(sequential_engine, frontier_engine, frontier, ks)

    def test_no_signal_query_retires_without_iterating(self, tiny_collection):
        hopeless_judge = CategoryJudge(tiny_collection.labels_array, "NoSuchCategory")

        engine = FeedbackEngine(RetrievalEngine(tiny_collection))
        request = LoopRequest(
            query_point=tiny_collection.vectors[0], k=5, judge=hopeless_judge
        )
        (result,) = LoopScheduler(engine).run([request])
        assert result.iterations == 0
        assert not result.converged
        assert result.final_results == result.initial_results

    def test_a_frontier_that_retires_at_once_costs_one_dispatch(self, tiny_collection, query_indices):
        hopeless_judge = CategoryJudge(tiny_collection.labels_array, "NoSuchCategory")

        engine = FeedbackEngine(RetrievalEngine(tiny_collection))
        requests = [
            LoopRequest(query_point=tiny_collection.vectors[int(index)], k=5, judge=hopeless_judge)
            for index in query_indices
        ]
        results = LoopScheduler(engine).run(requests)
        assert [result.iterations for result in results] == [0] * len(requests)
        stats = engine.retrieval_engine.stats()
        assert stats["n_searches"] == len(requests)
        assert stats["n_batches"] == stats["frontier_batches"] == 1
        assert stats["feedback_iterations"] == 0

    def test_a_k_group_per_query_dispatches_per_query(self, tiny_collection, user, query_indices):
        # The degenerate layout: no two loops share a k, so every round is
        # one single-row batch per live loop and the frontier dispatches
        # exactly as many times as the sequential loops search.
        ks = [3 + position for position in range(query_indices.size)]
        sequential_engine = FeedbackEngine(RetrievalEngine(tiny_collection))
        frontier_engine = FeedbackEngine(RetrievalEngine(tiny_collection))
        sequential = [
            sequential_engine.run_loop(
                tiny_collection.vectors[int(index)], k, user.judge_for_query(int(index))
            )
            for index, k in zip(query_indices, ks)
        ]
        frontier = LoopScheduler(frontier_engine).run(
            [
                LoopRequest(
                    query_point=tiny_collection.vectors[int(index)],
                    k=k,
                    judge=user.judge_for_query(int(index)),
                )
                for index, k in zip(query_indices, ks)
            ]
        )
        for sequential_result, frontier_result in zip(sequential, frontier):
            assert_loop_results_identical(sequential_result, frontier_result)
        assert_dispatch_counts(sequential_engine, frontier_engine, frontier, ks)
        stats = frontier_engine.retrieval_engine.stats()
        assert stats["n_batches"] == stats["n_searches"]
        assert any(result.iterations for result in frontier)


class TestFrontierMechanics:
    def test_empty_request_list(self, tiny_collection):
        assert LoopScheduler(FeedbackEngine(RetrievalEngine(tiny_collection))).run([]) == []

    def test_advance_retires_queries_incrementally(self, tiny_collection, user, query_indices):
        engine = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        frontier = FeedbackFrontier(engine, _requests(tiny_collection, user, query_indices))
        assert frontier.active_count == len(frontier) == query_indices.size
        with pytest.raises(ValidationError):
            frontier.results()  # still active
        rounds, active = 0, frontier.active_count
        while remaining := frontier.advance():
            rounds += 1
            assert remaining == frontier.active_count <= active  # retired loops stay retired
            active = remaining
        assert rounds <= engine.max_iterations
        assert frontier.active_count == 0
        assert len(frontier.results()) == query_indices.size

    def test_invalid_initial_weights_rejected_at_admission(self, tiny_collection, user):
        scheduler = LoopScheduler(FeedbackEngine(RetrievalEngine(tiny_collection)))
        bad = LoopRequest(
            query_point=tiny_collection.vectors[0],
            k=5,
            judge=user.judge_for_query(0),
            initial_weights=-np.ones(tiny_collection.dimension),
        )
        with pytest.raises(ValidationError):
            scheduler.run([bad])


class TestFrontierArrayForms:
    """The stacked frontier forms reproduce the per-query kernels bit for bit."""

    @pytest.fixture(scope="class")
    def segments(self):
        rng = np.random.default_rng(9)
        counts = [1, 4, 9, 2, 16]
        vectors = rng.random((sum(counts), 6))
        scores = rng.random(sum(counts)) + 0.05
        return counts, vectors, scores

    def test_segment_boundaries(self):
        np.testing.assert_array_equal(segment_boundaries([1, 4, 2]), [0, 1, 5, 7])
        np.testing.assert_array_equal(segment_boundaries([]), [0])
        with pytest.raises(ValidationError):
            segment_boundaries([-1, 2])

    def test_optimal_query_point_frontier_matches_per_query(self, segments):
        counts, vectors, scores = segments
        offsets = segment_boundaries(counts)
        stacked = optimal_query_point_frontier(vectors, scores, offsets)
        for row, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
            np.testing.assert_array_equal(
                stacked[row], optimal_query_point(vectors[start:stop], scores[start:stop])
            )

    @pytest.mark.parametrize("rule", list(ReweightingRule))
    def test_reweight_frontier_matches_per_query(self, segments, rule):
        counts, vectors, scores = segments
        offsets = segment_boundaries(counts)
        current = np.random.default_rng(2).random((len(counts), vectors.shape[1])) + 0.1
        stacked = reweight_frontier(vectors, scores, offsets, rule=rule, current_weights=current)
        for row, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
            np.testing.assert_array_equal(
                stacked[row],
                reweight(
                    vectors[start:stop],
                    scores[start:stop],
                    rule=rule,
                    current_weights=current[row],
                ),
            )

    def test_reweight_frontier_none_rule_defaults_to_ones(self, segments):
        counts, vectors, scores = segments
        offsets = segment_boundaries(counts)
        stacked = reweight_frontier(vectors, scores, offsets, rule=ReweightingRule.NONE)
        np.testing.assert_array_equal(stacked, np.ones((len(counts), vectors.shape[1])))


class TestSessionIntegration:
    def test_batched_session_equals_sequential_session(self, tiny_dataset):
        """run_batch (frontier loops + cohort insert) == run_query stream."""
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=6, measure_bypass_loop=True)
        batched = InteractiveSession.for_dataset(tiny_dataset, config)
        sequential = InteractiveSession.for_dataset(tiny_dataset, config)
        indices = [0, 3, 7, 11, 2]
        batch_outcomes = batched.run_batch(indices)
        # One batch shares the tree state at batch start, so the sequential
        # reference must also predict before any of the batch inserts.
        predictions = [
            sequential.bypass.mopt(sequential.collection.vectors[index]) for index in indices
        ]
        loop_outcomes = []
        for index, predicted in zip(indices, predictions):
            default_metrics = sequential.evaluate_first_round(
                index, OptimalQueryParameters.default(sequential.collection.dimension)
            )
            bypass_metrics = sequential.evaluate_first_round(index, predicted)
            loop_outcomes.append(
                sequential._complete_query(index, predicted, default_metrics, bypass_metrics)
            )
        assert batch_outcomes == loop_outcomes

    def test_session_run_feedback_loops_matches_run_feedback_loop(self, tiny_dataset):
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
        session = InteractiveSession.for_dataset(tiny_dataset, config)
        default = OptimalQueryParameters.default(session.collection.dimension)
        indices = [1, 4, 6]
        batched = session.run_feedback_loops(indices, [default] * len(indices))
        for index, frontier_result in zip(indices, batched):
            assert_loop_results_identical(
                session.run_feedback_loop(index, default), frontier_result
            )

    def test_run_feedback_loops_validates_lengths(self, tiny_dataset):
        session = InteractiveSession.for_dataset(tiny_dataset, SessionConfig(k=10))
        default = OptimalQueryParameters.default(session.collection.dimension)
        with pytest.raises(ValidationError):
            session.run_feedback_loops([0, 1, 2], [default] * 2)

    def test_engine_stats_expose_loop_accounting(self, tiny_dataset):
        config = SessionConfig(k=10, epsilon=0.05, max_iterations=6)
        session = InteractiveSession.for_dataset(tiny_dataset, config)
        outcomes = session.run_batch([0, 1, 2, 3])
        stats = session.retrieval_engine.stats()
        assert stats["feedback_iterations"] == sum(
            outcome.loop_iterations_default for outcome in outcomes
        )
        assert stats["frontier_batches"] >= 1
