"""The one feedback-loop transition and the stop reason it reports.

Every loop — the sequential ``run_loop``, the batched frontier and the
served client-judged session — drives the same
:class:`~repro.feedback.engine.LoopCursor`, so all three must agree on
*why* a loop stopped, not only on its bytes.  The iteration cap is the
feedback engine's, and a bad cap is a typed error.
"""

import dataclasses

import numpy as np
import pytest

from repro.database.engine import RetrievalEngine
from repro.evaluation.simulated_user import CategoryJudge, SimulatedUser
from repro.feedback.engine import LOOP_REASONS, FeedbackEngine, FeedbackState, LoopCursor
from repro.feedback.reweighting import ReweightingRule
from repro.feedback.scheduler import LoopRequest, LoopScheduler
from repro.serving import RetrievalServer, ServerConfig, ServingClient
from repro.serving.codec import BINARY, CodecError
from repro.utils.validation import ValidationError

BAD_CAPS = [2.5, True, "3", -1]


@pytest.fixture(scope="module")
def user(tiny_collection) -> SimulatedUser:
    return SimulatedUser(tiny_collection)


@pytest.fixture(scope="module")
def loops(tiny_collection, user):
    """The scheduler grid's queries, plus one whose judge never finds a match."""
    rng = np.random.default_rng(31)
    indices = rng.integers(0, tiny_collection.size, size=10)
    judges = [user.judge_for_query(int(index)) for index in indices]
    judges.append(CategoryJudge(labels=tiny_collection.labels_array, category="NoSuchCategory"))
    points = [tiny_collection.vectors[int(index)] for index in indices]
    points.append(tiny_collection.vectors[0])
    return list(zip(points, judges))


def _outcome(loop):
    return loop.reason, loop.iterations, loop.converged


@pytest.mark.serving
class TestEveryPathAgreesOnWhyALoopStopped:
    @pytest.mark.parametrize("rule", list(ReweightingRule))
    @pytest.mark.parametrize("move_query_point", [True, False])
    @pytest.mark.parametrize("max_iterations", [1, 3, 10])
    def test_reason_grid(self, tiny_collection, loops, rule, move_query_point, max_iterations):
        def feedback_engine():
            return FeedbackEngine(
                RetrievalEngine(tiny_collection),
                reweighting_rule=rule,
                move_query_point=move_query_point,
                max_iterations=max_iterations,
            )

        sequential = [feedback_engine().run_loop(point, 8, judge) for point, judge in loops]
        frontier = LoopScheduler(feedback_engine()).run(
            [LoopRequest(query_point=point, k=8, judge=judge) for point, judge in loops]
        )
        config = ServerConfig(
            reweighting_rule=rule, move_query_point=move_query_point, max_iterations=max_iterations
        )
        with RetrievalServer(RetrievalEngine(tiny_collection), config) as server:
            with ServingClient(*server.address) as client:
                sessions = [client.run_feedback_session(point, 8, judge) for point, judge in loops]

        for reference, *others in zip(sequential, frontier, sessions):
            assert reference.reason != "active"
            for other in others:
                assert _outcome(other) == _outcome(reference)
                assert other.identical_to(reference)
        assert sequential[-1].reason == "no_signal"


class TestCursor:
    def test_search_parameters_use_the_callers_delta_first(self, tiny_collection, user):
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection))
        point = tiny_collection.vectors[3]
        delta = np.full(tiny_collection.dimension, 0.1)
        cursor = feedback.start(point, 5, delta)
        assert isinstance(cursor, LoopCursor)
        first_delta, first_weights = cursor.search_parameters()
        assert first_delta is delta
        np.testing.assert_array_equal(first_weights, np.ones(tiny_collection.dimension))
        engine = feedback.retrieval_engine
        cursor.settle(engine.search_with_parameters(point, 5, delta, first_weights))
        assert cursor.reason == "active" and cursor.iterations == 0
        proposal = feedback.compute_new_state(cursor.state, user.judge_for_query(3)(cursor.results))
        cursor.propose(proposal)
        next_delta, next_weights = cursor.search_parameters()
        np.testing.assert_array_equal(next_delta, proposal.query_point - point)
        assert next_weights is proposal.weights

    def test_no_signal_ends_the_loop_without_a_search(self, tiny_collection):
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection))
        cursor = feedback.start(tiny_collection.vectors[0], 5)
        cursor.settle(feedback.retrieval_engine.search(tiny_collection.vectors[0], 5))
        cursor.propose(cursor.state)  # compute_new_state's no-signal answer
        assert cursor.done and cursor.reason == "no_signal"
        result = cursor.result()
        assert result.iterations == 0 and result.final_state is result.initial_state

    def test_convergence_on_the_last_allowed_iteration_is_converged(self, tiny_collection):
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=1)
        point = tiny_collection.vectors[0]
        cursor = feedback.start(point, 5)
        first_round = feedback.retrieval_engine.search(point, 5)
        cursor.settle(first_round)
        cursor.propose(FeedbackState(query_point=point.copy(), weights=cursor.state.weights))
        cursor.settle(first_round)
        assert (cursor.reason, cursor.iterations) == ("converged", 1)

    @pytest.mark.parametrize("cap", BAD_CAPS, ids=repr)
    def test_bad_caps_are_rejected(self, tiny_collection, cap):
        with pytest.raises(ValidationError):
            FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=cap)
        with pytest.raises(ValidationError):
            ServerConfig(max_iterations=cap)

    def test_an_unknown_reason_is_refused(self, tiny_collection, user):
        loop = FeedbackEngine(RetrievalEngine(tiny_collection)).run_loop(
            tiny_collection.vectors[0], 5, user.judge_for_query(0)
        )
        with pytest.raises(ValidationError):
            dataclasses.replace(loop, reason="bored")


class TestCodecCarriesTheReason:
    @pytest.fixture(scope="class")
    def loop(self, tiny_collection, user):
        return FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=2).run_loop(
            tiny_collection.vectors[2], 6, user.judge_for_query(2)
        )

    @pytest.mark.parametrize("reason", LOOP_REASONS)
    def test_every_reason_round_trips(self, loop, reason):
        value = dataclasses.replace(loop, reason=reason)
        decoded = BINARY.decode(BINARY.encode(value))
        assert decoded.reason == reason
        assert decoded.converged == (reason == "converged")
        assert decoded.identical_to(value)

    def test_an_unknown_reason_is_a_codec_error(self, loop):
        encoded = BINARY.encode(dataclasses.replace(loop, reason="budget"))
        field = b"s" + len(b"budget").to_bytes(4, "big") + b"budget"
        assert encoded.count(field) == 1
        with pytest.raises(CodecError):
            BINARY.decode(encoded.replace(field, b"s" + (6).to_bytes(4, "big") + b"bored!"))
