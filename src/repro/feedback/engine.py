"""The feedback-loop controller.

:class:`FeedbackEngine` implements the interaction pattern of Figures 4 and 5
in the paper: execute the query, collect relevance judgments, compute a new
query point and new distance weights, and repeat until the result list stops
changing (or an iteration budget runs out).  The judge is a callable so the
same engine serves both real interactive use and the category-oracle
simulation of the experiments.

The loop's transition is defined once, as the :class:`LoopCursor` that
:meth:`FeedbackEngine.start` validates and returns: it says which ``(Δ, W)``
the next search runs under, takes the next state (or the lack of a feedback
signal), takes each search's results and decides when and why the loop
stops.  A caller only computes the step — one state with
:meth:`FeedbackEngine.compute_new_state`, or a stacked frontier with
:meth:`FeedbackEngine.compute_new_states` — and dispatches the search.  The
sequential reference loop (:meth:`FeedbackEngine.run_loop`), the batched
frontier scheduler (:mod:`repro.feedback.scheduler`) and the served
client-judged sessions (:mod:`repro.serving.sessions`) all drive the same
cursor, which is why they are byte-identical to one another.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.oqp import OptimalQueryParameters
from repro.database.engine import RetrievalEngine
from repro.database.query import ResultSet
from repro.distances.parameters import default_weight_vector, pack_oqp_vector
from repro.feedback.query_point_movement import (
    optimal_query_point,
    optimal_query_point_frontier,
    segment_boundaries,
)
from repro.feedback.reweighting import ReweightingRule, reweight, reweight_frontier
from repro.feedback.scores import JudgmentBatch, RelevanceJudgment
from repro.utils.validation import ValidationError, as_float_vector, check_dimension

#: A judge maps a result set to one relevance judgment per result — either a
#: judgment list or the vectorised :class:`JudgmentBatch` form.
Judge = Callable[[ResultSet], "list[RelevanceJudgment] | JudgmentBatch"]

#: Why a loop stopped: no relevant result was judged (``no_signal``), the
#: result list stabilised (``converged``) or the iteration cap was reached
#: (``budget``); ``active`` while it still iterates.
LOOP_REASONS = ("active", "no_signal", "converged", "budget")


@dataclass(frozen=True)
class FeedbackState:
    """The query parameters in force at one point of the loop."""

    query_point: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        query_point = as_float_vector(self.query_point, name="query_point")
        weights = as_float_vector(self.weights, name="weights")
        query_point.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "query_point", query_point)
        object.__setattr__(self, "weights", weights)

    def oqp_vector(self, original_query_point) -> np.ndarray:
        """Pack this state as an OQP vector relative to ``original_query_point``.

        The offset ``Δ = q_state - q_original`` and the weights are
        concatenated — exactly the value FeedbackBypass stores per query.
        """
        original = as_float_vector(
            original_query_point, name="original_query_point", dim=self.query_point.shape[0]
        )
        return pack_oqp_vector(self.query_point - original, self.weights)


@dataclass(frozen=True)
class FeedbackLoopResult:
    """Everything the loop produced for one query.

    Attributes
    ----------
    initial_state, final_state:
        Query parameters before and after the loop.
    initial_results, final_results:
        Result sets of the first and of the last search.
    iterations:
        Number of *feedback* iterations, i.e. additional searches beyond the
        first one.  This is the quantity the Saved-Cycles metric compares.
    reason:
        Why the loop stopped, one of :data:`LOOP_REASONS` (``active`` for a
        served session closed mid-loop).
    """

    initial_state: FeedbackState
    final_state: FeedbackState
    initial_results: ResultSet
    final_results: ResultSet
    iterations: int
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in LOOP_REASONS:
            raise ValidationError(f"unknown loop stop reason {self.reason!r}")

    @property
    def converged(self) -> bool:
        """True when the loop stopped because the result list stabilised."""
        return self.reason == "converged"

    def optimal_parameters(self, query_point) -> OptimalQueryParameters:
        """The OQPs this loop converged to, relative to ``query_point``.

        This is the pair the Simplex Tree stores: the offset from the
        original query point to the loop's final query point, plus the final
        distance weights.
        """
        query_point = as_float_vector(query_point, name="query_point")
        return OptimalQueryParameters(
            delta=self.final_state.query_point - query_point,
            weights=self.final_state.weights.copy(),
        )

    def parameters_to_store(self, query_point) -> "OptimalQueryParameters | None":
        """The OQPs worth storing in a Simplex Tree, or ``None``.

        The insert policy: a loop that produced no feedback signal at all
        (zero iterations and default parameters) stores nothing.
        """
        optimal = self.optimal_parameters(query_point)
        if self.iterations == 0 and optimal.is_default():
            return None
        return optimal

    def identical_to(self, other: "FeedbackLoopResult") -> bool:
        """Byte-level equality with another loop result.

        This is the comparison behind the scheduler contract — states,
        result sets, iteration count and stop reason must all match bit for
        bit between the sequential loop and the frontier scheduler.
        """
        return bool(
            np.array_equal(self.initial_state.query_point, other.initial_state.query_point)
            and np.array_equal(self.initial_state.weights, other.initial_state.weights)
            and np.array_equal(self.final_state.query_point, other.final_state.query_point)
            and np.array_equal(self.final_state.weights, other.final_state.weights)
            and self.initial_results == other.initial_results
            and self.final_results == other.final_results
            and self.iterations == other.iterations
            and self.reason == other.reason
        )


class LoopCursor:
    """One feedback loop's state machine: judge → step → re-search → stop.

    A cursor is pure bookkeeping — it never searches and never judges.  Its
    driver alternates two moves: run the search :meth:`search_parameters`
    names and hand the results to :meth:`settle`; then, unless the loop is
    :attr:`done`, judge :attr:`results`, compute the next state and hand it
    to :meth:`propose`.  Build one with :meth:`FeedbackEngine.start`.
    """

    __slots__ = (
        "query_point",
        "k",
        "max_iterations",
        "state",
        "results",
        "initial_state",
        "initial_results",
        "iterations",
        "reason",
        "_initial_delta",
        "_proposed",
    )

    def __init__(
        self,
        query_point: np.ndarray,
        k: int,
        initial_delta: np.ndarray,
        initial_weights: np.ndarray,
        max_iterations: int,
    ) -> None:
        self.query_point = query_point
        self.k = k
        self.max_iterations = max_iterations
        self.state = self.initial_state = FeedbackState(
            query_point=query_point + initial_delta, weights=initial_weights
        )
        self.results: ResultSet | None = None
        self.initial_results: ResultSet | None = None
        self.iterations = 0
        self.reason = "active"
        self._initial_delta = initial_delta
        self._proposed: FeedbackState | None = None

    @property
    def done(self) -> bool:
        """Whether the loop has stopped (:attr:`reason` says why)."""
        return self.reason != "active"

    def search_parameters(self) -> "tuple[np.ndarray, np.ndarray]":
        """The ``(Δ, W)`` the next search runs under, relative to the query point.

        Before the first round this is the caller's own ``Δ₀``: recomputing
        it from the state as ``(q + Δ₀) − q`` would not be bit-identical to
        it.  After that it is the proposed state's offset and weights.
        """
        if self._proposed is None:
            return self._initial_delta, self.state.weights
        return self._proposed.query_point - self.query_point, self._proposed.weights

    def propose(self, next_state: "FeedbackState | None") -> None:
        """Stage the next state, computed from the judged :attr:`results`.

        ``None`` — or the current state itself, which is how
        :meth:`FeedbackEngine.compute_new_state` answers — means no result
        was judged relevant: the loop ends as ``no_signal``, with no search.
        """
        if next_state is None or next_state is self.state:
            self.reason = "no_signal"
        else:
            self._proposed = next_state

    def settle(self, results: ResultSet) -> None:
        """Take the results of the search :meth:`search_parameters` named.

        The first call is the first round, which is not an iteration; a cap
        of zero ends the loop there.  Every later call counts one iteration,
        moves to the proposed state, and stops the loop as ``converged``
        when the result list holds the same objects as before, or as
        ``budget`` when the cap is reached.
        """
        if self.results is None:
            self.results = self.initial_results = results
            if self.max_iterations == 0:
                self.reason = "budget"
            return
        self.iterations += 1
        converged = results.same_objects(self.results)
        self.state, self.results, self._proposed = self._proposed, results, None
        if converged:
            self.reason = "converged"
        elif self.iterations >= self.max_iterations:
            self.reason = "budget"

    def result(self) -> FeedbackLoopResult:
        """The loop's outcome so far, as a :class:`FeedbackLoopResult`."""
        return FeedbackLoopResult(
            initial_state=self.initial_state,
            final_state=self.state,
            initial_results=self.initial_results,
            final_results=self.results,
            iterations=self.iterations,
            reason=self.reason,
        )


class FeedbackEngine:
    """Runs relevance-feedback loops on top of a retrieval engine.

    Parameters
    ----------
    retrieval_engine:
        The k-NN engine queries run against.
    reweighting_rule:
        Which re-weighting rule the loop applies (default: the optimal
        ``1/σ²`` rule).
    move_query_point:
        Whether to apply query-point movement (Equation 2).  Disabling it
        gives a re-weighting-only system, used by the strategy ablation.
    max_iterations:
        Upper bound on feedback iterations per query; the paper's loops
        converge in a handful of iterations, the bound only guards against
        oscillation.
    variance_floor:
        Floor on per-component variance inside the re-weighting rules.
    """

    def __init__(
        self,
        retrieval_engine: RetrievalEngine,
        *,
        reweighting_rule: ReweightingRule = ReweightingRule.OPTIMAL,
        move_query_point: bool = True,
        max_iterations: int = 10,
        variance_floor: float = 1e-6,
    ) -> None:
        self._engine = retrieval_engine
        self._rule = reweighting_rule
        self._move_query_point = bool(move_query_point)
        self._max_iterations = check_dimension(max_iterations, "max_iterations")
        self._variance_floor = float(variance_floor)

    @property
    def retrieval_engine(self) -> RetrievalEngine:
        """The underlying retrieval engine."""
        return self._engine

    @property
    def reweighting_rule(self) -> ReweightingRule:
        """The configured re-weighting rule."""
        return self._rule

    @property
    def move_query_point(self) -> bool:
        """Whether the loop applies query-point movement."""
        return self._move_query_point

    @property
    def max_iterations(self) -> int:
        """The per-query iteration budget."""
        return self._max_iterations

    @property
    def variance_floor(self) -> float:
        """Floor on per-component variance inside the re-weighting rules."""
        return self._variance_floor

    # ------------------------------------------------------------------ #
    # Step primitives
    # ------------------------------------------------------------------ #
    def start(
        self,
        query_point,
        k: int,
        initial_delta=None,
        initial_weights=None,
        *,
        max_iterations: "int | None" = None,
    ) -> LoopCursor:
        """Validate one loop's starting parameters and return its cursor.

        ``None`` defaults resolve to no offset and unweighted Euclidean.
        ``max_iterations`` is a per-loop cap (a non-negative ``int``; ``0``
        stops after the first round); the cursor's cap is the smaller of it
        and the engine's.  Every loop — sequential, frontier or served —
        starts here, so all of them reject exactly the same inputs and start
        from exactly the same state.
        """
        cap = self._max_iterations
        if max_iterations is not None:
            if (
                isinstance(max_iterations, bool)
                or not isinstance(max_iterations, numbers.Integral)
                or max_iterations < 0
            ):
                raise ValidationError(
                    f"max_iterations must be a non-negative int or None, got {max_iterations!r}"
                )
            cap = min(cap, int(max_iterations))
        k = check_dimension(k, "k")
        dimension = self._engine.collection.dimension
        query_point = as_float_vector(query_point, name="query_point", dim=dimension)
        if initial_delta is None:
            initial_delta = np.zeros(dimension, dtype=np.float64)
        initial_delta = as_float_vector(initial_delta, name="initial_delta", dim=dimension)
        if initial_weights is None:
            initial_weights = default_weight_vector(dimension)
        initial_weights = as_float_vector(initial_weights, name="initial_weights", dim=dimension)
        if np.any(initial_weights < 0):
            raise ValidationError("initial_weights must be non-negative")
        return LoopCursor(query_point, k, initial_delta, initial_weights, cap)

    def compute_new_state(
        self, state: FeedbackState, judgments: "list[RelevanceJudgment] | JudgmentBatch"
    ) -> FeedbackState:
        """Compute the next query parameters from one round of judgments.

        When no result was judged relevant there is no signal to exploit and
        the state is returned unchanged (the loop will then terminate).

        The computation is vectorised over the result set: the judgments are
        held as parallel arrays (:class:`JudgmentBatch`; a plain list is
        coerced once) and the relevant vectors are gathered with a single
        fancy index instead of a per-result Python loop.
        """
        batch = JudgmentBatch.from_judgments(judgments)
        mask = batch.relevant_mask
        if not mask.any():
            return state
        good_vectors = self._engine.collection.vectors[batch.indices[mask]]
        good_scores = batch.scores[mask]

        if self._move_query_point:
            new_point = optimal_query_point(good_vectors, good_scores)
        else:
            new_point = np.asarray(state.query_point, dtype=np.float64).copy()
        new_weights = reweight(
            good_vectors,
            good_scores,
            rule=self._rule,
            current_weights=state.weights,
            variance_floor=self._variance_floor,
        )
        return FeedbackState(query_point=new_point, weights=new_weights)

    def compute_new_states(
        self,
        states: "list[FeedbackState]",
        judgments: "list[list[RelevanceJudgment] | JudgmentBatch]",
    ) -> "list[FeedbackState | None]":
        """The feedback step for a whole frontier of queries at once.

        Entry ``f`` is the next state of query ``f``, or ``None`` when none
        of its results was judged relevant (the per-query signal the
        sequential loop reacts to by terminating).  Every returned state is
        byte-identical to ``compute_new_state(states[f], judgments[f])``:
        the relevant vectors of the whole frontier are gathered from the
        collection with one fancy index and the re-weighting /
        query-point-movement rules run in their frontier array forms over
        the stacked segments.
        """
        if len(states) != len(judgments):
            raise ValidationError("compute_new_states needs one judgment round per state")
        batches = [JudgmentBatch.from_judgments(round_judgments) for round_judgments in judgments]
        masks = [batch.relevant_mask for batch in batches]
        live = [position for position, mask in enumerate(masks) if mask.any()]
        new_states: list[FeedbackState | None] = [None] * len(states)
        if not live:
            return new_states

        # One gather for the entire frontier: the concatenated relevant
        # indices pull every query's good vectors out of the collection in a
        # single fancy index; segment f is exactly the per-query gather.
        gathered_indices = np.concatenate([batches[position].indices[masks[position]] for position in live])
        good_vectors = self._engine.collection.vectors[gathered_indices]
        good_scores = np.concatenate([batches[position].scores[masks[position]] for position in live])
        offsets = segment_boundaries([int(masks[position].sum()) for position in live])

        if self._move_query_point:
            new_points = optimal_query_point_frontier(good_vectors, good_scores, offsets)
        else:
            new_points = np.vstack(
                [np.asarray(states[position].query_point, dtype=np.float64) for position in live]
            )
        new_weights = reweight_frontier(
            good_vectors,
            good_scores,
            offsets,
            rule=self._rule,
            current_weights=np.vstack([states[position].weights for position in live]),
            variance_floor=self._variance_floor,
        )
        for row, position in enumerate(live):
            new_states[position] = FeedbackState(
                query_point=new_points[row].copy(), weights=new_weights[row].copy()
            )
        return new_states

    # ------------------------------------------------------------------ #
    # Full loop
    # ------------------------------------------------------------------ #
    def run_loop(
        self,
        query_point,
        k: int,
        judge: Judge,
        *,
        initial_delta=None,
        initial_weights=None,
    ) -> FeedbackLoopResult:
        """Run the feedback loop for one query.

        This is the sequential reference implementation;
        :class:`repro.feedback.scheduler.LoopScheduler` batches the same
        loop across many queries and must reproduce its results byte for
        byte.

        Parameters
        ----------
        query_point:
            The user's query point ``q``.
        k:
            Result-set size.
        judge:
            Callable producing relevance judgments for a result set.
        initial_delta, initial_weights:
            Starting query parameters.  ``None`` means the defaults (no
            offset, unweighted Euclidean); FeedbackBypass passes its
            predictions here.
        """
        cursor = self.start(query_point, k, initial_delta, initial_weights)
        cursor.settle(self._search(cursor))
        while not cursor.done:
            cursor.propose(self.compute_new_state(cursor.state, judge(cursor.results)))
            if cursor.done:
                break
            cursor.settle(self._search(cursor))
            self._engine.record_feedback_iterations()
        return cursor.result()

    def _search(self, cursor: LoopCursor) -> ResultSet:
        delta, weights = cursor.search_parameters()
        return self._engine.search_with_parameters(
            cursor.query_point, cursor.k, delta=delta, weights=weights
        )
