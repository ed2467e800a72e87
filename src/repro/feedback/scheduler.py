"""The frontier feedback scheduler: iteration *i* of every active query at once.

Figure 4 of the paper draws one interactive loop — Query/Result, the user's
relevance judgments, re-weighting and query-point movement, back to
Query/Result — and the sequential reference implementation
(:meth:`repro.feedback.engine.FeedbackEngine.run_loop`) walks that cycle one
query at a time.  A multi-user workload run that way degenerates into a
Python loop per query per iteration: the retrieval engine answers each
re-search individually even though every active query is doing exactly the
same kind of work at the same time.

This module restructures the loop around a **frontier** of in-flight
queries, mapping each box of the paper's figure onto one batched operation
per iteration:

* *Query/Result* — the re-searches of every active query run as a single
  :meth:`~repro.database.engine.RetrievalEngine.search_batch_with_parameters`
  call per result-set size (one stacked ``(Δ, W)`` row per query);
* *relevance judgments* — each query's judge scores its current results (the
  oracle judge is itself vectorised per result list);
* *re-weighting / query-point movement* — the new states of the whole
  frontier are computed by
  :meth:`~repro.feedback.engine.FeedbackEngine.compute_new_states`, which
  gathers all relevant result vectors with one fancy index and applies the
  frontier array forms of the update rules over the stacked segments.

Each entry drives the same :class:`~repro.feedback.engine.LoopCursor` as
the sequential loop, so queries **retire** from the frontier exactly when
the sequential loop would stop them: the result list stabilised
(converged), no result was judged relevant (signal ran out), or the
iteration budget is exhausted.  The frontier itself only decides how the
step is computed (stacked) and how the searches are dispatched (one batch
per ``k``).

The scheduler's contract — enforced tier-1 by
``tests/test_feedback_scheduler.py`` — is that
:meth:`LoopScheduler.run` returns :class:`~repro.feedback.engine.FeedbackLoopResult`
objects **byte-identical** to ``[engine.run_loop(...) for each request]``
for every query, mirroring the ``search_batch == mapped search`` guarantee
of the index protocol one layer down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.feedback.engine import FeedbackEngine, FeedbackLoopResult, Judge, LoopCursor
from repro.utils.validation import ValidationError

__all__ = ["LoopRequest", "FeedbackFrontier", "LoopScheduler"]


@dataclass(frozen=True)
class LoopRequest:
    """One query's admission ticket to the frontier.

    Mirrors the signature of
    :meth:`~repro.feedback.engine.FeedbackEngine.run_loop`: the query point,
    the result-set size, the judge producing its relevance judgments, and
    the optional starting parameters (FeedbackBypass passes its predictions
    here).

    ``max_iterations`` is the per-request iteration budget of the anytime
    layer, validated by :meth:`~repro.feedback.engine.FeedbackEngine.start`
    (a non-negative ``int``): the loop retires after at most that many
    feedback iterations, never exceeding the engine's own cap.  ``None``
    leaves the engine cap alone; ``0`` admits the query for its first-round
    search only.
    """

    query_point: "np.ndarray"
    k: int
    judge: Judge
    initial_delta: "np.ndarray | None" = None
    initial_weights: "np.ndarray | None" = None
    max_iterations: "int | None" = None

    def start(self, feedback_engine: FeedbackEngine) -> LoopCursor:
        """Validate this request and return its loop's cursor."""
        return feedback_engine.start(
            self.query_point,
            self.k,
            self.initial_delta,
            self.initial_weights,
            max_iterations=self.max_iterations,
        )


class _FrontierEntry:
    """One in-flight query: its admission position, its judge, its loop."""

    __slots__ = ("position", "judge", "cursor")

    def __init__(self, position: int, judge: Judge, cursor: LoopCursor) -> None:
        self.position = position
        self.judge = judge
        self.cursor = cursor


class FeedbackFrontier:
    """The set of in-flight feedback loops, advanced one iteration at a time.

    Construction admits every request, starts its loop's cursor
    (:meth:`LoopRequest.start`) and executes all first-round searches
    batched (grouped by ``k``).  Each :meth:`advance` call then runs
    iteration *i* of the paper's loop for every still-active query; queries
    retire as they converge, lose their feedback signal or exhaust their
    iteration budget.  :meth:`results` returns the finished
    :class:`~repro.feedback.engine.FeedbackLoopResult` per request, in
    request order.
    """

    def __init__(
        self, feedback_engine: FeedbackEngine, requests: "list[LoopRequest] | tuple" = ()
    ) -> None:
        self._feedback = feedback_engine
        self._engine = feedback_engine.retrieval_engine
        # Keyed by admission position (monotonic, insertion-ordered), so
        # retired entries can be discarded by a long-lived caller without
        # renumbering the live ones.
        self._entries: "dict[int, _FrontierEntry]" = {}
        self._next_position = 0
        self.admit(requests)

    def admit(self, requests: "list[LoopRequest] | tuple") -> "list[int]":
        """Admit ``requests`` into the frontier, running their first rounds.

        The frontier advances every query independently — iteration *i* of
        one entry never reads another entry's state — so admission composes
        freely with a frontier that is already mid-flight: new entries run
        their (batched) first-round searches here and join the next
        :meth:`advance`, while each admitted query's loop remains
        byte-identical to its own sequential
        :meth:`~repro.feedback.engine.FeedbackEngine.run_loop`.  This is the
        continuous-batching hook the serving layer's shared frontier uses to
        merge feedback rounds of sessions that arrive at different times.

        Admission is atomic: the new entries only join the frontier after
        their first-round searches succeed, so a validation or dispatch
        failure here leaves the running frontier exactly as it was.

        Returns the admitted entries' frontier positions, in request order
        (fetch finished loops with :meth:`result_at`).
        """
        position = self._next_position
        staged = [
            _FrontierEntry(position + offset, request.judge, request.start(self._feedback))
            for offset, request in enumerate(requests)
        ]
        # First rounds, batched: one dispatch per distinct k.
        for group in self._group_by_k(staged):
            self._dispatch(group)
        for entry in staged:
            self._entries[entry.position] = entry
        self._next_position += len(staged)
        return [entry.position for entry in staged]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def active_count(self) -> int:
        """Number of queries still iterating."""
        return sum(1 for entry in self._entries.values() if not entry.cursor.done)

    @property
    def retired_count(self) -> int:
        """Number of retained queries whose loops have finished."""
        return len(self._entries) - self.active_count

    # ------------------------------------------------------------------ #
    # Batched dispatch helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _group_by_k(entries: "list[_FrontierEntry]") -> "list[list[_FrontierEntry]]":
        groups: dict[int, list[_FrontierEntry]] = {}
        for entry in entries:
            groups.setdefault(entry.cursor.k, []).append(entry)
        return list(groups.values())

    def _dispatch(self, group: "list[_FrontierEntry]") -> None:
        """One batched search for a same-``k`` group of entries, settled.

        Exactly the parameters the sequential loop would pass to
        ``search_with_parameters`` (each cursor's
        :meth:`~repro.feedback.engine.LoopCursor.search_parameters`),
        stacked.
        """
        cursors = [entry.cursor for entry in group]
        deltas, weights = zip(*(cursor.search_parameters() for cursor in cursors))
        results = self._engine.search_batch_with_parameters(
            np.vstack([cursor.query_point for cursor in cursors]),
            cursors[0].k,
            np.vstack(deltas),
            np.vstack(weights),
        )
        self._engine.record_frontier_batch()
        for cursor, result_set in zip(cursors, results):
            cursor.settle(result_set)

    # ------------------------------------------------------------------ #
    # One frontier iteration
    # ------------------------------------------------------------------ #
    def advance(self, limit: "int | None" = None) -> int:
        """Run one loop iteration for every active query.

        Judges the active queries' current results, computes the frontier's
        new states in one stacked step, retires the queries whose feedback
        signal ran out, re-searches the rest in batched dispatches, and
        retires the queries that converged or exhausted the iteration
        budget.  Returns the number of queries still active afterwards.

        ``limit`` caps how many active queries iterate this turn (the
        anytime degradation knob): under load the frontier advances only
        the ``limit`` oldest active entries, in admission order, and the
        rest simply wait for a later turn.  Each entry's loop only ever
        reads its own state, so deferral changes *when* an iteration runs,
        never its bits — every loop stays byte-identical to its sequential
        reference, it just retires later.
        """
        active = [entry for entry in self._entries.values() if not entry.cursor.done]
        if limit is not None:
            if limit < 0:
                raise ValidationError("advance limit must be non-negative (or None)")
            active = active[:limit]
        if not active:
            return 0 if limit is None else self.active_count

        judgments = [entry.judge(entry.cursor.results) for entry in active]
        proposals = self._feedback.compute_new_states(
            [entry.cursor.state for entry in active], judgments
        )
        for entry, proposal in zip(active, proposals):
            entry.cursor.propose(proposal)
        searching = [entry for entry in active if not entry.cursor.done]
        for group in self._group_by_k(searching):
            self._dispatch(group)
            self._engine.record_feedback_iterations(len(group))
        return self.active_count

    def run_to_completion(self) -> None:
        """Advance until every query has retired from the frontier."""
        while self.advance():
            pass

    def _cursor_at(self, position: int) -> LoopCursor:
        entry = self._entries.get(position)
        if entry is None:
            raise ValidationError(f"unknown or discarded frontier position {position}")
        return entry.cursor

    def is_done(self, position: int) -> bool:
        """Whether the entry at ``position`` has retired from the frontier."""
        return self._cursor_at(position).done

    def result_at(self, position: int) -> FeedbackLoopResult:
        """The finished loop result of one entry (by admission position).

        Raises when that entry is still active — the serving layer polls
        :meth:`is_done` between :meth:`advance` rounds and collects each
        loop the moment it retires, without waiting for the rest of the
        frontier.
        """
        cursor = self._cursor_at(position)
        if not cursor.done:
            raise ValidationError(f"frontier entry {position} is still active")
        return cursor.result()

    def discard(self, position: int) -> None:
        """Release a retired entry whose result has been collected.

        A long-lived frontier (the serving layer admits loops into one
        frontier for as long as traffic overlaps) would otherwise retain
        every finished loop's state and result sets forever, and every
        :meth:`advance` would rescan them: discarding keeps the frontier's
        memory and per-round cost proportional to the *active* loops.
        Active entries cannot be discarded — they are still iterating.
        """
        if not self._cursor_at(position).done:
            raise ValidationError(f"frontier entry {position} is still active")
        del self._entries[position]

    def results(self) -> "list[FeedbackLoopResult]":
        """The finished loop results of every retained entry, in admission order.

        Raises when some queries are still active — drive the frontier with
        :meth:`advance` / :meth:`run_to_completion` first.  Entries released
        with :meth:`discard` are no longer reported (the batch entry points
        :meth:`LoopScheduler.run` never discards, so for it this is exactly
        one result per request, in request order).
        """
        if self.active_count:
            raise ValidationError(
                f"{self.active_count} queries are still active on the frontier"
            )
        return [entry.cursor.result() for entry in self._entries.values()]


class LoopScheduler:
    """Batches relevance-feedback loops across queries, iteration by iteration.

    The scheduler is the multi-user counterpart of
    :meth:`~repro.feedback.engine.FeedbackEngine.run_loop`: it admits many
    queries into a :class:`FeedbackFrontier` and advances iteration *i* of
    all of them in one shot, so a workload of F active loops costs one
    batched search per iteration instead of F sequential scans — while
    returning results byte-identical to the sequential reference loop.
    Parallelism comes from the retrieval engine: over a
    :class:`~repro.database.sharding.ShardedEngine` every batched search
    fans out across its shard workers.
    """

    def __init__(self, feedback_engine: FeedbackEngine) -> None:
        self._feedback = feedback_engine

    @property
    def feedback_engine(self) -> FeedbackEngine:
        """The feedback engine whose loops this scheduler batches."""
        return self._feedback

    def run(self, requests: "list[LoopRequest]") -> "list[FeedbackLoopResult]":
        """Run every request's feedback loop to completion, batched.

        Equivalent — byte for byte — to ``[feedback_engine.run_loop(r.query_point,
        r.k, r.judge, initial_delta=r.initial_delta,
        initial_weights=r.initial_weights) for r in requests]``.
        """
        if not requests:
            return []
        frontier = FeedbackFrontier(self._feedback, requests)
        frontier.run_to_completion()
        return frontier.results()
