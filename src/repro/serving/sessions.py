"""Server-side state of interactive, client-driven feedback sessions.

The :class:`~repro.serving.coalescer.FrontierCoalescer` serves loops whose
judge travels to the server (the simulated-user regime).  A *real*
interactive user is the opposite shape: the judge lives on the client, and
each round trips over the network — open the session, look at the results,
send relevance judgments, get the re-searched results, repeat.  This module
keeps that per-session loop state on the server:

* :class:`ServingSession` — one user's in-flight loop: an id, the owning
  connection, a lock and the loop's
  :class:`~repro.feedback.engine.LoopCursor`, advanced one judged round at
  a time.  The cursor is the one :meth:`~repro.feedback.engine.FeedbackEngine.run_loop`
  drives (same no-signal stop, same convergence test, same iteration
  budget), so a client that judges with the same oracle reproduces the
  sequential loop byte for byte.
* :class:`SessionManager` — the registry: creates ids, owns the sessions,
  scopes every session to the connection that opened it and drops a
  connection's sessions when it goes away.

Round re-searches go through the server's shared
:class:`~repro.serving.coalescer.RequestCoalescer`, so concurrent sessions'
iteration-*i* searches merge into shared dispatches exactly like any other
traffic.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from repro.database.query import ResultSet
from repro.feedback.engine import FeedbackEngine, FeedbackLoopResult, LoopCursor
from repro.feedback.scores import JudgmentBatch
from repro.serving.coalescer import RequestCoalescer
from repro.utils.validation import ValidationError

__all__ = ["ServingSession", "SessionManager"]


class ServingSession:
    """One interactive user's feedback loop, advanced round by round."""

    __slots__ = ("session_id", "owner", "lock", "cursor")

    def __init__(self, session_id: int, owner, cursor: LoopCursor) -> None:
        self.session_id = session_id
        self.owner = owner
        self.lock = threading.Lock()
        self.cursor = cursor


class SessionManager:
    """Registry and round engine of the server's interactive sessions."""

    def __init__(self, feedback_engine: FeedbackEngine, coalescer: RequestCoalescer) -> None:
        self._feedback = feedback_engine
        self._coalescer = coalescer
        self._lock = threading.Lock()
        self._sessions: "dict[int, ServingSession]" = {}
        self._ids = itertools.count(1)
        self._n_opened = 0
        self._n_rounds = 0
        self._n_dropped = 0

    def stats(self) -> dict:
        """Session lifecycle counters."""
        with self._lock:
            return {
                "open": len(self._sessions),
                "opened": self._n_opened,
                "rounds": self._n_rounds,
                "dropped_on_disconnect": self._n_dropped,
            }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def open(
        self, owner, query_point, k: int, initial_delta=None, initial_weights=None
    ) -> ServingSession:
        """Open a session and run its (coalesced) first-round search.

        The prologue and the first search are exactly
        :meth:`~repro.feedback.engine.FeedbackEngine.run_loop`'s: the same
        cursor, started with the engine's iteration cap — only the search is
        routed through the micro-batch window.
        """
        cursor = self._feedback.start(query_point, k, initial_delta, initial_weights)
        cursor.settle(self._search(cursor))
        with self._lock:
            session = ServingSession(next(self._ids), owner, cursor)
            self._sessions[session.session_id] = session
            self._n_opened += 1
        return session

    def _search(self, cursor: LoopCursor) -> ResultSet:
        """The cursor's next search, as a one-row coalesced submission."""
        delta, weights = cursor.search_parameters()
        return self._coalescer.submit_search_with_parameters(
            cursor.query_point[None, :], cursor.k, delta[None, :], weights[None, :]
        )[0]

    def get(self, session_id: int, owner) -> ServingSession:
        """Look a session up, enforcing connection ownership."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None or session.owner is not owner:
            raise ValidationError(f"unknown session id {session_id}")
        return session

    def close(self, session_id: int, owner) -> FeedbackLoopResult:
        """Remove a session and return its loop outcome (final or abandoned)."""
        session = self.get(session_id, owner)
        with self._lock:
            self._sessions.pop(session_id, None)
        with session.lock:
            return session.cursor.result()

    def drop_owner(self, owner) -> None:
        """Drop every session of a disconnected connection."""
        with self._lock:
            stale = [
                session_id
                for session_id, session in self._sessions.items()
                if session.owner is owner
            ]
            for session_id in stale:
                del self._sessions[session_id]
            self._n_dropped += len(stale)

    def clear(self) -> None:
        """Drop every session (server shutdown)."""
        with self._lock:
            self._sessions.clear()

    # ------------------------------------------------------------------ #
    # One judged round
    # ------------------------------------------------------------------ #
    def feedback(self, session_id: int, owner, indices, scores) -> dict:
        """Advance a session by one judged round.

        ``indices`` / ``scores`` are the client's relevance judgments of the
        session's *current* results (what a judge callable would have
        returned).  The session's cursor takes the step computed from them:
        no relevant result stops the loop with no search; otherwise the
        re-search runs (coalesced), the iteration counts, and the loop ends
        on convergence or on the iteration budget.

        Returns the round payload the wire protocol sends back: the new
        results (``None`` when the signal ran out), the bookkeeping flags
        and — once ``done`` — nothing further may be submitted.
        """
        session = self.get(session_id, owner)
        with session.lock:
            cursor = session.cursor
            if cursor.done:
                raise ValidationError(f"session {session_id} has already finished")
            indices = np.asarray(indices, dtype=np.intp)
            collection_size = self._feedback.retrieval_engine.collection.size
            if indices.size and (indices.min() < 0 or indices.max() >= collection_size):
                raise ValidationError("judgment indices out of collection range")
            judgments = JudgmentBatch(indices=indices, scores=np.asarray(scores, dtype=np.float64))

            cursor.propose(self._feedback.compute_new_state(cursor.state, judgments))
            new_results = None
            if not cursor.done:
                new_results = self._search(cursor)
                cursor.settle(new_results)
                self._feedback.retrieval_engine.record_feedback_iterations()
            with self._lock:
                self._n_rounds += 1
            return {
                "session_id": session.session_id,
                "results": new_results,
                "iterations": cursor.iterations,
                "converged": cursor.reason == "converged",
                "done": cursor.done,
                "reason": cursor.reason,
            }
