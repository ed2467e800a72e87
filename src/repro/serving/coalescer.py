"""Request coalescing: concurrent callers share batched engine dispatches.

The batched machinery of the lower layers (``search_batch``, the frontier
scheduler) only pays off when someone actually *builds* batches — a network
server that forwards each connection's query as its own engine call degrades
straight back to the per-query loop the batch pipeline was built to replace.
This module closes that gap with two coalescers:

* :class:`RequestCoalescer` — a shared **micro-batch window** for k-NN
  queries.  Concurrent submissions are admitted into one open window per
  ``(kind, k)`` group and the window dispatches as a single
  ``search_batch`` / ``search_batch_with_parameters`` engine call; batching
  emerges from *backpressure* (while one dispatch runs, arrivals gather
  into the next window — continuous batching, no deliberate delay), with
  ``max_batch`` capping a window and ``max_wait`` optionally holding one
  open to grow it.
* :class:`FrontierCoalescer` — a shared
  :class:`~repro.feedback.scheduler.FeedbackFrontier` for relevance-feedback
  loops.  Loop requests from any number of connections are admitted into
  one running frontier (continuous batching via
  :meth:`~repro.feedback.scheduler.FeedbackFrontier.admit`), so iteration
  *i* of N concurrent users' loops costs ~one batched dispatch per round
  instead of N sequential scans.

**Coalescing never changes results.**  ``search_batch(Q, k)`` is
byte-identical to ``[search(q, k) for q in Q]`` (the batch contract, tier-1
enforced), so which other rows share a dispatch is unobservable to any
single caller; likewise each frontier entry advances independently, so a
loop admitted into a shared frontier reproduces its sequential
:meth:`~repro.feedback.engine.FeedbackEngine.run_loop` bit for bit.  The
serving equivalence suite (``tests/test_serving_equivalence.py``) enforces
both directions.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.database.query import QueryBatch, ResultSet
from repro.feedback.engine import FeedbackEngine, FeedbackLoopResult
from repro.feedback.scheduler import FeedbackFrontier, LoopRequest
from repro.utils.validation import ValidationError, check_dimension

__all__ = ["RequestCoalescer", "FrontierCoalescer"]


class _PendingRows:
    """One submitter's rows inside a window, and its completion signal.

    ``arrays`` are the matrix arguments of the engine call the rows will
    ride: ``(points,)`` or ``(points, deltas, weights)``.
    """

    __slots__ = ("arrays", "n_rows", "event", "results", "error")

    def __init__(self, arrays: tuple, n_rows: int) -> None:
        self.arrays = arrays
        self.n_rows = n_rows
        self.event = threading.Event()
        self.results: "list[ResultSet] | None" = None
        self.error: "BaseException | None" = None


class _Window:
    """One micro-batch in the making: the submissions of a ``(kind, k)`` group."""

    __slots__ = ("requests", "rows", "filled", "closed")

    def __init__(self) -> None:
        self.requests: "list[_PendingRows]" = []
        self.rows = 0
        self.filled = threading.Event()
        self.closed = False


class _GroupState:
    """Per-``(kind, k)`` coalescing state: the window queue and the dispatch turn."""

    __slots__ = ("windows", "turn")

    def __init__(self) -> None:
        self.windows: "list[_Window]" = []
        self.turn = threading.Lock()


class RequestCoalescer:
    """Admit concurrent k-NN queries into shared micro-batch dispatches.

    Parameters
    ----------
    engine:
        Any engine speaking the retrieval query contract
        (:class:`~repro.database.engine.RetrievalEngine` or
        :class:`~repro.database.sharding.ShardedEngine`); it is shared by
        every server thread, which is safe because searches are read-only
        and the engines' counters are lock-protected.
    max_batch:
        Row cap of one window: a window holding this many rows is sealed
        and later arrivals open the next one.  ``1`` disables coalescing —
        every submission is its own engine call (serial per-connection
        dispatch).
    max_wait:
        Optional extra gather time (seconds).  ``0.0`` (default) is pure
        **continuous batching**: nobody ever waits on a clock — a lone
        request dispatches immediately, and batching comes from
        backpressure alone.  A positive value holds a not-yet-full window
        open that long before dispatching, trading per-request latency for
        bigger batches (useful when arrivals are sparse but the corpus
        scan is expensive).  A submitter that is *alone* in its group does
        not pay the full window: it yields for at most
        :data:`SOLO_GRACE` seconds (enough for any concurrently-arriving
        peer to register and share the dispatch) and, still alone, skips
        the rest of the gather — so a sparse stream of lone requests sees
        millisecond latency under a window configured in the hundreds of
        milliseconds, while coherent bursts keep coalescing exactly as
        before (counted as ``solo_dispatches`` in :meth:`stats`).

    How batches form: requests are grouped by ``(kind, k)`` — plain
    searches with equal ``k`` stack into one ``search_batch`` matrix,
    per-query ``(Δ, W)`` searches with equal ``k`` into one
    ``search_batch_with_parameters`` call — because only same-``k``
    requests can share a dispatch without changing anyone's result shape.
    Each group has a single **dispatch turn** (a lock): every submitter
    queues for it, and whoever holds it dispatches the oldest sealed-or-
    current window whole.  While a dispatch is running the turn is taken,
    so concurrent arrivals pile into the next window and ride one shared
    engine call — under load the window size converges to the number of
    concurrently waiting connections, with zero added latency when the
    server is idle.
    """

    #: Default gather time (seconds) a *lone* submitter still concedes
    #: before dispatching solo.  A blocked wait releases the GIL
    #: immediately, so a peer that was already on its way into ``submit_*``
    #: registers within microseconds of this wait starting — the grace only
    #: needs to cover a thread-scheduling quantum, not the arrival gap
    #: ``max_wait`` targets.  Tunable per instance via ``solo_grace``
    #: (``ServerConfig.solo_grace`` at the serving layer): many mostly-idle
    #: connections want it tiny, a few hot ones can afford more.
    SOLO_GRACE = 0.005

    def __init__(
        self,
        engine,
        *,
        max_batch: int = 64,
        max_wait: float = 0.0,
        solo_grace: "float | None" = None,
    ) -> None:
        self._engine = engine
        self._max_batch = check_dimension(max_batch, "max_batch")
        self._max_wait = float(max_wait)
        if self._max_wait < 0:
            raise ValidationError("max_wait must be non-negative")
        self._solo_grace = self.SOLO_GRACE if solo_grace is None else float(solo_grace)
        if self._solo_grace < 0:
            raise ValidationError("solo_grace must be non-negative")
        self._lock = threading.Lock()
        self._groups: "dict[tuple, _GroupState]" = {}
        # Stats (under the same lock): how much sharing actually happened.
        self._n_requests = 0
        self._n_rows = 0
        self._n_dispatches = 0
        self._n_dispatched_rows = 0
        self._largest_dispatch = 0
        self._n_solo_dispatches = 0

    @property
    def engine(self):
        """The shared engine the coalesced dispatches run on."""
        return self._engine

    @property
    def max_batch(self) -> int:
        """Row bound of one micro-batch window."""
        return self._max_batch

    @property
    def max_wait(self) -> float:
        """Time bound (seconds) of one micro-batch window."""
        return self._max_wait

    @property
    def solo_grace(self) -> float:
        """Gather time (seconds) a lone submitter concedes before going solo."""
        return self._solo_grace

    def stats(self) -> dict:
        """Coalescing counters: requests in, dispatches out, batch shapes."""
        with self._lock:
            return {
                "requests": self._n_requests,
                "rows": self._n_rows,
                "dispatches": self._n_dispatches,
                "dispatched_rows": self._n_dispatched_rows,
                "largest_dispatch": self._largest_dispatch,
                "solo_dispatches": self._n_solo_dispatches,
                "rows_per_dispatch": (
                    self._n_dispatched_rows / self._n_dispatches if self._n_dispatches else 0.0
                ),
            }

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit_search(self, query_points, k: int) -> "list[ResultSet]":
        """Coalesce a plain k-NN search; blocks until its rows are answered.

        Byte-identical to ``engine.search_batch(query_points, k)`` — the
        window only decides which *other* rows share the dispatch.
        """
        batch = QueryBatch.plain(query_points, k, dimension=self._engine.collection.dimension)
        return self._submit(batch, (batch.points,))

    def submit_search_with_parameters(
        self, query_points, k: int, deltas, weights
    ) -> "list[ResultSet]":
        """Coalesce a per-query ``(Δ, W)`` search (the feedback arm).

        Byte-identical to ``engine.search_batch_with_parameters(...)``.
        """
        batch = QueryBatch.with_parameters(
            query_points, k, deltas, weights, dimension=self._engine.collection.dimension
        )
        return self._submit(batch, (query_points, deltas, weights))

    @staticmethod
    def _is_solo(group: "_GroupState", window: "_Window", pending: _PendingRows) -> bool:
        """True while ``pending`` is the group's entire window queue."""
        return (
            len(group.windows) == 1
            and len(window.requests) == 1
            and window.requests[0] is pending
        )

    def _submit(self, batch: QueryBatch, arrays: tuple) -> "list[ResultSet]":
        """Admit one validated submission into its group's window and wait.

        A bad request is rejected by its own ``QueryBatch`` constructor
        before it can join (and poison) a shared window, and the group key —
        what rows must share to ride one dispatch — comes from the batch.
        What waits in the window are the submitter's ``arrays`` as given:
        the engine call they ride builds the batch that is executed, so
        nothing is shifted or clipped twice.
        """
        n_rows = batch.n_rows
        if n_rows == 0:
            return []
        pending = _PendingRows(arrays, n_rows)
        key = batch.group_key
        with self._lock:
            self._n_requests += 1
            self._n_rows += n_rows
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _GroupState()
            window = group.windows[-1] if group.windows else None
            if window is None or window.closed or window.rows >= self._max_batch:
                window = _Window()
                group.windows.append(window)
            window.requests.append(pending)
            window.rows += n_rows
            if window.rows >= self._max_batch:
                window.filled.set()

        # Queue for the group's dispatch turn.  Whoever holds it works the
        # window queue oldest-first until its own rows have been answered —
        # usually one dispatch, occasionally an older window first.
        with group.turn:
            while not pending.event.is_set():
                if self._max_wait > 0:
                    with self._lock:
                        current = group.windows[0]
                        alone = self._is_solo(group, current, pending)
                    if current.rows < self._max_batch:
                        if alone:
                            # Solo fast path: this submitter is alone in the
                            # group (its own rows are the whole window
                            # queue), so the gather window has nobody to
                            # gather — a sparse arrival stream would
                            # otherwise pay max_wait per lone request.  A
                            # short grace wait yields the interpreter so a
                            # peer already heading into submit_* can still
                            # register and share; still alone after it, the
                            # rest of the gather is skipped.  Anyone
                            # arriving after that still coalesces: they
                            # either join the window before it is popped
                            # below or pile into the next one.
                            current.filled.wait(
                                timeout=min(self._solo_grace, self._max_wait)
                            )
                            with self._lock:
                                alone = self._is_solo(group, current, pending)
                                if alone:
                                    self._n_solo_dispatches += 1
                        if not alone and current.rows < self._max_batch:
                            # Optional gather: hold the window open briefly
                            # so sparse arrivals can still share the dispatch
                            # (cut short the moment it fills).
                            current.filled.wait(timeout=self._max_wait)
                with self._lock:
                    window = group.windows.pop(0)
                    window.closed = True
                self._dispatch(window, batch.k)
        if pending.error is not None:
            raise pending.error
        return pending.results

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, window: _Window, k: int) -> None:
        """Run one engine call for the window and split the results back.

        The submissions' arrays are stacked column by column and enter the
        engine through its public ``search_batch`` /
        ``search_batch_with_parameters`` — the seam an instrumenting proxy
        wraps — chosen by how many arrays a submission of this group carries.
        """
        requests = window.requests
        try:
            if len(requests) == 1:
                arrays = requests[0].arrays
            else:
                arrays = [np.vstack(column) for column in zip(*(p.arrays for p in requests))]
            if len(arrays) == 1:
                results = self._engine.search_batch(arrays[0], k)
            else:
                results = self._engine.search_batch_with_parameters(arrays[0], k, *arrays[1:])
            with self._lock:
                self._n_dispatches += 1
                self._n_dispatched_rows += window.rows
                self._largest_dispatch = max(self._largest_dispatch, window.rows)
            offset = 0
            for pending in requests:
                pending.results = results[offset : offset + pending.n_rows]
                offset += pending.n_rows
                pending.event.set()
        except BaseException as error:  # noqa: BLE001 - fanned back to submitters
            for pending in requests:
                pending.error = error
                pending.event.set()


class _LoopWaiter:
    """One connection's pending feedback loop on the shared frontier."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: "FeedbackLoopResult | None" = None
        self.error: "BaseException | None" = None


class FrontierCoalescer:
    """One shared feedback frontier serving every connection's loops.

    A dedicated driver thread owns the
    :class:`~repro.feedback.scheduler.FeedbackFrontier`.  Loop requests
    submitted by server threads queue for admission; the driver admits
    whatever has gathered **between frontier rounds** (continuous batching —
    late arrivals join the live frontier via
    :meth:`~repro.feedback.scheduler.FeedbackFrontier.admit` instead of
    waiting behind it) and advances iteration *i* of every active loop as
    one batched dispatch.  Each loop's result is delivered to its waiter
    the moment that entry retires, so a three-iteration session is never
    held hostage by a ten-iteration neighbour.

    A waiter that disappears (client disconnect mid-frontier) costs
    nothing: its entry keeps advancing — per-entry work is exactly what the
    client already asked for, bounded by the engine's iteration budget —
    and the delivered result is simply never collected.

    ``max_wait`` is the optional admission window: when the frontier is
    idle, the driver naps that long after the first request arrives so
    concurrent sessions share the first-round dispatch too (``0.0``, the
    default, starts immediately — latecomers still merge into the running
    frontier at the next round boundary).  :meth:`close` drains —
    already-admitted and already-queued loops finish (bounded by
    ``max_iterations`` rounds) — then the driver exits and later
    submissions are refused.

    ``turn_limit`` is the anytime degradation knob: each driver round
    advances at most that many active loops (oldest first, in admission
    order) instead of the whole frontier, so one round's latency stays
    bounded however many sessions pile on — overload defers iterations
    instead of growing the dispatch.  Deferral never changes any loop's
    bits (frontier entries are independent); loops just retire over more
    rounds.  ``None`` (default) advances everything every round.
    """

    def __init__(
        self,
        feedback_engine: FeedbackEngine,
        *,
        max_wait: float = 0.0,
        on_retire=None,
        turn_limit: "int | None" = None,
    ) -> None:
        self._feedback = feedback_engine
        self._max_wait = float(max_wait)
        if self._max_wait < 0:
            raise ValidationError("max_wait must be non-negative")
        if turn_limit is not None:
            turn_limit = int(turn_limit)
            if turn_limit < 1:
                raise ValidationError("turn_limit must be positive (or None)")
        self._turn_limit = turn_limit
        # Optional sink called as ``on_retire(request, result, context)`` on
        # the driver thread the moment a loop retires, before its waiter is
        # released — the hook the shared served bypass trains through.  A
        # failing sink never breaks delivery.
        self._on_retire = on_retire
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: "list[tuple[LoopRequest, _LoopWaiter, object]]" = []
        self._closed = False
        # Stats (under the lock).
        self._n_loops = 0
        self._n_rounds = 0
        self._n_frontiers = 0
        self._peak_active = 0
        self._driver = threading.Thread(
            target=self._drive, name="repro-serving-frontier", daemon=True
        )
        self._driver.start()

    @property
    def feedback_engine(self) -> FeedbackEngine:
        """The feedback engine whose loops the shared frontier runs."""
        return self._feedback

    @property
    def turn_limit(self) -> "int | None":
        """Active loops advanced per driver round (``None`` = the whole frontier)."""
        return self._turn_limit

    def stats(self) -> dict:
        """Sharing counters: loops served, frontier rounds, peak frontier size."""
        with self._lock:
            return {
                "loops": self._n_loops,
                "rounds": self._n_rounds,
                "frontiers": self._n_frontiers,
                "peak_active": self._peak_active,
            }

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def run_loop(self, request: LoopRequest, context=None) -> FeedbackLoopResult:
        """Run one feedback loop on the shared frontier; blocks until done.

        Byte-identical to ``feedback_engine.run_loop(request.query_point,
        request.k, request.judge, ...)`` — the scheduler contract, with the
        frontier's composition decided by whoever else is looping right now.
        Validation errors (wrong dimensionality, negative weights) surface
        here, before the request ever reaches the driver.  ``context`` is an
        opaque value handed to the ``on_retire`` sink alongside the result
        (the server passes the connection's tenant name).
        """
        # Shared prologue of run_loop and the frontier: reject exactly the
        # inputs the sequential loop would, on the submitting thread.
        self._feedback.prepare_loop(
            request.query_point, request.k, request.initial_delta, request.initial_weights
        )
        waiter = _LoopWaiter()
        with self._lock:
            if self._closed:
                raise ValidationError("the serving frontier is closed")
            self._pending.append((request, waiter, context))
            self._n_loops += 1
            self._wake.notify_all()
        waiter.event.wait()
        if waiter.error is not None:
            raise waiter.error
        return waiter.result

    def close(self) -> None:
        """Drain in-flight and queued loops, then stop the driver (idempotent)."""
        with self._lock:
            self._closed = True
            self._wake.notify_all()
        if self._driver is not threading.current_thread():
            self._driver.join()

    def __enter__(self) -> "FrontierCoalescer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The driver
    # ------------------------------------------------------------------ #
    def _take_pending(self) -> "list[tuple[LoopRequest, _LoopWaiter, object]]":
        with self._lock:
            batch, self._pending = self._pending, []
            return batch

    def _admit(self, frontier: FeedbackFrontier, batch, waiters: dict) -> None:
        """Admit a batch into the (possibly running) frontier, or fail it."""
        if not batch:
            return
        try:
            positions = frontier.admit([request for request, _, _ in batch])
        except BaseException as error:  # noqa: BLE001 - fanned back to submitters
            for _, waiter, _ in batch:
                waiter.error = error
                waiter.event.set()
            return
        for position, entry in zip(positions, batch):
            waiters[position] = entry

    def _deliver_retired(self, frontier: FeedbackFrontier, waiters: dict) -> None:
        for position in [p for p in waiters if frontier.is_done(p)]:
            request, waiter, context = waiters.pop(position)
            waiter.result = frontier.result_at(position)
            # Collected means collectable garbage: under sustained traffic
            # the same frontier lives for as long as loops keep overlapping,
            # so retired entries must not accumulate in it.
            frontier.discard(position)
            if self._on_retire is not None:
                try:
                    # Before the event: a waiter that immediately consults
                    # the shared tree reads its own loop's training.
                    self._on_retire(request, waiter.result, context)
                except Exception:  # noqa: BLE001 - training never breaks delivery
                    pass
            waiter.event.set()

    def _drive(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if self._closed and not self._pending:
                    return
            # Admission window: the frontier is idle and the first request
            # just arrived — give its concurrent peers a beat to join the
            # shared first-round dispatch.
            if self._max_wait > 0:
                time.sleep(self._max_wait)

            frontier = FeedbackFrontier(self._feedback)
            waiters: "dict[int, _LoopWaiter]" = {}
            with self._lock:
                self._n_frontiers += 1
            try:
                self._admit(frontier, self._take_pending(), waiters)
                while waiters:
                    with self._lock:
                        self._peak_active = max(self._peak_active, frontier.active_count)
                    frontier.advance(limit=self._turn_limit)
                    with self._lock:
                        self._n_rounds += 1
                    self._deliver_retired(frontier, waiters)
                    # Continuous admission: loops that arrived during this
                    # round join the live frontier for the next one.
                    self._admit(frontier, self._take_pending(), waiters)
            except BaseException as error:  # noqa: BLE001 - engine failure mid-frontier
                for _, waiter, _ in waiters.values():
                    waiter.error = error
                    waiter.event.set()
