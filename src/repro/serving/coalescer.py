"""Request coalescing: concurrent callers share batched engine dispatches.

The batched machinery of the lower layers (``search_batch``,
``search_batch_with_parameters``) only pays off when someone actually
*builds* batches — a network server that forwards each connection's query
as its own engine call degrades straight back to the per-query loop the
batch pipeline was built to replace.  :class:`RequestCoalescer` closes that
gap with a shared **micro-batch window** for k-NN queries: concurrent
submissions are admitted into one open window per ``(kind, k)`` group and
the window dispatches as a single ``search_batch`` /
``search_batch_with_parameters`` engine call.  Batching emerges from
*backpressure* (while every dispatch slot of the group is busy, arrivals
gather into the next window — continuous batching, no deliberate delay),
with ``max_batch`` capping a window.  The rounds of concurrent feedback
sessions ride these windows too.

**Coalescing never changes results.**  ``search_batch(Q, k)`` is
byte-identical to ``[search(q, k) for q in Q]`` (the batch contract, tier-1
enforced), so which other rows share a dispatch is unobservable to any
single caller.  The serving equivalence suite
(``tests/test_serving_equivalence.py``) enforces it.
"""

from __future__ import annotations

import os
import threading
from queue import SimpleQueue

import numpy as np

from repro.database.query import QueryBatch, ResultSet
from repro.utils.validation import check_dimension

__all__ = ["RequestCoalescer"]


def _dispatch_slots() -> int:
    """Engine calls one group may run at once: one per CPU this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


class _PendingRows:
    """One submitter's rows inside a window, and its completion signal.

    ``arrays`` are the matrix arguments of the engine call the rows will
    ride: ``(points,)`` or ``(points, deltas, weights)``.  ``event`` exists
    only while the submitter waits on another holder's dispatch; it and the
    answer are set under the coalescer lock.
    """

    __slots__ = ("arrays", "n_rows", "event", "results", "error")

    def __init__(self, arrays: tuple, n_rows: int) -> None:
        self.arrays = arrays
        self.n_rows = n_rows
        self.event: "threading.Event | None" = None
        self.results: "list[ResultSet] | None" = None
        self.error: "BaseException | None" = None


class _Window:
    """One micro-batch in the making: the submissions of a ``(kind, k)`` group.

    ``closed`` is set once a slot holder has taken it for dispatch.
    """

    __slots__ = ("requests", "rows", "closed")

    def __init__(self) -> None:
        self.requests: "list[_PendingRows]" = []
        self.rows = 0
        self.closed = False


class _GroupState:
    """Per-``(kind, k)`` coalescing state: the window queue and one token per free dispatch slot."""

    __slots__ = ("windows", "slots")

    def __init__(self, n_slots: int) -> None:
        self.windows: "list[_Window]" = []
        self.slots: SimpleQueue = SimpleQueue()
        for _ in range(n_slots):
            self.slots.put(None)


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
        every submission is its own engine call (per-connection dispatch,
        up to one call per core at once).

    How batches form: requests are grouped by ``(kind, k)`` — plain
    searches with equal ``k`` stack into one ``search_batch`` matrix,
    per-query ``(Δ, W)`` searches with equal ``k`` into one
    ``search_batch_with_parameters`` call — because only same-``k``
    requests can share a dispatch without changing anyone's result shape.
    Each group has one **dispatch slot per CPU** the process may run on
    (read once per coalescer from the affinity mask): every submitter
    queues for a slot, and a holder dispatches the oldest window whole —
    or, if another holder already took its own window, releases the slot
    and waits for that dispatch.  Up to that many windows of one group run
    at once, so independent connections' scans use every core; while all
    slots are busy, concurrent arrivals pile into the next window and ride
    one shared engine call — under load the window size converges to the
    number of connections waiting beyond the slots, with zero added
    latency when the server is idle.  One CPU means one slot: every
    dispatch of a group runs alone.
    """

    def __init__(self, engine, *, max_batch: int = 64) -> None:
        self._engine = engine
        self._max_batch = check_dimension(max_batch, "max_batch")
        self._n_slots = _dispatch_slots()
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
                group = self._groups[key] = _GroupState(self._n_slots)
            window = group.windows[-1] if group.windows else None
            if window is None or window.closed or window.rows >= self._max_batch:
                window = _Window()
                group.windows.append(window)
            window.requests.append(pending)
            window.rows += n_rows

        # Queue for one of the group's dispatch slots.  A holder works the
        # window queue oldest-first until its own window has been taken —
        # usually by itself in one dispatch, occasionally after an older
        # window.  If another holder took it, that holder answers these
        # rows: the slot is released and, unless the answer is already in,
        # the wait is on an event of its own.
        group.slots.get()
        try:
            while True:
                with self._lock:
                    if window.closed:
                        if pending.results is None and pending.error is None:
                            pending.event = threading.Event()
                        break
                    current = group.windows.pop(0)
                    current.closed = True
                self._dispatch(current, batch.k)
        finally:
            group.slots.put(None)
        if pending.event is not None:
            pending.event.wait()
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
        error = results = None
        try:
            if len(requests) == 1:
                arrays = requests[0].arrays
            else:
                arrays = [np.vstack(column) for column in zip(*(p.arrays for p in requests))]
            if len(arrays) == 1:
                results = self._engine.search_batch(arrays[0], k)
            else:
                results = self._engine.search_batch_with_parameters(arrays[0], k, *arrays[1:])
        except BaseException as caught:  # noqa: BLE001 - fanned back to submitters
            error = caught
        with self._lock:
            if error is None:
                self._n_dispatches += 1
                self._n_solo_dispatches += len(requests) == 1
                self._n_dispatched_rows += window.rows
                self._largest_dispatch = max(self._largest_dispatch, window.rows)
            offset = 0
            for pending in requests:
                if error is None:
                    pending.results = results[offset : offset + pending.n_rows]
                    offset += pending.n_rows
                pending.error = error
                if pending.event is not None:
                    pending.event.set()
