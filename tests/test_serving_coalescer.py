"""Edge cases of the serving layer's request coalescer (no sockets involved).

The micro-batch window is pure in-process machinery; these tests pin its
contracts directly:

* a window of one (``max_batch=1``, or simply a lone caller) degenerates to
  direct engine dispatch — same results, one engine call per submission;
* same-``k`` submissions that arrive while every dispatch slot is busy merge
  into one dispatch, mixed-``k`` submissions never do — whatever the number
  of dispatch slots;
* with more than one slot, same-``k`` windows dispatch concurrently;
* validation fails on the submitting thread, dispatch failures propagate to
  every submitter that shared the window.

Nothing here waits on a clock to make windows share: a :class:`GatedEngine`
holds every dispatch slot inside the engine while the submissions under
test arrive, so sharing comes from backpressure alone.
"""

import threading
import time

import numpy as np
import pytest

from repro.database.engine import RetrievalEngine
from repro.serving import coalescer as coalescer_module
from repro.serving.coalescer import RequestCoalescer
from repro.utils.validation import ValidationError

K = 6


@pytest.fixture()
def engine(tiny_collection) -> RetrievalEngine:
    return RetrievalEngine(tiny_collection)


@pytest.fixture()
def queries(tiny_collection) -> np.ndarray:
    rng = np.random.default_rng(4242)
    return rng.random((12, tiny_collection.dimension))


@pytest.fixture(params=[1, 2, 4], ids=lambda n: f"{n}slots")
def slots(request, monkeypatch) -> int:
    """Every coalescer the test builds gets this many dispatch slots per group."""
    monkeypatch.setattr(coalescer_module, "_dispatch_slots", lambda: request.param)
    return request.param


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def start_thread(target, errors):
    """Start ``target()`` on a thread; whatever it raises lands in ``errors``."""

    def main():
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - surfaced by the test
            errors.append(error)

    thread = threading.Thread(target=main)
    thread.start()
    return thread


def join_all(threads, errors):
    """Join every thread (bounded) and re-raise the first error any raised."""
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads), "submitter hung"
    if errors:
        raise errors[0]


class GatedEngine:
    """Holds every engine call inside the engine until ``gate`` opens.

    Each call records its row count and releases ``entered`` on the way in,
    so a test knows when a submitter holds a dispatch slot.
    """

    def __init__(self, engine) -> None:
        self.collection = engine.collection
        self.engine = engine
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.rows_per_call = []

    def _hold(self, points) -> None:
        self.rows_per_call.append(points.shape[0])
        self.entered.release()
        self.gate.wait(timeout=5)

    def search_batch(self, points, k, distance=None):
        self._hold(points)
        return self.engine.search_batch(points, k)

    def search_batch_with_parameters(self, points, k, deltas, weights):
        self._hold(points)
        return self.engine.search_batch_with_parameters(points, k, deltas, weights)


def behind_busy_slots(coalescer, gated, holders, late):
    """Run the ``late`` submitters while the ``holders`` keep every slot busy.

    Each holder is started and waited on until it sits inside the gated
    engine; then every late submitter starts, and the gate opens only once
    all of them have joined a window.
    """
    errors, threads = [], []
    for submit in holders:
        threads.append(start_thread(submit, errors))
        assert gated.entered.acquire(timeout=5)
    for submit in late:
        threads.append(start_thread(submit, errors))
    n_requests = len(holders) + len(late)
    wait_until(lambda: coalescer.stats()["requests"] == n_requests)
    gated.gate.set()
    join_all(threads, errors)


def searcher(coalescer, points, results, position):
    """A thread target that searches row ``position`` into ``results``."""

    def submit():
        (results[position],) = coalescer.submit_search(points[position : position + 1], K)

    return submit


def run_threads(n_threads, target):
    """Run ``target(thread_id)`` on N threads released together by a barrier."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def main(thread_id):
        barrier.wait()
        try:
            target(thread_id)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=main, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestRequestCoalescerWindows:
    def test_window_of_one_is_direct_dispatch(self, engine, queries):
        """max_batch=1: every submission is exactly one engine call."""
        coalescer = RequestCoalescer(engine, max_batch=1)
        reference = engine.search_batch(queries, K)
        for position, point in enumerate(queries):
            (result,) = coalescer.submit_search(point[None, :], K)
            assert result == reference[position]
        stats = coalescer.stats()
        assert stats["requests"] == queries.shape[0]
        assert stats["dispatches"] == queries.shape[0]
        assert stats["largest_dispatch"] == 1

    def test_lone_caller_degenerates_to_direct_dispatch(self, engine, queries):
        """A lone submission is one engine call, dispatched at once.

        Nobody joins its window, so it carries exactly its own rows — same
        results as calling the engine directly, one solo dispatch counted.
        """
        coalescer = RequestCoalescer(engine, max_batch=8)
        reference = engine.search_batch(queries[:1], K)
        assert coalescer.submit_search(queries[:1], K) == reference
        stats = coalescer.stats()
        assert stats["dispatches"] == 1
        assert stats["solo_dispatches"] == 1

    def test_shared_dispatches_are_not_counted_solo(self, slots, engine, queries):
        """Each slot holder dispatches alone; the window behind them is shared."""
        n_late = 4
        gated = GatedEngine(engine)
        coalescer = RequestCoalescer(gated, max_batch=64)
        results = {}
        behind_busy_slots(
            coalescer,
            gated,
            [searcher(coalescer, queries, results, position) for position in range(slots)],
            [
                searcher(coalescer, queries, results, position)
                for position in range(slots, slots + n_late)
            ],
        )
        stats = coalescer.stats()
        assert stats["dispatches"] == slots + 1
        assert stats["solo_dispatches"] == slots
        assert stats["dispatched_rows"] == slots + n_late

    def test_concurrent_same_k_submissions_share_one_dispatch(self, slots, engine, queries):
        """N same-k submissions behind busy slots ride one engine call.

        ``max_batch`` is exactly N, so the window is full with the last
        arrival and nothing spills into another one.
        """
        n_late = 4
        gated = GatedEngine(engine)
        coalescer = RequestCoalescer(gated, max_batch=n_late)
        positions = range(slots + n_late)
        results = {}
        behind_busy_slots(
            coalescer,
            gated,
            [searcher(coalescer, queries, results, position) for position in positions[:slots]],
            [searcher(coalescer, queries, results, position) for position in positions[slots:]],
        )
        reference = engine.search_batch(queries[: slots + n_late], K)
        assert [results[position] for position in positions] == reference
        assert gated.rows_per_call == [1] * slots + [n_late]
        assert coalescer.stats()["largest_dispatch"] == n_late

    @pytest.mark.usefixtures("slots")
    def test_mixed_k_submissions_never_share(self, engine, queries):
        """Different k means different result shapes: separate dispatches."""
        coalescer = RequestCoalescer(engine, max_batch=8)
        ks = [3, 5, 3, 5]
        results = [None] * len(ks)

        def submit(thread_id):
            (results[thread_id],) = coalescer.submit_search(
                queries[thread_id][None, :], ks[thread_id]
            )

        run_threads(len(ks), submit)
        for position, k in enumerate(ks):
            assert results[position] == engine.search(queries[position], k)
        # At least one dispatch per k group, and no cross-k merging: the
        # largest dispatch can never exceed the largest same-k cohort.
        stats = coalescer.stats()
        assert stats["dispatches"] >= 2
        assert stats["largest_dispatch"] <= 2

    def test_parameterised_submissions_coalesce(self, slots, engine, queries):
        """(Δ, W) searches group by k and stack into one parameterised call."""
        n_late = 3
        n_rows = slots + n_late
        dimension = queries.shape[1]
        rng = np.random.default_rng(7)
        deltas = rng.normal(scale=0.01, size=(n_rows, dimension))
        weights = rng.random((n_rows, dimension)) + 0.1
        reference = engine.search_batch_with_parameters(queries[:n_rows], K, deltas, weights)
        gated = GatedEngine(engine)
        coalescer = RequestCoalescer(gated, max_batch=n_late)
        results = {}

        def submitter(position):
            def submit():
                (results[position],) = coalescer.submit_search_with_parameters(
                    queries[position : position + 1],
                    K,
                    deltas[position : position + 1],
                    weights[position : position + 1],
                )

            return submit

        behind_busy_slots(
            coalescer,
            gated,
            [submitter(position) for position in range(slots)],
            [submitter(position) for position in range(slots, n_rows)],
        )
        assert [results[position] for position in range(n_rows)] == reference
        assert gated.rows_per_call == [1] * slots + [n_late]

    def test_multi_row_submissions_stay_contiguous(self, engine, queries):
        """A batched submission's rows come back in its own order."""
        coalescer = RequestCoalescer(engine, max_batch=64)
        reference = engine.search_batch(queries, K)
        assert coalescer.submit_search(queries, K) == reference
        assert coalescer.submit_search(np.zeros((0, queries.shape[1])), K) == []

    def test_validation_fails_on_the_submitting_thread(self, engine):
        coalescer = RequestCoalescer(engine, max_batch=4)
        with pytest.raises(ValidationError):
            coalescer.submit_search(np.zeros((2, 3)), K)  # wrong dimension
        with pytest.raises(ValidationError):
            coalescer.submit_search(np.zeros((2, engine.collection.dimension)), 0)
        assert coalescer.stats()["dispatches"] == 0

    def test_dispatch_failure_propagates_to_every_submitter(self, slots, tiny_collection, queries):
        class ExplodingEngine:
            collection = tiny_collection

            def search_batch(self, points, k, distance=None):
                raise RuntimeError("engine down")

        n_late = 3
        gated = GatedEngine(ExplodingEngine())
        coalescer = RequestCoalescer(gated, max_batch=n_late)
        failures = []

        def submitter(position):
            def submit():
                try:
                    coalescer.submit_search(queries[position : position + 1], K)
                except RuntimeError as error:
                    failures.append(str(error))

            return submit

        behind_busy_slots(
            coalescer,
            gated,
            [submitter(position) for position in range(slots)],
            [submitter(position) for position in range(slots, slots + n_late)],
        )
        # The late submitters shared one failed dispatch; all of them see it.
        assert gated.rows_per_call == [1] * slots + [n_late]
        assert failures == ["engine down"] * (slots + n_late)


class MeetingEngine:
    """Answers ``search_batch`` only once two calls are inside it at once."""

    def __init__(self, engine) -> None:
        self.collection = engine.collection
        self.engine = engine
        self.barrier = threading.Barrier(2, timeout=5)

    def search_batch(self, points, k, distance=None):
        self.barrier.wait()
        return self.engine.search_batch(points, k)


class TestDispatchSlots:
    """One dispatch slot per CPU: same-``k`` windows run side by side."""

    def test_there_is_at_least_one_slot(self):
        assert coalescer_module._dispatch_slots() >= 1

    def test_two_slots_dispatch_same_k_windows_concurrently(self, engine, queries, monkeypatch):
        """The second submission reaches the engine while the first is inside it."""
        monkeypatch.setattr(coalescer_module, "_dispatch_slots", lambda: 2)
        meeting = MeetingEngine(engine)
        coalescer = RequestCoalescer(meeting, max_batch=64)
        results, errors = {}, []

        def submit(position):
            return lambda: results.__setitem__(
                position, coalescer.submit_search(queries[position : position + 1], K)
            )

        first = start_thread(submit(0), errors)
        wait_until(lambda: meeting.barrier.n_waiting == 1)
        second = start_thread(submit(1), errors)
        join_all([first, second], errors)
        assert results[0] + results[1] == engine.search_batch(queries[:2], K)
        assert coalescer.stats()["dispatches"] == 2

    def test_a_holder_whose_window_was_taken_frees_its_slot(self, engine, queries, monkeypatch):
        """The holder that lost its window to a peer steps aside.

        Two gated holders keep both slots busy while A and B join one
        window.  Once the gate opens, A and B take the freed slots: one of
        them dispatches the shared window and the other finds it taken.
        That one must release its slot at once — C's full window can only
        meet A/B's dispatch at the barrier through it.
        """
        monkeypatch.setattr(coalescer_module, "_dispatch_slots", lambda: 2)
        gate = threading.Event()
        entered = threading.Semaphore(0)
        barrier = threading.Barrier(2, timeout=5)
        calls = []

        class HeldThenMeetingEngine:
            collection = engine.collection

            def search_batch(self, points, k, distance=None):
                calls.append(points.shape[0])
                if len(calls) <= 2:
                    entered.release()
                    gate.wait(timeout=5)
                else:
                    barrier.wait()
                return engine.search_batch(points, k)

        coalescer = RequestCoalescer(HeldThenMeetingEngine(), max_batch=2)
        results, errors = {}, []

        def submit(start, stop):
            return lambda: results.__setitem__(
                start, coalescer.submit_search(queries[start:stop], K)
            )

        threads = []
        for start in (4, 5):
            threads.append(start_thread(submit(start, start + 1), errors))
            assert entered.acquire(timeout=5)
        threads += [start_thread(submit(0, 1), errors), start_thread(submit(1, 2), errors)]
        wait_until(lambda: coalescer.stats()["requests"] == 4)
        gate.set()
        wait_until(lambda: barrier.n_waiting == 1)
        threads.append(start_thread(submit(2, 4), errors))
        join_all(threads, errors)
        assert results[0] + results[1] + results[2] == engine.search_batch(queries[:4], K)
        assert calls == [1, 1, 2, 2]

    def test_arrivals_beyond_the_slots_share_the_next_window(self, slots, engine, queries):
        """Every slot busy: later submitters pile into one window and one call."""
        gated = GatedEngine(engine)
        coalescer = RequestCoalescer(gated, max_batch=64)
        n_late = 3
        results = {}
        behind_busy_slots(
            coalescer,
            gated,
            [searcher(coalescer, queries, results, position) for position in range(slots)],
            [
                searcher(coalescer, queries, results, position)
                for position in range(slots, slots + n_late)
            ],
        )
        reference = engine.search_batch(queries[: slots + n_late], K)
        assert [results[position] for position in range(slots + n_late)] == reference
        assert gated.rows_per_call == [1] * slots + [n_late]
        stats = coalescer.stats()
        assert stats["dispatches"] == slots + 1
        assert stats["largest_dispatch"] == n_late

