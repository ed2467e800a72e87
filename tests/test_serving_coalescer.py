"""Edge cases of the serving layer's coalescers (no sockets involved).

The micro-batch window and the shared frontier are pure in-process
machinery; these tests pin their contracts directly:

* a window of one (``max_batch=1``, or simply a lone caller) degenerates to
  direct engine dispatch — same results, one engine call per submission;
* concurrent same-``k`` submissions merge into one dispatch, mixed-``k``
  submissions never do — whatever the number of dispatch slots;
* with more than one slot, same-``k`` windows dispatch concurrently, and
  arrivals while every slot is busy still share the next window;
* validation fails on the submitting thread, dispatch failures propagate to
  every submitter that shared the window;
* :meth:`~repro.feedback.scheduler.FeedbackFrontier.admit` composes with a
  running frontier (external admission), byte-identical per query to the
  sequential loop;
* the :class:`~repro.serving.coalescer.FrontierCoalescer` serves concurrent
  loops from one shared frontier and drains on close.
"""

import threading
import time

import numpy as np
import pytest

from repro.database.engine import RetrievalEngine
from repro.evaluation.simulated_user import SimulatedUser
from repro.feedback.engine import FeedbackEngine
from repro.feedback.scheduler import FeedbackFrontier, LoopRequest
from repro.serving import coalescer as coalescer_module
from repro.serving.coalescer import FrontierCoalescer, RequestCoalescer
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
        """A lone submission is one engine call, gather wait or not.

        With ``max_wait`` set the lone caller holds the window open at most
        that long (nobody joins), then dispatches exactly its own rows —
        same results as calling the engine directly, one dispatch counted.
        """
        coalescer = RequestCoalescer(engine, max_batch=8, max_wait=0.01)
        reference = engine.search_batch(queries[:1], K)
        assert coalescer.submit_search(queries[:1], K) == reference
        assert coalescer.stats()["dispatches"] == 1

    def test_lone_caller_skips_the_gather_wait(self, engine, queries):
        """A solo submitter dispatches immediately, not after ``max_wait``.

        With a gather window far longer than the query itself, the solo
        fast path is the difference between microsecond and multi-second
        latency — the elapsed bound here is generous but still an order of
        magnitude below the configured window.
        """
        import time

        max_wait = 2.0
        coalescer = RequestCoalescer(engine, max_batch=8, max_wait=max_wait)
        reference = engine.search_batch(queries[:1], K)
        start = time.perf_counter()
        result = coalescer.submit_search(queries[:1], K)
        elapsed = time.perf_counter() - start
        assert result == reference
        assert elapsed < max_wait / 10
        stats = coalescer.stats()
        assert stats["dispatches"] == 1
        assert stats["solo_dispatches"] == 1

    @pytest.mark.usefixtures("slots")
    def test_shared_dispatches_are_not_counted_solo(self, engine, queries):
        n_threads = 4
        coalescer = RequestCoalescer(engine, max_batch=n_threads, max_wait=5.0)

        def submit(thread_id):
            coalescer.submit_search(queries[thread_id][None, :], K)

        run_threads(n_threads, submit)
        stats = coalescer.stats()
        # However the arrivals interleaved, solo and shared dispatches
        # partition the total — and a full window is never solo.
        assert stats["solo_dispatches"] < stats["dispatches"]
        assert stats["dispatched_rows"] == n_threads

    @pytest.mark.usefixtures("slots")
    def test_concurrent_same_k_submissions_share_one_dispatch(self, engine, queries):
        """N same-k submissions released together ride one engine call."""
        n_threads = 4
        # The window seals exactly when all four rows have joined, so the
        # generous gather wait is cut short and the test stays fast.
        coalescer = RequestCoalescer(engine, max_batch=n_threads, max_wait=5.0)
        reference = engine.search_batch(queries[:n_threads], K)
        results = [None] * n_threads

        def submit(thread_id):
            (results[thread_id],) = coalescer.submit_search(
                queries[thread_id][None, :], K
            )

        run_threads(n_threads, submit)
        assert results == reference
        stats = coalescer.stats()
        assert stats["dispatches"] == 1
        assert stats["largest_dispatch"] == n_threads

    @pytest.mark.usefixtures("slots")
    def test_mixed_k_submissions_never_share(self, engine, queries):
        """Different k means different result shapes: separate dispatches."""
        coalescer = RequestCoalescer(engine, max_batch=8, max_wait=0.05)
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

    @pytest.mark.usefixtures("slots")
    def test_parameterised_submissions_coalesce(self, engine, queries):
        """(Δ, W) searches group by k and stack into one parameterised call."""
        n_threads = 3
        dimension = queries.shape[1]
        rng = np.random.default_rng(7)
        deltas = rng.normal(scale=0.01, size=(n_threads, dimension))
        weights = rng.random((n_threads, dimension)) + 0.1
        reference = engine.search_batch_with_parameters(
            queries[:n_threads], K, deltas, weights
        )
        coalescer = RequestCoalescer(engine, max_batch=n_threads, max_wait=5.0)
        results = [None] * n_threads

        def submit(thread_id):
            (results[thread_id],) = coalescer.submit_search_with_parameters(
                queries[thread_id][None, :],
                K,
                deltas[thread_id][None, :],
                weights[thread_id][None, :],
            )

        run_threads(n_threads, submit)
        assert results == reference
        assert coalescer.stats()["dispatches"] == 1

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

    @pytest.mark.usefixtures("slots")
    def test_dispatch_failure_propagates_to_every_submitter(self, tiny_collection, queries):
        class ExplodingEngine:
            collection = tiny_collection

            def search_batch(self, points, k, distance=None):
                raise RuntimeError("engine down")

        n_threads = 3
        coalescer = RequestCoalescer(ExplodingEngine(), max_batch=n_threads, max_wait=5.0)
        failures = []

        def submit(thread_id):
            try:
                coalescer.submit_search(queries[thread_id][None, :], K)
            except RuntimeError as error:
                failures.append(str(error))

        run_threads(n_threads, submit)
        assert failures == ["engine down"] * n_threads


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
        """``max_wait > 0``: the holder that lost its window to a peer steps aside.

        A and B share the first window, so one of them dispatches it and the
        other finds it taken.  That one must release its slot at once — C's
        full window can only meet A/B's dispatch at the barrier through it.
        """
        monkeypatch.setattr(coalescer_module, "_dispatch_slots", lambda: 2)
        meeting = MeetingEngine(engine)
        coalescer = RequestCoalescer(meeting, max_batch=2, max_wait=5.0, solo_grace=5.0)
        results, errors = {}, []

        def submit(start, stop):
            return lambda: results.__setitem__(
                start, coalescer.submit_search(queries[start:stop], K)
            )

        sharing = [start_thread(submit(0, 1), errors), start_thread(submit(1, 2), errors)]
        wait_until(lambda: meeting.barrier.n_waiting == 1)
        full = start_thread(submit(2, 4), errors)
        join_all(sharing + [full], errors)
        assert results[0] + results[1] + results[2] == engine.search_batch(queries[:4], K)
        stats = coalescer.stats()
        assert stats["dispatches"] == 2
        assert stats["largest_dispatch"] == 2

    def test_arrivals_beyond_the_slots_share_the_next_window(self, slots, engine, queries):
        """Every slot busy: later submitters pile into one window and one call."""
        gate = threading.Event()
        entered = threading.Semaphore(0)
        rows_per_call = []

        class GatedEngine:
            collection = engine.collection

            def search_batch(self, points, k, distance=None):
                rows_per_call.append(points.shape[0])
                entered.release()
                gate.wait(timeout=5)
                return engine.search_batch(points, k)

        coalescer = RequestCoalescer(GatedEngine(), max_batch=64)
        results, errors, threads = {}, [], []

        def submit(position):
            return lambda: results.__setitem__(
                position, coalescer.submit_search(queries[position : position + 1], K)
            )

        for position in range(slots):
            threads.append(start_thread(submit(position), errors))
            assert entered.acquire(timeout=5)
        n_late = 3
        for position in range(slots, slots + n_late):
            threads.append(start_thread(submit(position), errors))
        wait_until(lambda: coalescer.stats()["requests"] == slots + n_late)
        gate.set()
        join_all(threads, errors)
        reference = engine.search_batch(queries[: slots + n_late], K)
        assert [results[position][0] for position in range(slots + n_late)] == reference
        assert rows_per_call == [1] * slots + [n_late]
        stats = coalescer.stats()
        assert stats["dispatches"] == slots + 1
        assert stats["largest_dispatch"] == n_late


class TestSoloGrace:
    """The tunable solo-grace window (``ServerConfig.solo_grace``)."""

    def test_default_and_override(self, engine):
        assert RequestCoalescer(engine).solo_grace == RequestCoalescer.SOLO_GRACE
        assert RequestCoalescer(engine, solo_grace=0.5).solo_grace == 0.5
        assert RequestCoalescer(engine, solo_grace=0).solo_grace == 0.0

    def test_negative_grace_is_rejected(self, engine):
        with pytest.raises(ValidationError):
            RequestCoalescer(engine, solo_grace=-0.001)

    def test_zero_grace_keeps_the_lone_caller_exact_and_fast(self, engine, queries):
        """solo_grace=0: a lone submitter never yields to the clock at all."""
        import time

        coalescer = RequestCoalescer(engine, max_batch=8, max_wait=2.0, solo_grace=0.0)
        reference = engine.search_batch(queries[:1], K)
        start = time.perf_counter()
        result = coalescer.submit_search(queries[:1], K)
        elapsed = time.perf_counter() - start
        assert result == reference
        assert elapsed < 0.2  # nowhere near the 2 s window
        assert coalescer.stats()["solo_dispatches"] == 1

    def test_grace_is_bounded_by_the_window(self, engine, queries):
        """A grace far above ``max_wait`` still dispatches within the window."""
        import time

        coalescer = RequestCoalescer(engine, max_batch=8, max_wait=0.01, solo_grace=30.0)
        reference = engine.search_batch(queries[:1], K)
        start = time.perf_counter()
        result = coalescer.submit_search(queries[:1], K)
        elapsed = time.perf_counter() - start
        assert result == reference
        assert elapsed < 1.0

    @pytest.mark.usefixtures("slots")
    def test_grace_still_coalesces_concurrent_arrivals(self, engine, queries):
        """A generous grace lets near-simultaneous submitters share dispatches."""
        n_threads = 4
        coalescer = RequestCoalescer(
            engine, max_batch=n_threads, max_wait=5.0, solo_grace=0.05
        )
        reference = engine.search_batch(queries[:n_threads], K)
        results: dict = {}

        def submit(thread_id):
            (results[thread_id],) = coalescer.submit_search(
                queries[thread_id][None, :], K
            )

        run_threads(n_threads, submit)
        for thread_id in range(n_threads):
            assert results[thread_id] == reference[thread_id]
        assert coalescer.stats()["dispatches"] < n_threads

    @pytest.mark.serving
    def test_server_config_plumbs_the_grace_through(self, engine):
        from repro.serving import RetrievalServer, ServerConfig

        server = RetrievalServer(engine, ServerConfig(solo_grace=0.25))
        try:
            assert server._core.coalescer.solo_grace == 0.25
        finally:
            server.close()
        with pytest.raises(ValidationError):
            ServerConfig(solo_grace=-1.0)


class TestFrontierExternalAdmission:
    def test_admit_into_running_frontier_matches_sequential_loops(self, tiny_collection):
        """Entries admitted mid-flight reproduce run_loop bit for bit."""
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        reference_feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        indices = [0, 7, 13, 21]
        requests = [
            LoopRequest(
                query_point=tiny_collection.vectors[index],
                k=K,
                judge=user.judge_for_query(index),
            )
            for index in indices
        ]
        reference = [
            reference_feedback.run_loop(request.query_point, request.k, request.judge)
            for request in requests
        ]

        frontier = FeedbackFrontier(feedback, requests[:2])
        assert len(frontier) == 2
        frontier.advance()  # the frontier is now mid-flight
        positions = frontier.admit(requests[2:])
        assert positions == [2, 3]
        assert len(frontier) == 4
        frontier.run_to_completion()
        results = frontier.results()
        for result, expected in zip(results, reference):
            assert result.identical_to(expected)

    def test_empty_frontier_and_empty_admission(self, tiny_collection):
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection))
        frontier = FeedbackFrontier(feedback)
        assert len(frontier) == 0
        assert frontier.advance() == 0
        assert frontier.admit([]) == []
        assert frontier.results() == []

    def test_failed_admission_leaves_the_frontier_untouched(self, tiny_collection):
        """Admission is atomic: a bad batch never poisons running loops."""
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        reference = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=6
        ).run_loop(tiny_collection.vectors[2], K, user.judge_for_query(2))
        frontier = FeedbackFrontier(
            feedback,
            [
                LoopRequest(
                    query_point=tiny_collection.vectors[2],
                    k=K,
                    judge=user.judge_for_query(2),
                )
            ],
        )
        frontier.advance()  # mid-flight
        with pytest.raises(ValidationError):
            frontier.admit(
                [
                    LoopRequest(  # valid...
                        query_point=tiny_collection.vectors[5],
                        k=K,
                        judge=user.judge_for_query(5),
                    ),
                    LoopRequest(  # ...but this one is not: wrong dimension
                        query_point=np.zeros(3),
                        k=K,
                        judge=user.judge_for_query(5),
                    ),
                ]
            )
        assert len(frontier) == 1  # neither staged entry joined
        frontier.run_to_completion()
        assert frontier.results()[0].identical_to(reference)

    def test_discard_releases_retired_entries(self, tiny_collection):
        """Collected loops can be pruned; live ones cannot."""
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        frontier = FeedbackFrontier(
            feedback,
            [
                LoopRequest(
                    query_point=tiny_collection.vectors[index],
                    k=K,
                    judge=user.judge_for_query(index),
                )
                for index in (1, 6)
            ],
        )
        with pytest.raises(ValidationError):
            frontier.discard(0)  # still active
        frontier.run_to_completion()
        first = frontier.result_at(0)
        frontier.discard(0)
        assert len(frontier) == 1
        with pytest.raises(ValidationError):
            frontier.result_at(0)  # discarded positions are gone
        # Later admissions never reuse a discarded position.
        (position,) = frontier.admit(
            [
                LoopRequest(
                    query_point=tiny_collection.vectors[1],
                    k=K,
                    judge=user.judge_for_query(1),
                )
            ]
        )
        assert position == 2
        frontier.run_to_completion()
        assert frontier.result_at(2).identical_to(first)

    def test_result_at_guards_active_entries(self, tiny_collection):
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        frontier = FeedbackFrontier(
            feedback,
            [
                LoopRequest(
                    query_point=tiny_collection.vectors[3],
                    k=K,
                    judge=user.judge_for_query(3),
                )
            ],
        )
        assert not frontier.is_done(0)
        with pytest.raises(ValidationError):
            frontier.result_at(0)
        frontier.run_to_completion()
        assert frontier.is_done(0)
        assert frontier.result_at(0).identical_to(frontier.results()[0])


class TestFrontierCoalescer:
    def test_single_loop_matches_run_loop(self, tiny_collection):
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        reference = FeedbackEngine(
            RetrievalEngine(tiny_collection), max_iterations=6
        ).run_loop(tiny_collection.vectors[5], K, user.judge_for_query(5))
        with FrontierCoalescer(feedback) as coalescer:
            served = coalescer.run_loop(
                LoopRequest(
                    query_point=tiny_collection.vectors[5],
                    k=K,
                    judge=user.judge_for_query(5),
                )
            )
        assert served.identical_to(reference)

    def test_concurrent_loops_share_one_frontier(self, tiny_collection):
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        reference_feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        indices = [2, 9, 17, 25, 31]
        reference = [
            reference_feedback.run_loop(
                tiny_collection.vectors[index], K, user.judge_for_query(index)
            )
            for index in indices
        ]
        results = [None] * len(indices)
        # A generous admission window: all five barrier-released loops land
        # before the driver opens the shared frontier.
        with FrontierCoalescer(feedback, max_wait=0.25) as coalescer:

            def submit(thread_id):
                results[thread_id] = coalescer.run_loop(
                    LoopRequest(
                        query_point=tiny_collection.vectors[indices[thread_id]],
                        k=K,
                        judge=user.judge_for_query(indices[thread_id]),
                    )
                )

            run_threads(len(indices), submit)
            stats = coalescer.stats()
        for result, expected in zip(results, reference):
            assert result.identical_to(expected)
        assert stats["loops"] == len(indices)
        assert stats["frontiers"] == 1
        assert stats["peak_active"] == len(indices)

    def test_mixed_k_loops_coexist_on_the_frontier(self, tiny_collection):
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        reference_feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        plan = [(4, 5), (11, 9), (19, 5), (27, 9)]  # (query index, k)
        reference = [
            reference_feedback.run_loop(
                tiny_collection.vectors[index], k, user.judge_for_query(index)
            )
            for index, k in plan
        ]
        results = [None] * len(plan)
        with FrontierCoalescer(feedback, max_wait=0.25) as coalescer:

            def submit(thread_id):
                index, k = plan[thread_id]
                results[thread_id] = coalescer.run_loop(
                    LoopRequest(
                        query_point=tiny_collection.vectors[index],
                        k=k,
                        judge=user.judge_for_query(index),
                    )
                )

            run_threads(len(plan), submit)
        for result, expected in zip(results, reference):
            assert result.identical_to(expected)

    def test_validation_error_surfaces_to_the_submitter(self, tiny_collection):
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection))
        with FrontierCoalescer(feedback) as coalescer:
            with pytest.raises(ValidationError):
                coalescer.run_loop(
                    LoopRequest(
                        query_point=np.zeros(3),  # wrong dimensionality
                        k=K,
                        judge=user.judge_for_query(0),
                    )
                )

    def test_close_drains_then_refuses(self, tiny_collection):
        user = SimulatedUser(tiny_collection)
        feedback = FeedbackEngine(RetrievalEngine(tiny_collection), max_iterations=6)
        coalescer = FrontierCoalescer(feedback)
        served = coalescer.run_loop(
            LoopRequest(
                query_point=tiny_collection.vectors[8],
                k=K,
                judge=user.judge_for_query(8),
            )
        )
        assert served is not None
        coalescer.close()
        coalescer.close()  # idempotent
        with pytest.raises(ValidationError):
            coalescer.run_loop(
                LoopRequest(
                    query_point=tiny_collection.vectors[8],
                    k=K,
                    judge=user.judge_for_query(8),
                )
            )
