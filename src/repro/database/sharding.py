"""Sharded multi-worker query serving: partition, fan out, merge exactly.

The batched pipeline (PR 1) and the frontier scheduler (PR 2) squeezed the
per-call cost of a multi-user workload down to a handful of matrix
operations, but everything still ran on one thread over one monolithic
:class:`~repro.database.collection.FeatureCollection`.  This module adds the
concurrency layer the ROADMAP asked for:

* :class:`ShardedCollection` — deterministic index-range partitioning of a
  collection into contiguous shards, with a stable mapping between per-shard
  (local) indices and collection (global) indices.  Contiguous ranges keep
  the mapping a single offset addition, so merged results carry exactly the
  indices the unsharded engine would report.
* :class:`WorkerPool` — a small ordered-``map`` executor over worker
  threads (shard searches are NumPy-dominated and release the GIL).
* :class:`SharedCorpus` — a collection's matrix hosted in
  :mod:`multiprocessing.shared_memory`, attached zero-copy by worker
  processes through a small picklable :class:`SharedCorpusHandle`.
* :class:`ShardedEngine` — the query surface of
  :class:`~repro.database.engine.QueryEngine` (the ``search*`` wrappers
  and the counters are inherited, not re-implemented) with one
  thing of its own: how a validated
  :class:`~repro.database.query.QueryBatch` is answered — fanned out
  unchanged to one :class:`~repro.database.engine.RetrievalEngine` per shard
  (each with its own linear scan and, optionally, its own metric index)
  through :func:`~repro.database.budget.fan_out`, the per-shard top-k lists
  merged by :func:`~repro.database.index.merge_topk`.  With
  ``backend="process"`` the per-shard engines live in long-lived worker
  processes that attach the corpus from shared memory once; only the batch
  and the per-shard top-k lists cross the process boundary, as small
  pickles (one ``("call", "_run", (batch, None, batches))`` message per
  dispatch).

This fan-out is the library's one place where work is spread over
workers: the feedback scheduler, the evaluation session and the serving
layer get parallelism only by running on a :class:`ShardedEngine`.

**Exactness is the contract.**  Per-object distances are computed by
element-wise / row-wise expressions whose bits do not depend on which other
objects share the shard — or on which *process* evaluates them (the shared
segment holds the very same float64 bits) — and the merge re-selects the
global top-k with the same (distance, ascending global index) order every
engine uses.  So ``ShardedEngine.search_batch(Q, k)`` is byte-identical to
the unsharded ``RetrievalEngine.search_batch(Q, k)`` for every shard count,
worker count **and backend** (tier-1, ``tests/test_sharded_equivalence.py``
and ``tests/test_process_backend.py``).  The engine also carries the
feedback-accounting surface (``record_feedback_iterations`` /
``record_frontier_batch``), so a
:class:`~repro.feedback.scheduler.FeedbackFrontier` can run on top of a
sharded engine unchanged, and :meth:`ShardedEngine.stats` aggregates the
per-shard dispatch counters (``shard_count``, per-shard ``index_hits`` /
``scan_fallbacks``) next to the top-level volume counters — fetched from the
worker processes when the backend is ``"process"``.
"""

from __future__ import annotations

import pickle
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Callable, Sequence

import numpy as np

from repro.database.budget import Budget, effective_budget, fan_out
from repro.database.collection import FeatureCollection
from repro.database.engine import QueryEngine, RetrievalEngine
from repro.database.index import KNNIndex, merge_topk
from repro.database.query import QueryBatch, ResultSet
from repro.database.segments import LiveCollection
from repro.distances.base import DistanceFunction
from repro.utils.validation import ValidationError, check_dimension

__all__ = [
    "ShardedCollection",
    "WorkerPool",
    "ShardedEngine",
    "SharedCorpus",
    "SharedCorpusHandle",
]

#: Builds the optional per-shard metric index: receives the shard's
#: collection and the engine's default distance, returns a
#: :class:`~repro.database.index.KNNIndex` (or ``None`` for scan-only).
#: With ``backend="process"`` the factory is shipped to the worker
#: processes, so it must be picklable (a module-level function or
#: ``functools.partial`` — not a lambda).
IndexFactory = Callable[[FeatureCollection, DistanceFunction], "KNNIndex | None"]

_BACKENDS = ("thread", "process")


def _check_backend(backend: str) -> str:
    if backend not in _BACKENDS:
        raise ValidationError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    return backend


# ---------------------------------------------------------------------- #
# Shared-memory corpus hosting
# ---------------------------------------------------------------------- #
def _release_segment(segment: "shared_memory.SharedMemory") -> None:
    """Close and unlink an owned segment, tolerating repeat calls."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - views die with the process
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


#: Serialises segment creation against the attach-time tracker patch below,
#: so an owned segment can never slip past registration.
_TRACKER_PATCH_LOCK = threading.Lock()


def _attach_segment(name: str) -> "shared_memory.SharedMemory":
    """Attach an existing segment without adopting ownership of it.

    On Python < 3.13 ``SharedMemory(name=...)`` registers even *attached*
    segments with the resource tracker as if they were owned (bpo-39959),
    which schedules a second unlink — a spurious KeyError in the tracker
    under ``fork``, a destroyed-under-the-parent segment under ``spawn``.
    The owner unlinks exactly once in :meth:`SharedCorpus.close`, so the
    attach suppresses that registration: via ``track=False`` where Python
    supports it, and by briefly diverting ``resource_tracker.register`` for
    shared-memory resources on older interpreters.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register

        def _register_everything_else(resource_name, rtype):
            if rtype != "shared_memory":
                original(resource_name, rtype)

        resource_tracker.register = _register_everything_else
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class AttachedCorpus:
    """A zero-copy view of a :class:`SharedCorpus` inside one process.

    Holds the attached segment alive alongside the
    :class:`~repro.database.collection.FeatureCollection` built over it
    (``copy=False``), so the mapping cannot disappear under a live engine.
    """

    __slots__ = ("collection", "_segment")

    def __init__(self, collection: FeatureCollection, segment) -> None:
        self.collection = collection
        self._segment = segment

    def close(self) -> None:
        """Unmap the segment (safe once every engine over it is dropped)."""
        try:
            self._segment.close()
        except BufferError:
            # NumPy views on the buffer are still alive somewhere; the
            # mapping is released when the process exits instead.
            pass


@dataclass(frozen=True)
class SharedCorpusHandle:
    """Picklable description of a :class:`SharedCorpus` segment.

    This — not the corpus — is what crosses the process boundary: a segment
    name, a shape and the labels.  :meth:`attach` maps the segment into the
    calling process and wraps it in a read-only, zero-copy
    :class:`~repro.database.collection.FeatureCollection`.
    """

    name: str
    shape: "tuple[int, int]"
    labels: "tuple[str, ...] | None" = None

    def attach(self) -> AttachedCorpus:
        """Map the segment and build the zero-copy collection over it."""
        segment = _attach_segment(self.name)
        matrix = np.ndarray(self.shape, dtype=np.float64, buffer=segment.buf)
        return AttachedCorpus(
            FeatureCollection(matrix, labels=self.labels, copy=False), segment
        )


class SharedCorpus:
    """A feature collection's matrix hosted in POSIX shared memory.

    The owner copies the matrix into a fresh segment **once**, at
    construction; worker processes attach the same physical pages through
    the picklable :attr:`handle` — N workers cost one corpus in memory, not
    N — and per-query traffic reduces to small pickles of query batches and
    top-k lists.  The float64 bits in the segment are exactly the
    collection's, so distances computed over an attached view are
    bit-identical to the parent's.

    Lifecycle is deterministic: :meth:`close` (or the context manager)
    closes and unlinks the segment; a ``weakref.finalize`` guard unlinks it
    even when the owner is only ever garbage-collected, so crashed or sloppy
    callers do not leak segments into ``/dev/shm``.
    """

    def __init__(self, collection: FeatureCollection) -> None:
        matrix = collection.vectors
        self._collection = collection
        # Created under the tracker-patch lock: an attach on another thread
        # must never suppress this owned segment's tracker registration.
        with _TRACKER_PATCH_LOCK:
            self._segment = shared_memory.SharedMemory(create=True, size=matrix.nbytes)
        staging = np.ndarray(matrix.shape, dtype=np.float64, buffer=self._segment.buf)
        staging[:] = matrix
        self._handle = SharedCorpusHandle(
            name=self._segment.name,
            shape=(int(matrix.shape[0]), int(matrix.shape[1])),
            labels=collection.labels,
        )
        self._closed = False
        self._finalizer = weakref.finalize(self, _release_segment, self._segment)

    @property
    def collection(self) -> FeatureCollection:
        """The parent-side collection the segment was filled from."""
        return self._collection

    @property
    def handle(self) -> SharedCorpusHandle:
        """The picklable attachment ticket for worker processes."""
        return self._handle

    def close(self) -> None:
        """Close and unlink the segment (idempotent).

        Attached views in worker processes stay valid until they unmap —
        POSIX keeps the pages alive while mappings exist — but no new
        attachment can be made afterwards.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release_segment(self._segment)

    def __enter__(self) -> "SharedCorpus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedCollection:
    """A feature collection partitioned into contiguous index-range shards.

    Shard boundaries follow the ``numpy.array_split`` convention: the first
    ``size % n_shards`` shards receive one extra vector, so the partitioning
    is a pure function of ``(size, n_shards)`` — every worker, every process
    and every test reproduces the same layout.  Shard ``s`` covers the
    global half-open range ``[offsets[s], offsets[s] + len(shard))``, which
    makes the local-to-global mapping a single offset addition
    (:meth:`to_global`).

    ``n_shards`` is clamped to the collection size (a
    :class:`~repro.database.collection.FeatureCollection` cannot be empty),
    so asking for more shards than vectors degrades gracefully instead of
    materialising empty shards.
    """

    def __init__(self, collection: FeatureCollection, n_shards: int) -> None:
        check_dimension(n_shards, "n_shards")
        self._collection = collection
        n_shards = min(int(n_shards), collection.size)
        base, extra = divmod(collection.size, n_shards)
        sizes = np.full(n_shards, base, dtype=np.intp)
        sizes[:extra] += 1
        boundaries = np.concatenate([np.zeros(1, dtype=np.intp), np.cumsum(sizes)])
        labels = collection.labels
        shards = []
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            shard_labels = None if labels is None else labels[start:stop]
            shards.append(FeatureCollection(collection.vectors[start:stop], labels=shard_labels))
        self._shards = tuple(shards)
        self._offsets = boundaries[:-1].copy()
        self._offsets.setflags(write=False)
        self._boundaries = boundaries
        self._boundaries.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def collection(self) -> FeatureCollection:
        """The full, unpartitioned collection."""
        return self._collection

    @property
    def n_shards(self) -> int:
        """Number of shards (after clamping to the collection size)."""
        return len(self._shards)

    @property
    def shards(self) -> tuple[FeatureCollection, ...]:
        """The per-shard collections, in global index order."""
        return self._shards

    @property
    def offsets(self) -> np.ndarray:
        """Global index of each shard's first vector (read-only)."""
        return self._offsets

    @property
    def boundaries(self) -> np.ndarray:
        """Half-open global range boundaries, ``boundaries[s] .. boundaries[s+1]``."""
        return self._boundaries

    def __len__(self) -> int:
        return self.n_shards

    def to_global(self, shard_id: int, local_indices) -> np.ndarray:
        """Map shard-local indices to collection (global) indices."""
        if not 0 <= shard_id < self.n_shards:
            raise ValidationError(f"shard_id {shard_id} out of range [0, {self.n_shards})")
        local_indices = np.asarray(local_indices, dtype=np.intp)
        return local_indices + self._offsets[shard_id]

    def shard_of(self, global_index: int) -> tuple[int, int]:
        """Return ``(shard_id, local_index)`` of one global index."""
        if not 0 <= global_index < self._collection.size:
            raise ValidationError(
                f"index {global_index} out of range [0, {self._collection.size})"
            )
        shard_id = int(np.searchsorted(self._boundaries, global_index, side="right") - 1)
        return shard_id, int(global_index - self._offsets[shard_id])


class WorkerPool:
    """A tiny ordered-``map`` executor over a fixed set of worker threads.

    Shard searches are NumPy-dominated and release the GIL, so threads
    scale until the Python-side fan-out/merge serialises; work that must
    run past the GIL is hosted by the process shard backend instead.

    ``n_workers=1`` is the serial fallback: tasks run inline on the calling
    thread, with no executor and no handoff overhead — the single-worker
    sharded engine therefore behaves (and costs) like a plain loop over the
    shards.  With ``n_workers > 1`` the pool lazily creates one executor
    and keeps it alive across calls, so a stream of query batches does not
    pay thread start-up per batch.  ``map`` may be called concurrently from
    many client threads (the stress-test regime); task functions must never
    submit back into the same pool.  After :meth:`close` the pool degrades
    permanently to the serial inline path — no workers are ever
    resurrected — so closing is safe while the owning engine stays in use.

    .. note:: **BLAS oversubscription.**  N workers each calling into a
       BLAS that spins up M threads of its own runs N×M threads on the same
       cores and *loses* throughput to cache thrash and context switches.
       When benchmarking (or deploying) multi-worker scans, pin the BLAS
       pool to one thread per process (``OMP_NUM_THREADS=1``,
       ``OPENBLAS_NUM_THREADS=1``, ``MKL_NUM_THREADS=1`` — see
       ``benchmarks/conftest.py``) and let the worker pool own the cores.
    """

    def __init__(self, n_workers: int = 1) -> None:
        self._n_workers = check_dimension(n_workers, "n_workers")
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._closed = False

    @property
    def n_workers(self) -> int:
        """Configured degree of parallelism."""
        return self._n_workers

    def map(self, function: Callable, items: Sequence) -> list:
        """Apply ``function`` to every item, returning results in item order."""
        items = list(items)
        if self._n_workers == 1 or len(items) <= 1:
            return [function(item) for item in items]
        with self._executor_lock:
            if self._closed:
                executor = None
            else:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self._n_workers, thread_name_prefix="repro-worker"
                    )
                executor = self._executor
        if executor is None:
            return [function(item) for item in items]
        return list(executor.map(function, items))

    def close(self) -> None:
        """Shut the workers down and pin the pool to serial execution.

        Idempotent; serial pools are a no-op.  Calls in flight on other
        threads finish on the old executor, later ``map`` calls run inline.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Process shard backend
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ShardWorkerSpec:
    """Everything one shard worker process needs, as a small pickle.

    The corpus itself does not travel — only the shared-memory handle, the
    half-open global ranges of the shards this worker owns, the default
    distance and the (picklable) index factory.
    """

    corpus: SharedCorpusHandle
    ranges: "tuple[tuple[int, int, int], ...]"  # (shard_id, start, stop)
    distance: DistanceFunction
    index_factory: "IndexFactory | None"


def _shard_worker_main(connection, spec: _ShardWorkerSpec) -> None:
    """Entry point of one long-lived shard worker process.

    Attaches the shared corpus exactly once, builds one
    :class:`~repro.database.engine.RetrievalEngine` per owned shard over
    zero-copy row slices of the attached matrix, then answers ``("call",
    method, args)`` messages until told to stop.  Results are per-shard
    :class:`~repro.database.query.ResultSet` objects — small pickles of
    top-k indices and distances.
    """
    engines: "dict[int, RetrievalEngine]" = {}
    try:
        attached = spec.corpus.attach()
        full = attached.collection
        for shard_id, start, stop in spec.ranges:
            labels = None if full.labels is None else full.labels[start:stop]
            shard = FeatureCollection(full.vectors[start:stop], labels=labels, copy=False)
            engines[shard_id] = RetrievalEngine(
                shard,
                default_distance=spec.distance,
                metric_index=None
                if spec.index_factory is None
                else spec.index_factory(shard, spec.distance),
            )
        connection.send(("ready", None))
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        connection.send(("error", f"{type(error).__name__}: {error}"))
        return
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        command = message[0]
        if command == "stop":
            break
        try:
            if command == "call":
                _, method, args = message
                payload = {
                    shard_id: getattr(engine, method)(*args)
                    for shard_id, engine in engines.items()
                }
            elif command == "stats":
                payload = {shard_id: engine.stats() for shard_id, engine in engines.items()}
            elif command == "reset":
                for engine in engines.values():
                    engine.reset_counters()
                payload = None
            else:
                raise ValidationError(f"unknown shard worker command {command!r}")
            connection.send(("ok", payload))
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            connection.send(("error", f"{type(error).__name__}: {error}"))


#: What every call on a backend with a dead worker raises: a server-side
#: fault, not a caller error (closed backends raise ``ValidationError``).
_WORKER_DIED = (
    "a shard worker process died mid-query; the backend is now unusable "
    "(close() still tears it down)"
)


class _ProcessShardBackend:
    """Parent-side controller of the shard worker processes.

    Owns the :class:`SharedCorpus` segment and one duplex pipe per worker.
    Shards are assigned to workers in contiguous ``numpy.array_split``
    chunks (worker count clamps to the shard count), each worker builds its
    engines once at startup, and every fan-out is one small message per
    worker.  Dispatch is serialised by a lock — pipes are not thread-safe —
    so concurrent callers queue exactly as they would on a busy executor.
    """

    def __init__(
        self,
        sharded: ShardedCollection,
        n_workers: int,
        distance: DistanceFunction,
        index_factory: "IndexFactory | None",
    ) -> None:
        try:
            pickle.dumps((distance, index_factory))
        except Exception as error:
            raise ValidationError(
                "backend='process' ships the default distance and the index factory "
                f"to worker processes, so both must be picklable (module-level "
                f"functions, not lambdas): {error}"
            ) from None
        self._n_shards = sharded.n_shards
        self._n_workers = min(check_dimension(n_workers, "n_workers"), sharded.n_shards)
        self._corpus = SharedCorpus(sharded.collection)
        boundaries = sharded.boundaries
        context = get_context()
        self._workers: "list[tuple]" = []
        self._lock = threading.Lock()
        self._closed = False
        self._broken = False
        try:
            for shard_ids in np.array_split(np.arange(self._n_shards), self._n_workers):
                parent_end, child_end = context.Pipe()
                spec = _ShardWorkerSpec(
                    corpus=self._corpus.handle,
                    ranges=tuple(
                        (int(shard_id), int(boundaries[shard_id]), int(boundaries[shard_id + 1]))
                        for shard_id in shard_ids
                    ),
                    distance=distance,
                    index_factory=index_factory,
                )
                process = context.Process(
                    target=_shard_worker_main, args=(child_end, spec), daemon=True
                )
                process.start()
                child_end.close()
                self._workers.append((process, parent_end))
            for process, connection in self._workers:
                status, detail = connection.recv()
                if status != "ready":
                    raise ValidationError(f"shard worker failed to start: {detail}")
        except BaseException:
            self.close()
            raise

    @property
    def n_workers(self) -> int:
        """Number of live worker processes."""
        return self._n_workers

    def _round_trip(self, message: tuple) -> "dict | None":
        """Send one message to every worker and merge the responses.

        The message is pickled exactly once, *before* the first send: a
        payload that cannot pickle (e.g. a per-call distance override
        holding an unpicklable object) fails cleanly with no worker ever
        receiving it, so the send/recv pairing can never desynchronise.  A
        transport failure mid-round (a dead worker) permanently poisons the
        backend instead — once pipes may hold stale responses, silently
        merging them into a later query would be far worse than raising —
        and every later call raises the same ``RuntimeError`` until
        :meth:`close`.
        """
        from multiprocessing.reduction import ForkingPickler

        try:
            payload_bytes = bytes(ForkingPickler.dumps(message))
        except Exception as error:
            raise ValidationError(
                f"backend='process' could not pickle the query payload: {error}"
            ) from None
        with self._lock:
            if self._closed:
                raise ValidationError("the process shard backend is closed")
            if self._broken:
                raise RuntimeError(_WORKER_DIED)
            merged: "dict | None" = None
            failure: "str | None" = None
            try:
                for _, connection in self._workers:
                    connection.send_bytes(payload_bytes)
                for process, connection in self._workers:
                    status, payload = connection.recv()
                    if status != "ok":
                        failure = payload
                    elif isinstance(payload, dict):
                        merged = payload if merged is None else {**merged, **payload}
            except (EOFError, BrokenPipeError, OSError):
                self._broken = True
                raise RuntimeError(_WORKER_DIED) from None
        if failure is not None:
            raise RuntimeError(f"shard worker failed: {failure}")
        return merged

    def map_shards(self, method: str, args: tuple) -> list:
        """Run ``method(*args)`` on every shard engine, ordered by shard id."""
        collected = self._round_trip(("call", method, args))
        return [collected[shard_id] for shard_id in range(self._n_shards)]

    def shard_stats(self) -> "tuple[dict, ...]":
        """Per-shard :meth:`RetrievalEngine.stats`, ordered by shard id."""
        collected = self._round_trip(("stats",))
        return tuple(collected[shard_id] for shard_id in range(self._n_shards))

    def reset(self) -> None:
        """Reset every worker-side shard engine's counters."""
        self._round_trip(("reset",))

    def close(self) -> None:
        """Stop the workers, release the pipes and unlink the segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for _, connection in workers:
            try:
                connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process, connection in workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
            connection.close()
        self._corpus.close()


class ShardedEngine(QueryEngine):
    """k-NN query processing fanned out over per-shard retrieval engines.

    Parameters
    ----------
    collection:
        The collection to serve — either a plain
        :class:`~repro.database.collection.FeatureCollection` (partitioned
        here into ``n_shards`` ranges) or a pre-built
        :class:`ShardedCollection` (``n_shards`` must then be ``None``).
    n_shards:
        Number of contiguous index-range shards.
    n_workers:
        Degree of parallelism of the shard fan-out (``1`` = serial for the
        thread backend).
    backend:
        ``"thread"`` (default) fans shards out over a
        :class:`WorkerPool` of threads — zero setup cost, scales until the
        GIL-bound fan-out/merge saturates.  ``"process"`` hosts the corpus
        in :class:`SharedCorpus` shared memory and builds the per-shard
        engines inside ``n_workers`` long-lived worker processes — higher
        setup cost (process spawn + one corpus copy into the segment), but
        the scan itself runs on ``n_workers`` independent interpreters, so
        scan-heavy shards keep scaling where threads stop.  Results are
        byte-identical either way.
    default_distance:
        Distance used when a query does not override it; shared by every
        shard engine (distances are immutable).  Must be picklable for the
        process backend (every bundled distance is).
    index_factory:
        Optional callable building one metric index per shard from
        ``(shard_collection, default_distance)`` — e.g.
        ``lambda shard, dist: VPTreeIndex(shard, dist)``.  Dispatch stays
        capability-driven inside each shard engine exactly as in the
        unsharded :class:`~repro.database.engine.RetrievalEngine`.  The
        process backend requires a *picklable* factory (module-level
        function or ``functools.partial``, not a lambda).

    The query surface *is* the retrieval engine's — both inherit it from
    :class:`~repro.database.engine.QueryEngine` — and the results are
    byte-identical to it: every shard engine evaluates per-object distances
    with the same element-wise expressions (bits independent of shard
    membership and of the hosting process), and
    :func:`~repro.database.index.merge_topk` re-selects the global top-k
    under the library-wide (distance, ascending global index) order.

    Lifecycle: :meth:`close` (or the context manager) tears the worker pool
    down deterministically.  A thread-backend engine keeps serving serially
    after ``close``; a process-backend engine's shard engines live in the
    (now stopped) workers, so queries after ``close`` raise instead.
    """

    def __init__(
        self,
        collection: "FeatureCollection | ShardedCollection | LiveCollection",
        n_shards: int | None = None,
        *,
        n_workers: int = 1,
        backend: str = "thread",
        default_distance: DistanceFunction | None = None,
        index_factory: IndexFactory | None = None,
    ) -> None:
        self._backend = _check_backend(backend)
        self._process_backend: "_ProcessShardBackend | None" = None
        self._shard_engines: tuple[RetrievalEngine, ...] = ()
        self._sharded: "ShardedCollection | None" = None
        if isinstance(collection, LiveCollection):
            # A live collection already *is* a partition — base + delta
            # segments — and the partition changes with every insert and
            # compaction, so a static index-range ShardedCollection cannot
            # exist over it.  The engine fans the per-segment scans of each
            # snapshot over its worker pool instead.
            if n_shards is not None:
                raise ValidationError(
                    "a live collection shards by segment; n_shards must be None"
                )
            if self._backend == "process":
                raise ValidationError(
                    "a live collection mutates in place and cannot be hosted in "
                    "shared memory; use backend='thread'"
                )
            if index_factory is not None:
                raise ValidationError(
                    "a live collection manages its own base index; "
                    "pass index_factory to LiveCollection instead"
                )
            super().__init__(collection, default_distance)
            self._pool = WorkerPool(n_workers)
            return
        if isinstance(collection, ShardedCollection):
            if n_shards is not None and n_shards != collection.n_shards:
                raise ValidationError(
                    "n_shards conflicts with the pre-partitioned ShardedCollection"
                )
            self._sharded = collection
        else:
            self._sharded = ShardedCollection(collection, 1 if n_shards is None else n_shards)
        super().__init__(self._sharded.collection, default_distance)
        default_distance = self._default_distance
        if self._backend == "process":
            self._pool = None
            self._process_backend = _ProcessShardBackend(
                self._sharded, n_workers, default_distance, index_factory
            )
        else:
            self._pool = WorkerPool(n_workers)
            self._shard_engines = tuple(
                RetrievalEngine(
                    shard,
                    default_distance=default_distance,
                    metric_index=None
                    if index_factory is None
                    else index_factory(shard, default_distance),
                )
                for shard in self._sharded.shards
            )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def sharded_collection(self) -> "ShardedCollection | None":
        """The shard layout this engine serves (``None`` for live collections,
        whose partition is the segment composition of the current snapshot)."""
        return self._sharded

    @property
    def backend(self) -> str:
        """The shard fan-out backend, ``"thread"`` or ``"process"``."""
        return self._backend

    @property
    def n_shards(self) -> int:
        """Number of shards (for a live collection: segments in the current
        snapshot, which changes with inserts and compactions)."""
        if self._live:
            return self._collection.snapshot().n_segments
        return self._sharded.n_shards

    @property
    def n_workers(self) -> int:
        """Degree of parallelism of the shard fan-out."""
        if self._process_backend is not None:
            return self._process_backend.n_workers
        return self._pool.n_workers

    @property
    def pool(self) -> "WorkerPool | None":
        """The thread fan-out pool (``None`` for the process backend)."""
        return self._pool

    def close(self) -> None:
        """Tear the fan-out backend down deterministically (idempotent).

        Thread backend: worker threads stop, the engine keeps serving
        serially.  Process backend: worker processes stop and the shared
        segment is unlinked, so later queries raise.
        """
        if self._process_backend is not None:
            self._process_backend.close()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def _shard_stats(self) -> "tuple[dict, ...]":
        if self._process_backend is not None:
            return self._process_backend.shard_stats()
        return tuple(engine.stats() for engine in self._shard_engines)

    def describe(self) -> dict:
        """Static shape of this engine: what a serving front end advertises.

        The sharded counterpart of
        :meth:`~repro.database.engine.RetrievalEngine.describe`: corpus
        size and dimensionality plus the fan-out layout (shards, workers,
        backend).  Fixed at construction, so a
        :class:`~repro.serving.server.RetrievalServer` can answer ``info``
        requests without touching the worker processes.
        """
        info = {
            "engine": type(self).__name__,
            "corpus_size": self.collection.size,
            "dimension": self.collection.dimension,
            "default_distance": type(self._default_distance).__name__,
            "n_shards": self.n_shards,
            "n_workers": self.n_workers,
            "backend": self._backend,
        }
        if self._live:
            info["live"] = True
        return info

    def stats(self) -> dict:
        """Aggregate counters across the worker pool and every shard.

        Top-level volume counters (``n_searches`` / ``n_batches`` /
        ``n_objects_retrieved``) count *merged* queries and result objects —
        directly comparable to the unsharded engine's accounting — while the
        dispatch counters (``index_hits`` / ``scan_fallbacks``) are summed
        over the shards (each query consults every shard, so they scale with
        ``shard_count``).  ``per_shard`` keeps the unaggregated
        per-shard dispatch stats for drill-down; with ``backend="process"``
        they are fetched from the worker processes.

        Live collections have no shard engines: the dispatch decision is
        made once per query against the snapshot's base index, so the
        counters live at the top level and ``per_shard`` is empty.
        """
        counters = self._counter_snapshot()
        delta_hits = counters.pop("delta_hits")
        per_shard = ()
        if not self._live:
            per_shard = self._shard_stats()
            counters["index_hits"] = sum(shard["index_hits"] for shard in per_shard)
            counters["scan_fallbacks"] = sum(shard["scan_fallbacks"] for shard in per_shard)
        stats = {
            "shard_count": self.n_shards,
            "n_workers": self.n_workers,
            "backend": self._backend,
            **counters,
        }
        if self._live:
            stats["delta_hits"] = delta_hits
            stats["compactions"] = self._collection.n_compactions
        stats["per_shard"] = per_shard
        return stats

    def _reset_parts(self) -> None:
        if self._process_backend is not None:
            self._process_backend.reset()
        for engine in self._shard_engines:
            engine.reset_counters()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _answer(
        self, batch: QueryBatch, budget: "Budget | None", batches: int
    ) -> "tuple[list[ResultSet], dict[str, int]]":
        """Fan the batch out to every shard and merge the per-shard top-k.

        The batch travels to the shard engines unchanged — ``distance=None``
        stays ``None``, so each shard engine resolves its *own* default
        distance instance (the one its metric index was built for, also
        inside a worker process) — and every shard engine answers it the way
        :meth:`execute` would (one kernel matrix per shard for the linear
        scan), counting the ``batches`` this engine counts, so a single-row
        search counts no batch on any shard either.  The per-query Python
        overhead stays amortised *and* the shards run concurrently.
        Shard-local indices become global by one offset addition and
        :func:`~repro.database.index.merge_topk` re-selects the global
        top-k; distances are carried through verbatim, so the merged arrays
        are byte-identical to the unsharded result.

        Thread backend: the shards are the parts of one
        :func:`~repro.database.budget.fan_out` over the worker pool — a
        finite ``budget`` consults them serially in shard-id order and stops
        when it runs dry (``shards_answered`` / ``shards_skipped``).
        Process backend: one pipe round-trip per worker carrying the pickled
        batch; only the batch and the per-shard top-k lists cross the
        process boundary, and finite budgets are refused — a live
        :class:`~repro.database.budget.Budget` (lock, clock) cannot cross
        it, and a shared cap drained from another process would not be
        deterministic anyway.
        """
        if self._live:
            return self._answer_live(batch, budget, mapper=self._pool.map)
        rows_total = self._collection.size * batch.n_rows
        offsets = self._sharded.offsets
        if self._process_backend is None:
            per_shard = fan_out(
                list(zip(offsets, self._shard_engines)),
                lambda shard, shard_budget: _global_pairs(
                    shard[0], shard[1]._run(batch, shard_budget, batches)
                ),
                budget,
                rows_total,
                Budget.note_shard,
                self._pool.map,
            )
        else:
            if effective_budget(budget) is not None:
                raise ValidationError(
                    "finite budgets need backend='thread': a live Budget cannot "
                    "cross the process boundary"
                )
            if budget is not None:
                budget.note_exact(rows_total)
                for _ in offsets:
                    budget.note_shard(answered=True)
            answers = self._process_backend.map_shards("_run", (batch, None, batches))
            per_shard = [_global_pairs(offset, results) for offset, results in zip(offsets, answers)]
        # Dispatch decisions are counted by the shard engines that made them.
        return merge_topk(per_shard, batch.k, batch.n_rows), {}


def _global_pairs(offset: int, results: "list[ResultSet]") -> list:
    """One shard's answers as ``(global indices, distances)`` pairs."""
    return [(result.indices() + offset, result.distances()) for result in results]
