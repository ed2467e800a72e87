"""The traced run: where a served request's time goes, layer by layer.

The first ``trace_ops`` ops of a workload's stream are replayed **in one
process, on one thread, with no sockets**, and every layer boundary the
benchmark can reach from outside records a span ``{name, start_ns, end_ns,
parent, request_id}`` in memory.  Spans come from two places only, both in
this file:

* a delegating timing proxy (``TracedEngine``) placed at a seam the
  constructors already accept — the engine handed to ``ServingCore`` — and
  the three steps ``ServingCore.serve_frames`` performs (``BinaryCodec.decode``
  -> ``ServingCore.respond`` -> ``encode_response_frames``) called one by one;
* direct calls to leaf public functions on inputs taken from the same stream.

No attribute of any ``repro`` module or object is patched.  A layer's self
time is its span minus the part its child spans cover; metrics obtained by
subtracting medians of separately replayed calls are listed in ``DERIVED``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from bench.loadgen import Connection, Driver
from bench.workloads import WRITE_ROWS
from repro.database.budget import Budget
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.database.index import k_selection_autotuner, k_smallest
from repro.database.knn import LinearScanIndex
from repro.database.mtree import MTreeIndex
from repro.database.segments import LiveCollection
from repro.database.sharding import ShardedEngine
from repro.database.vptree import VPTreeIndex
from repro.distances.weighted_euclidean import (
    WeightedEuclideanDistance,
    pairwise_per_query_weights,
)
from repro.evaluation.simulated_user import CategoryJudge
from repro.feedback.engine import FeedbackEngine, FeedbackState
from repro.feedback.scheduler import LoopRequest, LoopScheduler
from repro.serving import (
    AsyncRetrievalServer,
    BypassRegistry,
    PooledServingClient,
    RequestCoalescer,
    RetrievalServer,
    ServerConfig,
    ServingClient,
    ServingCore,
)
from repro.serving.codec import BINARY, encode_response_frames

#: Metrics computed by subtracting medians of separately timed calls.
DERIVED = (
    "engine.self_us",
    "bypass_registry.self_share",
    "client.call_overhead_us",
    "trace.overhead_ratio",
)

#: Corpus rows the metric-tree alternatives are built over (a pure-Python
#: M-tree build over all 200,000 rows would outlast the whole benchmark).
TREE_ROWS = 4096


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: "list[list]" = []  # [name, start_ns, end_ns, parent, request_id]
        self.request_id = None
        self._open: "list[int]" = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        record = [name, 0, 0, self._open[-1] if self._open else None, self.request_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def time(self, name: str, call, repeats: int):
        """Run ``call`` ``repeats`` times, each in its own root span; returns the last result."""
        for _ in range(repeats):
            with self.span(name):
                result = call()
        return result

    @staticmethod
    def _named(span, name: str) -> bool:
        """``name`` selects spans called ``name`` or ``name:<detail>``."""
        return span[0] == name or span[0].startswith(name + ":")

    def median_us(self, name: str) -> float:
        """Median duration of the spans ``name`` selects (0 when there are none)."""
        durations = [(s[2] - s[1]) / 1e3 for s in self.spans if self._named(s, name)]
        return statistics.median(durations) if durations else 0.0

    def self_us(self, name: str) -> "list[float]":
        """Per-span self time: the span minus what its child spans cover."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        return [
            (span[2] - span[1] - covered[number]) / 1e3
            for number, span in enumerate(self.spans)
            if self._named(span, name)
        ]

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request_id")
        with open(path, "w") as handle:
            json.dump({"derived": DERIVED, "spans": [dict(zip(keys, s)) for s in self.spans]}, handle)


class TracedEngine:
    """Delegating timing proxy around an engine's four query entry points."""

    def __init__(self, engine, tracer: Tracer) -> None:
        self._engine = engine
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def search(self, *args, **kwargs):
        with self._tracer.span("engine.search"):
            return self._engine.search(*args, **kwargs)

    def search_batch(self, *args, **kwargs):
        with self._tracer.span("engine.search_batch"):
            return self._engine.search_batch(*args, **kwargs)

    def search_with_parameters(self, *args, **kwargs):
        with self._tracer.span("engine.search_with_parameters"):
            return self._engine.search_with_parameters(*args, **kwargs)

    def search_batch_with_parameters(self, *args, **kwargs):
        with self._tracer.span("engine.search_batch_with_parameters"):
            return self._engine.search_batch_with_parameters(*args, **kwargs)


class Replay:
    """One in-process replay of a workload's stream through ``ServingCore``.

    The replay is the load generator's own ``Driver`` talking to this object
    instead of a ``ServingClient``: the methods below build the request dicts
    the client builds for the same calls, and ``call`` makes the wire steps
    around ``respond`` — the ones ``serve_frames`` and the client perform —
    one by one so each gets its span.
    """

    def __init__(self, workload, inputs, tracer: Tracer) -> None:
        self.workload, self.inputs, self.tracer = workload, inputs, tracer
        if workload.live:
            self.collection = LiveCollection(inputs.corpus)
        else:
            labels = None if inputs.labels is None else inputs.labels.tolist()
            self.collection = FeatureCollection(inputs.corpus, labels=labels)
        self.engine = RetrievalEngine(self.collection)
        # Compaction runs inline here (see ``_written``), not on a timer
        # thread, so the replay's counters repeat exactly.
        config = {k: v for k, v in workload.server_config.items() if k != "autocompact_delta_rows"}
        seen = TracedEngine(self.engine, tracer) if tracer.enabled else self.engine
        self.core = ServingCore(seen, ServerConfig(**config))
        self.owner = object()
        self.request_bytes = self.response_bytes = self.flops = 0
        self.delta_rows: "list[int]" = []

    def call(self, op: str, **payload):
        tracer = self.tracer
        with tracer.span(f"request:{op}"):
            with tracer.span("codec.request_encode"):
                wire = BINARY.encode({"op": op, **payload})
            with tracer.span("codec.request_decode"):
                message = BINARY.decode(wire)
            with tracer.span(f"server.respond:{op}"):
                response = self.core.respond(message, self.owner)
            with tracer.span("codec.response_encode"):
                frames = encode_response_frames(response, BINARY, chunk_items=1024)
            with tracer.span("codec.response_decode"):
                answer = BINARY.decode(frames[0])
        self.request_bytes += len(wire)
        self.response_bytes += sum(len(frame) for frame in frames)
        if len(frames) != 1 or not answer["ok"]:
            raise RuntimeError(f"replayed {op} failed: {answer}")
        return answer["result"]

    def run(self) -> float:
        """Replay the first ``trace_ops`` ops of the stream; returns the elapsed seconds."""
        workload, tracer = self.workload, self.tracer
        driver, connection = Driver(workload, self.inputs), Connection(0, self)
        plans = [(self.inputs.warm, workload.trace_ops)]
        if workload.cold_sessions:
            # Half the replay trains an empty tree, half runs warm on it.
            plans = [(self.inputs.cold, workload.trace_ops // 2), (self.inputs.warm, workload.trace_ops // 2)]
        started = time.perf_counter()
        try:
            for session_rows, count in plans:
                driver.session_rows = session_rows
                for position in range(count):
                    tracer.request_id = position
                    with tracer.span("session") if workload.cold_sessions else nullcontext():
                        driver.execute(connection, position)
        finally:
            tracer.request_id = None
            elapsed = time.perf_counter() - started
            self.core.shutdown(own_engine=False)
        return elapsed

    def _scanned(self, rows: int) -> None:
        """Account the exact flops of one scan: 2 x query rows x corpus rows x dimension."""
        corpus_rows = self.collection.size
        if self.workload.live:
            stats = self.collection.corpus_stats()
            corpus_rows = stats["size"] + stats["tombstones"]
            self.delta_rows.append(stats["delta_rows"])
        self.flops += 2 * rows * corpus_rows * self.collection.dimension

    def _written(self) -> None:
        """What the server's compactor thread would do, done at a repeatable moment."""
        if self.collection.delta_rows >= self.workload.server_config["autocompact_delta_rows"]:
            with self.tracer.span("segments.compact"):
                self.collection.compact()

    # The part of ``ServingClient``'s surface the load generator's driver uses.
    def search(self, query_point, k: int):
        self._scanned(1)
        return self.call("search", query_point=query_point, k=k)

    def search_batch(self, query_points, k: int):
        self._scanned(query_points.shape[0])
        return self.call("search_batch", query_points=query_points, k=k)

    def insert(self, vectors):
        ids = self.call("insert", vectors=vectors, labels=None)
        self._written()
        return ids

    def delete(self, ids) -> int:
        count = self.call("delete", ids=ids)
        self._written()
        return count

    def bypass_mopt(self, query_point):
        return self.call("bypass_mopt", query_point=query_point, tenant=None)

    def bypass_insert(self, query_point, parameters):
        return self.call("bypass_insert", query_point=query_point, parameters=parameters, tenant=None)

    def open_session(self, query_point, k: int, *, initial_delta, initial_weights):
        self._scanned(1)
        return self.call(
            "session_open", query_point=query_point, k=k,
            initial_delta=initial_delta, initial_weights=initial_weights,
        )

    def session_feedback(self, session_id: int, indices, scores):
        reply = self.call("session_feedback", session_id=session_id, indices=indices, scores=scores)
        if reply["results"] is not None:
            self._scanned(1)
        return reply

    def close_session(self, session_id: int):
        return self.call("session_close", session_id=session_id)


def _repeats(workload) -> int:
    """Direct-call repetitions: many for microsecond calls, few for 30 ms ones."""
    return 8 if workload.rows >= 50000 else 40


def probe_query_path(tracer: Tracer, workload, inputs, replay: Replay) -> dict:
    """Direct calls into engine, scan, kernel and k-selection on the stream's own rows."""
    queries = inputs.queries[: workload.batch_rows]
    k = workload.k
    # The engine's own collection where it is a frozen one, so that the scan
    # probe and the engine probe read the same arrays.
    frozen = FeatureCollection(inputs.corpus) if workload.live else replay.collection
    distance = WeightedEuclideanDistance.default(frozen.dimension)
    scan = LinearScanIndex(frozen)
    ones = np.ones((queries.shape[0], frozen.dimension))
    engine = replay.engine  # after the replay: a live one holds deltas and tombstones
    matrix = distance.pairwise(queries, frozen.vectors, workspace=frozen.workspace)
    coalescer = RequestCoalescer(TracedEngine(engine, tracer))
    probes = (
        ("engine.search_batch1", lambda: engine.search_batch(queries[:1], k)),
        ("engine.search_batchN", lambda: engine.search_batch(queries, k)),
        ("engine.search_one", lambda: engine.search(queries[0], k)),
        (
            "engine.search_with_parameters",
            lambda: engine.search_with_parameters(queries[0], k, 0.0 * queries[0], ones[0]),
        ),
        ("knn.scan_batch", lambda: scan.search_batch(queries, k, distance)),
        ("knn.scan_fast_batch", lambda: scan.search_batch(queries, k, distance, "fast")),
        (
            "distances.pairwise",
            lambda: distance.pairwise(queries, frozen.vectors, workspace=frozen.workspace),
        ),
        (
            "distances.pairwise_per_query_weights",
            lambda: pairwise_per_query_weights(queries, ones, frozen.vectors, workspace=frozen.workspace),
        ),
        ("index.k_smallest", lambda: k_smallest(matrix[0], k)),
        ("coalescer.submit", lambda: coalescer.submit_search(queries, k)),
    )
    # Interleaved, so every probe sees the same mix of the box's speed states
    # and the derived differences between them mean something.
    for _ in range(_repeats(workload)):
        for name, call in probes:
            with tracer.span(name):
                call()
    stats = engine.stats()
    return {
        "engine.search_us": tracer.median_us("engine.search_one"),
        "engine.search_batch1_us": tracer.median_us("engine.search_batch1"),
        "engine.search_batch_ms": tracer.median_us("engine.search_batchN") / 1e3,
        "engine.search_with_parameters_us": tracer.median_us("engine.search_with_parameters"),
        "engine.self_us": tracer.median_us("engine.search_batchN") - tracer.median_us("knn.scan_batch"),
        "engine.scan_fallbacks": float(stats["scan_fallbacks"]),
        "engine.index_hits": float(stats["index_hits"]),
        "engine.n_batches": float(stats["n_batches"]),
        "knn.scan_batch_ms": tracer.median_us("knn.scan_batch") / 1e3,
        "knn.scan_fast_batch_ms": tracer.median_us("knn.scan_fast_batch") / 1e3,
        "distances.pairwise_ms": tracer.median_us("distances.pairwise") / 1e3,
        "distances.pairwise_per_query_weights_ms": tracer.median_us("distances.pairwise_per_query_weights") / 1e3,
        "index.k_smallest_ms": tracer.median_us("index.k_smallest") / 1e3,
        "index.heap_decisions": float(
            sum(choice == "heap" for choice in k_selection_autotuner().decisions().values())
        ),
        "coalescer.submit_self_us": statistics.median(tracer.self_us("coalescer.submit")),
    }


def probe_segments(tracer: Tracer, workload, inputs) -> dict:
    """Direct calls into ``LiveCollection`` / ``LiveSnapshot`` (0 where nothing is live)."""
    names = ("insert_us_per_row", "delete_us_per_row", "snapshot_us", "search_ms", "compact_ms")
    if not workload.live:
        return {f"segments.{name}": 0.0 for name in names}
    live = LiveCollection(inputs.corpus)
    distance = live.index_distance
    query = inputs.queries[:1]
    for number in range(12):
        rows = inputs.write_rows[number * WRITE_ROWS : (number + 1) * WRITE_ROWS]
        with tracer.span("segments.insert"):
            ids = live.insert(rows)
        with tracer.span("segments.snapshot"):
            snapshot = live.snapshot()
        with tracer.span("segments.search"):
            snapshot.search_batch(query, workload.k, distance)
        if number % 2:
            with tracer.span("segments.delete"):
                live.delete(ids)
        if number % 4 == 3:
            with tracer.span("segments.compact"):
                live.compact()
    return {
        "segments.insert_us_per_row": tracer.median_us("segments.insert") / WRITE_ROWS,
        "segments.delete_us_per_row": tracer.median_us("segments.delete") / WRITE_ROWS,
        "segments.snapshot_us": tracer.median_us("segments.snapshot"),
        "segments.search_ms": tracer.median_us("segments.search") / 1e3,
        "segments.compact_ms": tracer.median_us("segments.compact") / 1e3,
    }


def probe_bypass(tracer: Tracer, workload, inputs, replay: Replay) -> dict:
    """Direct calls into the feedback engine, the registry and the tree under it.

    Cold default-start loops over the cold images give the converged
    parameters; inserting them times ``insert`` on a tree growing to the
    size the served warm phase starts from, and ``mopt`` is timed on it.
    """
    names = (
        "feedback.run_loop_ms", "feedback.compute_new_state_us", "bypass_registry.mopt_us",
        "bypass_registry.insert_us", "bypass_registry.self_share", "core.mopt_us", "core.insert_us",
    )
    if not workload.cold_sessions:
        return {name: 0.0 for name in names}
    engine = replay.engine
    feedback = FeedbackEngine(engine)
    registry = BypassRegistry.for_engine(engine)
    tree = registry.local_reference()
    trained = []
    for row in inputs.cold.tolist():
        query = inputs.corpus[row]
        judge = CategoryJudge(inputs.labels, str(inputs.labels[row]))
        with tracer.span("feedback.run_loop"):
            loop = feedback.run_loop(query, workload.k, judge)
        state = FeedbackState(query_point=query, weights=np.ones_like(query))
        judgments = judge(loop.initial_results)
        with tracer.span("feedback.compute_new_state"):
            feedback.compute_new_state(state, judgments)
        trained.append((query, loop.optimal_parameters(query)))
    for query, parameters in trained:
        with tracer.span("bypass_registry.insert"):
            registry.insert(None, query, parameters)
        with tracer.span("core.insert"):
            tree.insert(query, parameters)
    for row in inputs.warm[: len(trained)].tolist():
        with tracer.span("bypass_registry.mopt"):
            registry.mopt(None, inputs.corpus[row])
        with tracer.span("core.mopt"):
            tree.mopt(inputs.corpus[row])
    registry.close()
    inner = tracer.median_us("core.mopt") + tracer.median_us("core.insert")
    outer = tracer.median_us("bypass_registry.mopt") + tracer.median_us("bypass_registry.insert")
    return {
        "feedback.run_loop_ms": tracer.median_us("feedback.run_loop") / 1e3,
        "feedback.compute_new_state_us": tracer.median_us("feedback.compute_new_state"),
        "bypass_registry.mopt_us": tracer.median_us("bypass_registry.mopt"),
        "bypass_registry.insert_us": tracer.median_us("bypass_registry.insert"),
        "bypass_registry.self_share": 1.0 - inner / outer,
        "core.mopt_us": tracer.median_us("core.mopt"),
        "core.insert_us": tracer.median_us("core.insert"),
    }


def probe_front_ends(tracer: Tracer, workload, inputs, replay: Replay) -> dict:
    """Loopback round trips through both front ends, the client and the pool.

    Runs on ``serve_small`` only: client and server share this process's GIL
    here, so the numbers rank the front ends against each other and say
    nothing about the served run.
    """
    names = (
        "protocol.ping_roundtrip_us", "client.call_overhead_us", "pool.lease_us",
        "async_server.ping_roundtrip_us", "async_server.search_roundtrip_us",
        "scheduler.frontier_loop_ms", "scheduler.frontier_batches",
    )
    if workload.name != "serve_small":
        return {name: 0.0 for name in names}
    engine, query, k = replay.engine, inputs.queries[0], workload.k
    with RetrievalServer(engine) as server, ServingClient(*server.address) as client:
        tracer.time("protocol.ping", client.ping, 200)
        tracer.time("client.search", lambda: client.search(query, k), 200)
        with PooledServingClient(*server.address) as pool:
            for _ in range(200):
                with tracer.span("pool.lease"):
                    with pool.lease():
                        pass
    with AsyncRetrievalServer(engine) as server, ServingClient(*server.address) as client:
        tracer.time("async_server.ping", client.ping, 200)
        tracer.time("async_server.search", lambda: client.search(query, k), 200)
    rows = np.flatnonzero(inputs.labels == inputs.labels[0])[:32]
    requests = [
        LoopRequest(inputs.corpus[row], k, CategoryJudge(inputs.labels, str(inputs.labels[row])))
        for row in rows.tolist()
    ]
    batches_before = engine.stats()["frontier_batches"]
    tracer.time("scheduler.frontier_loops", lambda: LoopScheduler(FeedbackEngine(engine)).run(requests), 1)
    return {
        "protocol.ping_roundtrip_us": tracer.median_us("protocol.ping"),
        "client.call_overhead_us": tracer.median_us("client.search") - tracer.median_us("request:search"),
        "pool.lease_us": tracer.median_us("pool.lease"),
        "async_server.ping_roundtrip_us": tracer.median_us("async_server.ping"),
        "async_server.search_roundtrip_us": tracer.median_us("async_server.search"),
        "scheduler.frontier_loop_ms": tracer.median_us("scheduler.frontier_loops") / 1e3,
        "scheduler.frontier_batches": float(engine.stats()["frontier_batches"] - batches_before),
    }


def probe_alternatives(tracer: Tracer, workload, inputs) -> dict:
    """The engines the default path does not use, on ``serve_large``'s own batch."""
    names = (
        "vptree.build_s", "vptree.batch_ms", "mtree.build_s", "mtree.batch_ms",
        "mtree.distance_computations", "sharding.serial_batch_ms", "sharding.thread_batch_ms",
        "sharding.process_batch_ms", "sharding.process_setup_s",
        "budget.sufficient_overhead_ratio", "budget.recall_at_5pct",
    )
    if workload.name != "serve_large":
        return {name: 0.0 for name in names}
    queries, k = inputs.queries[: workload.batch_rows], workload.k
    full = FeatureCollection(inputs.corpus)
    small = FeatureCollection(inputs.corpus[:TREE_ROWS])
    distance = WeightedEuclideanDistance.default(full.dimension)
    vptree = tracer.time("vptree.build", lambda: VPTreeIndex(small, distance), 1)
    tracer.time("vptree.batch", lambda: vptree.search_batch(queries, k), 1)
    mtree = tracer.time("mtree.build", lambda: MTreeIndex(small, distance), 1)
    built = mtree.distance_computations
    tracer.time("mtree.batch", lambda: mtree.search_batch(queries, k), 1)
    metrics = {
        "vptree.build_s": tracer.median_us("vptree.build") / 1e6,
        "vptree.batch_ms": tracer.median_us("vptree.batch") / 1e3,
        "mtree.build_s": tracer.median_us("mtree.build") / 1e6,
        "mtree.batch_ms": tracer.median_us("mtree.batch") / 1e3,
        "mtree.distance_computations": float(mtree.distance_computations - built),
    }
    for label, options in (
        ("serial", {"n_workers": 1}),
        ("thread", {"n_workers": 2}),
        ("process", {"n_workers": 2, "backend": "process"}),
    ):
        with tracer.span(f"sharding.{label}_setup"):
            sharded = ShardedEngine(full, 2, **options)
        try:
            sharded.search_batch(queries, k)
            tracer.time(f"sharding.{label}_batch", lambda: sharded.search_batch(queries, k), 5)
        finally:
            sharded.close()
        metrics[f"sharding.{label}_batch_ms"] = tracer.median_us(f"sharding.{label}_batch") / 1e3
    metrics["sharding.process_setup_s"] = tracer.median_us("sharding.process_setup") / 1e6
    engine = RetrievalEngine(full)
    exact = tracer.time("budget.none", lambda: engine.search_batch(queries, k), 5)
    cells = full.size * queries.shape[0]
    tracer.time("budget.sufficient", lambda: engine.search_batch(queries, k, budget=Budget(max_rows=cells)), 5)
    partial = engine.search_batch(queries, k, budget=Budget(max_rows=cells // 20))
    metrics["budget.sufficient_overhead_ratio"] = tracer.median_us("budget.sufficient") / tracer.median_us("budget.none")
    metrics["budget.recall_at_5pct"] = float(
        sum(np.intersect1d(a.indices(), b.indices()).shape[0] for a, b in zip(exact, partial))
    )
    return metrics


def run_traced(workload, inputs, out_dir: str) -> dict:
    """Replay, probe every layer, write the span file; returns the per-layer metrics."""
    untraced_s = Replay(workload, inputs, Tracer(enabled=False)).run()
    tracer = Tracer()
    replay = Replay(workload, inputs, tracer)
    traced_s = replay.run()
    metrics = {
        "codec.request_encode_us": tracer.median_us("codec.request_encode"),
        "codec.request_decode_us": tracer.median_us("codec.request_decode"),
        "codec.response_encode_us": tracer.median_us("codec.response_encode"),
        "codec.response_decode_us": tracer.median_us("codec.response_decode"),
        "codec.request_bytes": float(replay.request_bytes),
        "codec.response_bytes": float(replay.response_bytes),
        "server.respond_self_us": statistics.median(tracer.self_us("server.respond")),
        "sessions.open_us": tracer.median_us("server.respond:session_open"),
        "sessions.feedback_us": tracer.median_us("server.respond:session_feedback"),
        "sessions.close_us": tracer.median_us("server.respond:session_close"),
        "distances.flops": float(replay.flops),
        "segments.delta_rows_mean": float(np.mean(replay.delta_rows)) if replay.delta_rows else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    # The span file holds the replay only: its spans nest under one root per
    # request, and each root's self times sum to the root.
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{workload.name}.json"))
    metrics.update(probe_query_path(tracer, workload, inputs, replay))
    metrics.update(probe_segments(tracer, workload, inputs))
    metrics.update(probe_bypass(tracer, workload, inputs, replay))
    metrics.update(probe_front_ends(tracer, workload, inputs, replay))
    metrics.update(probe_alternatives(tracer, workload, inputs))
    return metrics
