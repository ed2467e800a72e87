"""The closed-loop load generator and the server child it drives.

One process, C = min(nproc, 4) threads, one ``ServingClient`` connection per
thread, zero think time: each thread sends its next request only after the
previous answer arrived — interactive users wait for their results before
acting, so a closed loop is the honest model.  Stream index ``i`` always
belongs to connection ``i mod C``, which makes every connection's own op
sequence (and so its insert/delete bookkeeping) a function of the seed alone.

Responses are only recorded inside the timed phase; checking them is the
oracle's job, after the clock has stopped.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from bench import oracle
from bench.workloads import DELETE, INSERT, SEARCH, WRITE_ROWS
from repro.evaluation.simulated_user import CategoryJudge
from repro.feedback.scores import JudgmentBatch
from repro.serving import ProtocolError, ServingClient, ServingError
from repro.utils.validation import ValidationError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONNECTIONS = min(os.cpu_count() or 1, 4)

#: A request that has not answered after this long counts as failed.
REQUEST_TIMEOUT_S = 10.0

#: Bounded waits of the server child's lifecycle.
READY_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 15.0

#: Length of one slice of the measured phase.
SLICE_S = 1.0

#: A slice slower than this share of the run's fast slices is a disturbed one.
DISTURBED_SHARE = 0.87

#: Fewer undisturbed slices than this and the run is marked ``unstable``.
MIN_CALM_SLICES = 3

_REQUEST_ERRORS = (ServingError, ValidationError, ProtocolError, OSError)


def load_definitions() -> dict:
    """``BENCHMARK.json``: the names, units and bounds the benchmark must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class ServerProcess:
    """The server child: spawn, wait for ``READY``, and always reap.

    ``setup_s`` is spawn -> first successful ``ping``: interpreter start,
    loading the ``.npz``, building collection, engine and server, and the
    child's sixteen warm-up requests.
    """

    def __init__(self, spec_path: str) -> None:
        env = dict(os.environ)
        source = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        started = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "bench.server_main", spec_path],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            ready, _, _ = select.select([self._process.stdout], [], [], READY_TIMEOUT_S)
            line = self._process.stdout.readline().split() if ready else []
            if len(line) != 2 or line[0] != b"READY":
                raise RuntimeError(f"the server child did not come up (said {line!r})")
            self.address = ("127.0.0.1", int(line[1]))
            with self.connect() as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.pid = self._process.pid

    def connect(self) -> ServingClient:
        return ServingClient(*self.address, timeout=REQUEST_TIMEOUT_S)

    def cpu_seconds(self) -> float:
        """User + system CPU of the whole child so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The child's resident-set high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close stdin (the child's cue to drain and exit), then reap; kill if slow."""
        process = self._process
        for pipe in (process.stdin, process.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            process.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=EXIT_TIMEOUT_S)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def calibrate() -> dict:
    """Fixed work, timed: tells a slower box from a slower program.

    Three footprints, because the box's slow spells hit them differently: an
    L1-resident interpreter loop, a cache-resident BLAS product, and a 64 MB
    stream that only memory bandwidth can feed.
    """
    matrix = np.random.default_rng(0).standard_normal((384, 384))
    stream = np.ones(1 << 23)

    def python_loop() -> None:
        total = 0
        for value in range(300_000):
            total += value * value

    def blas() -> None:
        for _ in range(8):
            matrix @ matrix

    def best_ms(work) -> float:
        samples = []
        for _ in range(3):
            started = time.perf_counter()
            work()
            samples.append(time.perf_counter() - started)
        return min(samples) * 1e3

    return {
        "py_loop_ms": best_ms(python_loop),
        "blas_ms": best_ms(blas),
        "stream_ms": best_ms(stream.sum),
    }


@dataclass
class Record:
    """One completed (or failed) op of the timed phase."""

    index: int  # stream index
    kind: str  # "search" | "insert" | "delete" | "session"
    start_ns: int
    end_ns: int
    weight: int = 1  # query rows the op answered
    ok: bool = True
    payload: object = None  # what the oracle needs; kept for sampled ops only


@dataclass
class Connection:
    """One closed-loop client thread's state across phases."""

    number: int
    client: ServingClient
    own: deque = field(default_factory=deque)  # live: (id, row) of rows this connection inserted
    probe: object = None  # live: (query, "present" | "absent", id) for the next search
    judge_ns: int = 0  # interactive: time spent in the client-side judge


class Driver:
    """Executes stream ops of one workload on a connection."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.session_rows = inputs.warm  # swapped to inputs.cold for the cold phase
        self.cold_set = frozenset(inputs.cold.tolist())

    def execute(self, connection: Connection, position: int) -> Record:
        if self.workload.live:
            return self._live_op(connection, position % self.workload.stream_ops)
        if self.workload.cold_sessions:
            return self._session(connection, position % self.session_rows.shape[0])
        return self._search(connection, position % self.workload.stream_ops)

    def _search(self, connection: Connection, index: int) -> Record:
        width = self.workload.batch_rows
        rows = self.inputs.queries[index * width : (index + 1) * width]
        started = time.perf_counter_ns()
        if width == 1:
            results = [connection.client.search(rows[0], self.workload.k)]
        else:
            results = connection.client.search_batch(rows, self.workload.k)
        ended = time.perf_counter_ns()
        sampled = index % self.workload.oracle_stride == 0
        return Record(index, "search", started, ended, width, payload=results if sampled else None)

    def _live_op(self, connection: Connection, index: int) -> Record:
        inputs, client = self.inputs, connection.client
        kind = int(inputs.kinds[index])
        if kind == DELETE and len(connection.own) < WRITE_ROWS:
            kind = INSERT  # nothing of its own to delete yet
        if kind == SEARCH:
            probe, connection.probe = connection.probe, None
            query = inputs.queries[index] if probe is None else probe[0]
            started = time.perf_counter_ns()
            result = client.search(query, self.workload.k)
            ended = time.perf_counter_ns()
            keep = probe is not None or index % self.workload.oracle_stride == 0
            payload = (query, result, None if probe is None else probe[1:]) if keep else None
            return Record(index, "search", started, ended, payload=payload)
        if kind == INSERT:
            slot = int(inputs.write_slot[index])
            rows = inputs.write_rows[slot * WRITE_ROWS : (slot + 1) * WRITE_ROWS]
            started = time.perf_counter_ns()
            ids = client.insert(rows)
            ended = time.perf_counter_ns()
            connection.own.extend(zip(ids.tolist(), rows))
            connection.probe = (rows[0], "present", int(ids[0]))
            return Record(index, "insert", started, ended, payload=(ids, rows))
        victims = [connection.own.popleft() for _ in range(WRITE_ROWS)]
        ids = np.array([identifier for identifier, _ in victims], dtype=np.int64)
        started = time.perf_counter_ns()
        count = client.delete(ids)
        ended = time.perf_counter_ns()
        connection.probe = (victims[0][1], "absent", int(ids[0]))
        return Record(index, "delete", started, ended, ok=count == WRITE_ROWS, payload=ids)

    def _session(self, connection: Connection, index: int) -> Record:
        """The paper's interactive session: predict, search, judge rounds, train."""
        inputs, client, k = self.inputs, connection.client, self.workload.k
        row = int(self.session_rows[index])
        query = inputs.corpus[row]
        judge = CategoryJudge(inputs.labels, str(inputs.labels[row]))
        judge_ns = 0
        started = time.perf_counter_ns()
        prediction = client.bypass_mopt(query)
        opened = client.open_session(
            query, k, initial_delta=prediction.delta, initial_weights=prediction.weights
        )
        first_ns = time.perf_counter_ns()
        first_results = results = opened["results"]
        done = opened["done"]
        while not done:
            judge_started = time.perf_counter_ns()
            judgments = JudgmentBatch.from_judgments(judge(results))
            judge_ns += time.perf_counter_ns() - judge_started
            reply = client.session_feedback(opened["session_id"], judgments.indices, judgments.scores)
            if reply["results"] is not None:
                results = reply["results"]
            done = reply["done"]
        loop = client.close_session(opened["session_id"])
        optimal = loop.optimal_parameters(query)
        if loop.iterations or not optimal.is_default():
            # The evaluation session's insert policy: a loop with no feedback
            # signal at all stores nothing.
            client.bypass_insert(query, optimal)
        ended = time.perf_counter_ns()
        connection.judge_ns += judge_ns
        payload = {
            "row": row,
            "fresh": row not in self.cold_set,
            "first_ms": (first_ns - started) / 1e6,
            "iterations": loop.iterations,
            "precision": float(np.mean(inputs.labels[first_results.indices()] == inputs.labels[row])),
        }
        if index % self.workload.oracle_stride == 0:
            payload.update(prediction=prediction, loop=loop)
        return Record(index, "session", started, ended, payload=payload)


def run_phase(server, driver, connections, first: int, count, deadline_s):
    """Drive one closed-loop phase; returns its records and its clock samples.

    Connection ``c`` executes positions ``first + c, first + c + C, ...`` —
    below ``first + count`` when ``count`` is given, until ``deadline_s``
    seconds have passed when that is given.  While the connections work, this
    thread samples ``(time, server CPU)`` once per ``SLICE_S``: consecutive
    samples bound the slices every timing metric is computed from.
    """
    records: "list[list[Record]]" = [[] for _ in connections]
    barrier = threading.Barrier(len(connections) + 1)
    stride = len(connections)
    window = {}

    def client_main(connection: Connection) -> None:
        mine = records[connection.number]
        position = first + connection.number
        barrier.wait()
        stop_ns = None if deadline_s is None else window["start"] + int(deadline_s * 1e9)
        while count is None or position < first + count:
            started = time.perf_counter_ns()
            if stop_ns is not None and started >= stop_ns:
                break
            try:
                mine.append(driver.execute(connection, position))
            except _REQUEST_ERRORS:
                mine.append(Record(position, "failed", started, time.perf_counter_ns(), ok=False))
                # The conversation is in an unknown state: start a fresh one.
                connection.client.close()
                try:
                    connection.client = server.connect()
                except OSError:
                    break  # the server is gone; what was attempted stays counted
            position += stride

    threads = [
        threading.Thread(target=client_main, args=(connection,), daemon=True)
        for connection in connections
    ]
    for thread in threads:
        thread.start()
    window["start"] = time.perf_counter_ns()
    clock = [(window["start"], server.cpu_seconds())]
    barrier.wait()
    while any(thread.is_alive() for thread in threads):
        next_tick = clock[-1][0] + int(SLICE_S * 1e9)
        threads[0].join(timeout=max(0.0, (next_tick - time.perf_counter_ns()) / 1e9))
        if time.perf_counter_ns() >= next_tick:
            clock.append((time.perf_counter_ns(), server.cpu_seconds()))
    for thread in threads:
        thread.join()
    clock.append((time.perf_counter_ns(), server.cpu_seconds()))
    merged = sorted((record for mine in records for record in mine), key=lambda r: r.end_ns)
    return merged, clock


def percentile(samples, share: float) -> float:
    return float(np.percentile(samples, share)) if len(samples) else 0.0


@dataclass
class Slice:
    """What completed between two consecutive clock samples."""

    seconds: float
    cpu_seconds: float  # server CPU spent
    records: list  # ops of any kind that completed in it
    primary: list  # the successful primary-kind ones among them

    @property
    def rate(self) -> float:
        return sum(record.weight for record in self.primary) / self.seconds


def cut_slices(records, clock, primary_kind: str) -> "list[Slice]":
    """Cut the phase at its clock samples; a short tail joins the slice before it."""
    edges = [sample[0] for sample in clock]
    if len(edges) > 2 and edges[-1] - edges[-2] < SLICE_S * 0.5e9:
        del edges[-2], clock[-2]
    ends = np.array([record.end_ns for record in records])
    bounds = np.searchsorted(ends, edges[1:-1], side="left").tolist()
    slices = []
    for number, (low, high) in enumerate(zip([0] + bounds, bounds + [len(records)])):
        members = records[low:high]
        slices.append(
            Slice(
                seconds=(edges[number + 1] - edges[number]) / 1e9,
                cpu_seconds=clock[number + 1][1] - clock[number][1],
                records=members,
                primary=[r for r in members if r.ok and r.kind == primary_kind],
            )
        )
    return slices


def undisturbed(slices: "list[Slice]") -> "list[Slice]":
    """The slices in which the box ran at its undisturbed speed.

    The recording box flips between two speed states about 1.3x apart every
    five to ten seconds with no code change (``bench/README.md``), so a
    statistic over a whole run lands wherever the flips put it.  Slices whose
    primary rate is within ``DISTURBED_SHARE`` of the run's 90th-percentile
    slice rate are the undisturbed ones; every timing metric is computed over
    their pooled samples.
    """
    reference = float(np.percentile([piece.rate for piece in slices], 90))
    return [piece for piece in slices if piece.rate >= DISTURBED_SHARE * reference]


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def latencies_ms(records, kind: str) -> "list[float]":
    return [(r.end_ns - r.start_ns) / 1e6 for r in records if r.ok and r.kind == kind]


def balanced_p50_ms(records, kind: str) -> float:
    """Median latency of the ``kind`` ops; over classes of ops, the mean of their medians.

    An interactive session on a repeated image takes 1 feedback cycle and one
    on a fresh image 5, so their pooled latencies are bimodal (modes 2.5x
    apart) and the pooled median sits in the gap between the modes, where it
    jumps with the mix that happened to complete.  Each class's own median is
    steady, and the stream fixes the classes' shares at one half each.
    """
    classes: "dict[object, list[Record]]" = {}
    for record in records:
        if record.ok and record.kind == kind:
            label = record.payload["fresh"] if kind == "session" else None
            classes.setdefault(label, []).append(record)
    medians = [percentile(latencies_ms(members, kind), 50) for members in classes.values()]
    return float(np.mean(medians)) if medians else 0.0


def write_server_spec(workload, inputs, seed: int, out_dir: str) -> str:
    """Hand the generated corpus to the server child as files; returns the spec path."""
    os.makedirs(out_dir, exist_ok=True)
    inputs_path = os.path.join(out_dir, f"inputs-{workload.name}-{seed}.npz")
    arrays = {"corpus": inputs.corpus}
    if inputs.labels is not None:
        arrays["labels"] = inputs.labels
    np.savez(inputs_path, **arrays)
    spec_path = os.path.join(out_dir, f"server-{workload.name}-{seed}.json")
    with open(spec_path, "w") as handle:
        json.dump(
            {
                "inputs": inputs_path,
                "live": workload.live,
                "k": workload.k,
                "server_config": workload.server_config,
            },
            handle,
        )
    return spec_path


def run_served(workload, inputs, seed: int, out_dir: str, *, seconds, setups: int) -> dict:
    """One end-to-end run of ``workload``: set up, warm up, measure, check.

    ``seconds=None`` is the fixed-op-count mode (``--smoke``): the measured
    phase runs the whole generated stream once, so op counts repeat exactly.
    ``setups`` servers are started in all — the one that serves the run, the
    others before and after it — and ``setup_s`` is the fastest of them.
    """
    spec_path = write_server_spec(workload, inputs, seed, out_dir)
    setup_samples = []
    extra_before = (setups - 1) // 2

    def rehearse(times: int) -> None:
        for _ in range(times):
            with ServerProcess(spec_path) as rehearsal:
                setup_samples.append(rehearsal.setup_s)

    rehearse(extra_before)
    with ServerProcess(spec_path) as server:
        setup_samples.append(server.setup_s)
        driver = Driver(workload, inputs)
        connections = [Connection(number, server.connect()) for number in range(CONNECTIONS)]
        control = server.connect()
        try:
            cold_iterations, warmup = None, []
            if workload.cold_sessions:
                # The cold phase trains an empty tree on distinct images; it is
                # the warm-up of this workload and the baseline of its oracle.
                driver.session_rows = inputs.cold
                cold, _ = run_phase(server, driver, connections, 0, workload.cold_sessions, None)
                sessions = [record for record in cold if record.ok]
                cold_iterations = float(np.mean([r.payload["iterations"] for r in sessions]))
                driver.session_rows = inputs.warm
                for connection in connections:
                    connection.judge_ns = 0
            elif workload.warmup_ops:
                warmup, _ = run_phase(server, driver, connections, 0, workload.warmup_ops, None)
            count = None if seconds is not None else workload.stream_ops - workload.warmup_ops
            # Memory is read after a fixed amount of work (the warm-up), not
            # after however many ops the box managed in --seconds.
            rss_mb = server.peak_rss_mb()
            stats_before = control.stats()
            own_cpu_before = time.process_time()
            records, clock = run_phase(
                server, driver, connections, workload.warmup_ops, count, seconds
            )
            own_cpu_after = time.process_time()
            stats_after = control.stats()
            rss_end_mb = server.peak_rss_mb()
            tree = control.bypass_stats(tenant="public") if workload.cold_sessions else {}
            corpus = control.corpus_stats() if workload.live else {}
            verdict = oracle.check(
                workload, inputs, records, control,
                warmup_records=warmup, cold_iterations=cold_iterations,
            )
        finally:
            for client in [control] + [connection.client for connection in connections]:
                client.close()
    rehearse(setups - 1 - extra_before)

    primary_kind = "session" if workload.cold_sessions else "search"
    slices = cut_slices(records, clock, primary_kind)
    calm = undisturbed(slices)
    calm_records = [record for piece in calm for record in piece.records]
    calm_seconds = sum(piece.seconds for piece in calm)
    latencies = latencies_ms(calm_records, primary_kind)
    wall_s = (clock[-1][0] - clock[0][0]) / 1e9
    coalescer = {
        name: stats_after["coalescer"][name] - stats_before["coalescer"][name]
        for name in ("dispatches", "dispatched_rows", "solo_dispatches")
    }
    kinds = {}
    for record in records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    errors = sum(not record.ok for record in records)
    failed = errors + verdict["failed"]
    end_to_end = {
        "setup_s": min(setup_samples),
        "primary_per_s": sum(r.weight for piece in calm for r in piece.primary) / calm_seconds,
        "primary_p50_ms": balanced_p50_ms(calm_records, primary_kind),
        "server_cpu_ms_per_op": sum(piece.cpu_seconds for piece in calm)
        * 1e3
        / max(1, sum(record.ok for record in calm_records)),
        "server_rss_mb": rss_mb,
    }
    writes = latencies_ms(calm_records, "insert")
    sessions = [r.payload for r in records if r.ok] if workload.cold_sessions else []
    fresh = [payload["precision"] for payload in sessions if payload["fresh"]]
    first_ms = [r.payload["first_ms"] for r in calm_records if r.ok] if sessions else []
    rates = [piece.rate for piece in slices]
    served = {
        "server_rss_end_mb": rss_end_mb,
        "primary_p95_ms": percentile(latencies, 95),
        "primary_p99_ms": percentile(latencies, 99),
        "primary_per_s_all_slices": statistics.median(rates),
        "primary_rate_slice_spread": quartile_spread(rates),
        "undisturbed_slices": float(len(calm)),
        "first_result_p50_ms": percentile(first_ms, 50),
        "session_iterations_mean": float(np.mean([p["iterations"] for p in sessions])) if sessions else 0.0,
        "first_round_precision": float(np.mean(fresh)) if fresh else 0.0,
        "write_p50_ms": percentile(writes, 50),
        "write_p95_ms": percentile(writes, 95),
        "failed_share": failed / max(1, len(records)),
        "coalescer.rows_per_dispatch": coalescer["dispatched_rows"] / max(1, coalescer["dispatches"]),
        "coalescer.solo_share": coalescer["solo_dispatches"] / max(1, coalescer["dispatches"]),
        "loadgen.cpu_share": (own_cpu_after - own_cpu_before) / wall_s,
        "loadgen.judge_us": sum(c.judge_ns for c in connections) / 1e3 / max(1, len(sessions)),
        "server.errors": float(errors),
        "feedback.cold_iterations_mean": cold_iterations or 0.0,
        "bypass_registry.n_applied": float(tree.get("n_applied", 0)),
        "core.n_simplices": float(tree.get("n_simplices", 0)),
        "core.depth": float(tree.get("depth", 0)),
        "core.traversal_length": float(tree.get("average_traversal_length", 0)),
        "segments.compactions": float(corpus.get("compactions", 0)),
        "segments.tombstones_end": float(corpus.get("tombstones", 0)),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "connections": CONNECTIONS,
        "measured_s": wall_s,
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and not verdict["problems"],
        "problems": verdict["problems"],
        # Too few undisturbed slices: the box was slow for nearly the whole
        # run and the timing metrics rest on too little.
        "unstable": seconds is not None and len(calm) < MIN_CALM_SLICES,
        "ops_by_kind": kinds,
        "latency_samples": len(latencies),
        "setup_samples": setup_samples,
        "slice_rates": rates,
        "end_to_end": end_to_end,
        "served": served,
        "oracle_checked": verdict["checked"],
    }
