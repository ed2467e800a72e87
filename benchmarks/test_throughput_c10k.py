"""C10K connection scaling of the async serving front end.

PR 7 put the serving layer on an event loop: the threaded front end pays a
stack and a scheduler slot per connection, the async one pays a heap object
and an epoll registration, and this benchmark measures the difference at
the C10K shape — thousands of idle handshaken connections parked on the
loop while hundreds of hot clients pump coalesced queries through it.

Three phases, one shared engine:

1. ``compare-threaded`` — ``N_COMPARE_CLIENTS`` concurrent clients against
   the threaded :class:`~repro.serving.server.RetrievalServer` (the PR 5
   baseline).
2. ``compare-async`` — the same clients, same query stream, against
   :class:`~repro.serving.async_server.AsyncRetrievalServer`.  The
   acceptance bar: the event-loop front end must not tax the hot path.
3. ``c10k-async`` — ``N_IDLE`` idle connections parked on the async server
   while ``N_HOT`` hot clients issue the stream; every idle connection is
   pinged afterwards and must still answer.

Every served result is checked byte-identical against the local engine
(the serving contract), and the coalescer must demonstrably merge the hot
load (dispatches well under one per request).  As with the other serving
bars, per-request socket work is GIL-bound, so the full parity bar is
enforced on machines with at least ``N_COMPARE_CLIENTS`` cores and reduced
to a no-pathological-slowdown floor on smaller boxes — byte identity and
idle survival are enforced everywhere.

The numbers land in three places: pytest-benchmark's report, the rendered
series under ``benchmarks/results/``, and a ``connection_scaling`` section
merged into the current commit's entry of ``BENCH_throughput.json`` (the
trajectory ``benchmarks/generate_figures.py`` renders).

Scale knobs: ``REPRO_C10K_IDLE`` / ``REPRO_C10K_HOT`` override the
connection counts (CI's nightly job runs the full 2000/100 shape; a quick
local check might run ``REPRO_C10K_IDLE=200 REPRO_C10K_HOT=20``).
"""

import os

import pytest

from benchmarks.conftest import BENCH_SEED, write_series
from benchmarks.record import _git_key, update_section
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.evaluation.reporting import render_connection_scaling
from repro.evaluation.throughput import measure_connection_scaling
from repro.features.datasets import build_imsi_like_dataset
from repro.features.normalization import drop_last_bin
from repro.utils.rng import derive_seed, ensure_rng

K = 50
N_QUERIES = 128

#: The C10K shape: thousands of parked connections, hundreds of hot ones.
N_IDLE = int(os.environ.get("REPRO_C10K_IDLE", "2000"))
N_HOT = int(os.environ.get("REPRO_C10K_HOT", "100"))

#: Hot clients in the threaded-vs-async comparison phases — matches the
#: serving benchmark's client count so the two bars are comparable.
N_COMPARE_CLIENTS = 4

#: Requests per hot client in the C10K phase.
REQUESTS_PER_HOT = 10

#: Window cap and gather wait for the hot phases (same shape as
#: benchmarks/test_throughput_serving.py: the window seals when the batch
#: fills, the wait lets near-simultaneous arrivals join it).
MAX_BATCH = 64
MAX_WAIT = 0.0005

#: Floor applied on machines too small for the parity bar: moving the hot
#: path onto the event loop must never cost more than ~25% against the
#: threaded front end (loop bookkeeping has to stay small next to the
#: dispatch), even where the GIL serializes everything.
DEGRADATION_FLOOR = 0.75

#: File descriptors needed beyond the idle swarm (hot clients, listener,
#: dispatch plumbing, pytest's own files).
_FD_MARGIN = 512


def _fit_idle_to_rlimit(n_idle: int) -> int:
    """Raise ``RLIMIT_NOFILE`` toward the hard limit; scale ``n_idle`` to fit.

    Each idle connection costs two descriptors in this process (the client
    socket and the server's accepted socket).  Platforms without the
    ``resource`` module just run the requested shape.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return n_idle
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    needed = 2 * n_idle + _FD_MARGIN
    if soft < needed:
        target = needed if hard == resource.RLIM_INFINITY else min(needed, hard)
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
            soft = target
        except (ValueError, OSError):  # pragma: no cover - restricted env
            pass
    if soft < needed:
        fitted = max((soft - _FD_MARGIN) // 2, 64)
        print(
            f"[c10k] RLIMIT_NOFILE {soft} cannot hold {n_idle} idle connections; "
            f"scaled down to {fitted}"
        )
        return fitted
    return n_idle


@pytest.fixture(scope="module")
def c10k_scale_dataset():
    """An 8x-scale IMSI-like corpus (~30k vectors) — the serving workload."""
    return build_imsi_like_dataset(scale=8.0, seed=BENCH_SEED)


def run_experiment(dataset):
    collection = FeatureCollection(
        drop_last_bin(dataset.features), labels=[record.category for record in dataset.records]
    )
    rng = ensure_rng(derive_seed(BENCH_SEED, "throughput_c10k"))
    queries = collection.vectors[rng.integers(0, collection.size, size=N_QUERIES)]
    engine = RetrievalEngine(collection)
    n_idle = _fit_idle_to_rlimit(N_IDLE)
    result = measure_connection_scaling(
        engine,
        queries,
        K,
        n_idle=n_idle,
        n_hot=N_HOT,
        n_compare_clients=N_COMPARE_CLIENTS,
        requests_per_hot=REQUESTS_PER_HOT,
        max_batch=MAX_BATCH,
        max_wait=MAX_WAIT,
        repeats=2,
    )
    return result, collection.size


def _trajectory_section(result, cores: int) -> dict:
    """The ``connection_scaling`` payload merged into BENCH_throughput.json."""
    return {
        "n_idle": int(result.n_idle),
        "n_hot": int(result.n_hot),
        "n_compare_clients": int(result.n_compare_clients),
        "idle_alive": int(result.idle_alive),
        "cores": int(cores),
        "threaded_qps": round(result.threaded_qps, 1),
        "async_qps": round(result.async_qps, 1),
        "hot_qps": round(result.hot_qps, 1),
        "async_vs_threaded": round(result.async_vs_threaded, 2),
        "dispatch_share": round(result.dispatch_share, 3),
        "latency_ms": {
            mode: {"p50": round(summary.p50_ms, 3), "p99": round(summary.p99_ms, 3)}
            for mode, summary in result.latencies.items()
        },
    }


def test_throughput_c10k(benchmark, c10k_scale_dataset, results_dir, trajectory_path):
    result, corpus_size = benchmark.pedantic(
        run_experiment, args=(c10k_scale_dataset,), rounds=1, iterations=1
    )
    cores = os.cpu_count() or 1
    text = (
        f"C10K connection scaling (corpus = {corpus_size} vectors, k = {K}, "
        f"{cores} cores available)\n" + render_connection_scaling(result)
    )
    write_series(results_dir, "throughput_c10k", text)
    update_section("connection_scaling", _trajectory_section(result, cores), _git_key(), trajectory_path)

    benchmark.extra_info["threaded_qps"] = float(result.threaded_qps)
    benchmark.extra_info["async_qps"] = float(result.async_qps)
    benchmark.extra_info["hot_qps"] = float(result.hot_qps)
    benchmark.extra_info["async_vs_threaded"] = float(result.async_vs_threaded)
    benchmark.extra_info["idle_alive"] = int(result.idle_alive)
    benchmark.extra_info["n_idle"] = int(result.n_idle)
    benchmark.extra_info["dispatch_share"] = float(result.dispatch_share)
    benchmark.extra_info["cores"] = int(cores)

    # The exactness half of the serving contract, always enforced: every
    # response from either front end must equal the local engine's bytes.
    assert result.identical_results
    # The C10K half: every parked connection survives the hot phase and
    # still answers a ping afterwards — no handler starvation, no reaped
    # sockets, no event-loop stalls long enough to kill a keepalive.
    assert result.idle_alive == result.n_idle, (
        f"only {result.idle_alive} of {result.n_idle} idle connections survived"
    )
    # And the coalescer must keep merging under the C10K load: far fewer
    # engine dispatches than hot requests.
    assert result.dispatch_share < 1.0, (
        f"no coalescing under load ({result.hot_dispatches} dispatches "
        f"for {result.hot_requests} requests)"
    )

    if cores >= N_COMPARE_CLIENTS:
        # Acceptance bar of the async front end: at N_COMPARE_CLIENTS hot
        # clients the event loop serves no slower than a thread per
        # connection (small tolerance for run-to-run jitter).
        assert result.async_vs_threaded >= 0.95, (
            f"async front end {result.async_vs_threaded:.2f}x of threaded "
            f"qps, below the parity bar"
        )
    else:
        # Too few cores for the stated bar; enforce that the event loop at
        # least does not pathologically degrade the hot path.
        assert result.async_vs_threaded >= DEGRADATION_FLOOR, (
            f"async front end degraded throughput to "
            f"{result.async_vs_threaded:.2f}x of threaded "
            f"(floor {DEGRADATION_FLOOR}x) on a {cores}-core machine"
        )
