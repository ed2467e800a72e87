"""Live-corpus mutation economics at the 50k scale-lab slice.

PR 9 made the corpus mutable: a
:class:`~repro.database.segments.LiveCollection` composes an immutable
indexed base with append-only deltas and tombstones, so a write costs
O(delta) instead of the full rebuild a frozen corpus forces.  This
benchmark holds the three bars on the scale lab's 50k-row clustered
corpus:

* **Write cost** — a single-row live insert is at least 10x cheaper than
  rebuild-per-write (re-copying the matrix and re-materialising the
  workspace), enforced unconditionally: the gap is O(1) amortised vs
  O(corpus) and grows with the corpus.
* **Read cost under writes** — a 90/10 read/write mix on the live engine
  keeps a measured floor of the frozen engine's read-only qps (the
  composition adds one delta-segment scan and an exact merge per block).
* **Compaction off the hot path** — reads keep completing *while* a
  background fold runs (zero completions would mean the fold stalls
  dispatch), and every read in every phase is byte-identical to the
  frozen reference.

The numbers land in pytest-benchmark's report, the rendered series under
``benchmarks/results/``, and a ``live_mutation`` section merged into the
current commit's entry of ``BENCH_throughput.json`` (rendered to SVG by
``benchmarks/generate_figures.py live_mutation``).

Scale knobs: ``REPRO_LIVE_N`` / ``REPRO_LIVE_QUERIES`` override the
corpus height and query count.
"""

import os

import pytest

from benchmarks.conftest import write_series
from benchmarks.record import _git_key, update_section
from benchmarks.scale_lab import SCALE_LAB_SEED
from repro.evaluation.reporting import render_live_mutation
from repro.evaluation.throughput import measure_live_mutation
from repro.features.synthetic import build_clustered_corpus, sample_queries

N_VECTORS = int(os.environ.get("REPRO_LIVE_N", "50000"))
DIMENSION = 64
N_QUERIES = int(os.environ.get("REPRO_LIVE_QUERIES", "256"))
K = 10

#: Conservative floor for mixed-traffic read throughput vs read-only
#: frozen: each mixed block pays the delta-segment scan, the exact
#: cross-segment merge and its share of the interleaved writes.
MIXED_QPS_FLOOR = 0.3


@pytest.fixture(scope="module")
def live_corpus():
    return build_clustered_corpus(N_VECTORS, DIMENSION, seed=SCALE_LAB_SEED)


def run_experiment(corpus):
    queries = sample_queries(corpus, N_QUERIES, seed=SCALE_LAB_SEED + 2)
    return measure_live_mutation(
        corpus.vectors,
        queries,
        K,
        n_inserts=200,
        n_rebuilds=5,
        repeats=3,
        seed=SCALE_LAB_SEED + 3,
    )


def _trajectory_section(result) -> dict:
    """The ``live_mutation`` payload merged into BENCH_throughput.json."""
    return {
        "n_rows": int(result.n_rows),
        "dimension": int(result.dimension),
        "k": int(result.k),
        "insert_us": round(result.insert_seconds * 1e6, 3),
        "rebuild_us": round(result.rebuild_seconds * 1e6, 3),
        "insert_speedup": round(result.insert_speedup, 2),
        "frozen_qps": round(result.frozen_qps, 1),
        "mixed_qps": round(result.mixed_qps, 1),
        "mixed_ratio": round(result.mixed_ratio, 3),
        "compaction_ms": round(result.compaction_seconds * 1e3, 3),
        "queries_during_compaction": int(result.queries_during_compaction),
        "latency_ms": {
            mode: {"p50": round(summary.p50_ms, 3), "p99": round(summary.p99_ms, 3)}
            for mode, summary in result.latencies.items()
        },
    }


def test_throughput_live(benchmark, live_corpus, results_dir, trajectory_path):
    result = benchmark.pedantic(run_experiment, args=(live_corpus,), rounds=1, iterations=1)
    text = render_live_mutation(result)
    write_series(results_dir, "throughput_live", text)
    update_section("live_mutation", _trajectory_section(result), _git_key(), trajectory_path)

    benchmark.extra_info["insert_speedup"] = float(result.insert_speedup)
    benchmark.extra_info["frozen_qps"] = float(result.frozen_qps)
    benchmark.extra_info["mixed_qps"] = float(result.mixed_qps)
    benchmark.extra_info["mixed_ratio"] = float(result.mixed_ratio)
    benchmark.extra_info["queries_during_compaction"] = int(
        result.queries_during_compaction
    )

    # The exactness half of every bar: mutability never changed an answer.
    assert result.identical_results
    # Write cost: O(delta) insert vs O(corpus) rebuild-per-write.
    assert result.insert_speedup >= 10.0, (
        f"live insert only {result.insert_speedup:.1f}x cheaper than "
        f"rebuild-per-write, below the 10x bar"
    )
    # Read cost under writes: mutability must not collapse read throughput.
    assert result.mixed_ratio >= MIXED_QPS_FLOOR, (
        f"mixed 90/10 traffic ran at {result.mixed_ratio:.2f}x the frozen "
        f"read-only qps, below the {MIXED_QPS_FLOOR}x floor"
    )
    # Compaction off the hot path: dispatch never stalled during the fold.
    assert result.queries_during_compaction > 0, (
        "no query completed during the background compaction "
        f"({result.compaction_seconds * 1e3:.1f} ms fold)"
    )
