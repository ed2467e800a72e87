"""Amortization of the shared served bypass across client cohorts.

PR 8 moved the Simplex Tree behind the serving protocol: one shared tree
per (tenant, collection, distance-family), trained by every connection's
retiring feedback loops.  This benchmark measures the paper's
repeated-query economy at serving scale — the *first* cohort of clients
pays full-length feedback loops while training the tree; every later
cohort asks ``bypass_mopt`` first and starts its loops from the shared
prediction, so its ``feedback_iterations`` drop.

The gap is algorithmic, not timing: a warm query's prediction is exactly
the value its own cold loop stored at that tree vertex, so for a fixed
workload the cold-to-warm iteration drop is deterministic and the bar
``warm < cold`` is enforced unconditionally — as is byte-identity of every
measured served loop against the local engine given the same start.

The numbers land in three places: pytest-benchmark's report, the rendered
series under ``benchmarks/results/``, and a ``bypass_amortization``
section merged into the current commit's entry of ``BENCH_throughput.json``
(the trajectory ``benchmarks/generate_figures.py`` renders).

Scale knobs: ``REPRO_BYPASS_QUERIES`` / ``REPRO_BYPASS_CLIENTS`` /
``REPRO_BYPASS_COHORTS`` override the workload shape.
"""

import os

from benchmarks.conftest import BENCH_SEED, write_series
from benchmarks.record import _git_key, update_section
from repro.database.collection import FeatureCollection
from repro.database.engine import RetrievalEngine
from repro.evaluation.reporting import render_bypass_amortization
from repro.evaluation.simulated_user import SimulatedUser
from repro.evaluation.throughput import measure_bypass_amortization
from repro.features.normalization import drop_last_bin
from repro.utils.rng import derive_seed, ensure_rng

K = 10
MAX_ITERATIONS = 10

N_QUERIES = int(os.environ.get("REPRO_BYPASS_QUERIES", "24"))
N_CLIENTS = int(os.environ.get("REPRO_BYPASS_CLIENTS", "4"))
N_COHORTS = int(os.environ.get("REPRO_BYPASS_COHORTS", "3"))


def run_experiment(dataset):
    collection = FeatureCollection(
        drop_last_bin(dataset.features),
        labels=[record.category for record in dataset.records],
    )
    user = SimulatedUser(collection)
    rng = ensure_rng(derive_seed(BENCH_SEED, "throughput_bypass"))
    indices = [
        int(index)
        for index in rng.choice(collection.size, size=N_QUERIES, replace=False)
    ]
    queries = collection.vectors[indices]
    judges = [user.judge_for_query(index) for index in indices]
    engine = RetrievalEngine(collection)
    result = measure_bypass_amortization(
        engine,
        queries,
        judges,
        K,
        n_clients=N_CLIENTS,
        n_cohorts=N_COHORTS,
        max_iterations=MAX_ITERATIONS,
    )
    return result, collection.size


def _trajectory_section(result) -> dict:
    """The ``bypass_amortization`` payload merged into BENCH_throughput.json."""
    return {
        "n_queries": int(result.n_queries),
        "n_clients": int(result.n_clients),
        "n_cohorts": int(result.n_cohorts),
        "k": int(result.k),
        "cold_iterations": round(result.cold_iterations, 3),
        "warm_iterations": round(result.warm_iterations, 3),
        "cohort_iterations": [round(value, 3) for value in result.cohort_iterations],
        "saved_iterations": round(result.saved_iterations, 3),
        "amortization": round(result.amortization, 2),
        "trained_nodes": int(result.trained_nodes),
        "latency_ms": {
            mode: {"p50": round(summary.p50_ms, 3), "p99": round(summary.p99_ms, 3)}
            for mode, summary in result.latencies.items()
        },
    }


def test_throughput_bypass(benchmark, bench_dataset, results_dir, trajectory_path):
    result, corpus_size = benchmark.pedantic(
        run_experiment, args=(bench_dataset,), rounds=1, iterations=1
    )
    text = (
        f"Shared served bypass (corpus = {corpus_size} vectors, k = {K}, "
        f"{N_CLIENTS} clients x {N_QUERIES} queries)\n"
        + render_bypass_amortization(result)
    )
    write_series(results_dir, "throughput_bypass", text)
    update_section("bypass_amortization", _trajectory_section(result), _git_key(), trajectory_path)

    benchmark.extra_info["cold_iterations"] = float(result.cold_iterations)
    benchmark.extra_info["warm_iterations"] = float(result.warm_iterations)
    benchmark.extra_info["saved_iterations"] = float(result.saved_iterations)
    benchmark.extra_info["amortization"] = float(result.amortization)
    benchmark.extra_info["trained_nodes"] = int(result.trained_nodes)

    # The serving contract under training traffic: every measured loop is
    # byte-identical to the local engine given the same starting point.
    assert result.identical_results
    # The tree was actually trained by the cold cohort's retiring loops.
    assert result.trained_nodes > 0
    # The headline economy, deterministic for this fixed workload: later
    # clients' loops are strictly shorter on average than the cold cohort's.
    assert result.warm_iterations < result.cold_iterations, (
        f"warm cohort averaged {result.warm_iterations:.2f} iterations, "
        f"not below the cold cohort's {result.cold_iterations:.2f}"
    )
    # And the trajectory never regresses: each warm cohort does at least as
    # well as the one before it (the tree only gains knowledge).
    for earlier, later in zip(result.cohort_iterations, result.cohort_iterations[1:]):
        assert later <= earlier + 1e-9
