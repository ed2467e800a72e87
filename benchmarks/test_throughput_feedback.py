"""Sequential-vs-frontier throughput of the feedback loop phase.

PR 1 batched the *first rounds* of a multi-user workload
(``benchmarks/test_throughput_batch.py``); the frontier scheduler batches
the *feedback loops* themselves, advancing iteration i of every active
query with one batched search.  This benchmark measures that claim on the
IMSI-like corpus: 64 queries' relevance-feedback loops run once
sequentially (``FeedbackEngine.run_loop`` per query, every search a
reference row scan — see ``benchmarks.conftest.RowScanLoopEngine``) and once
through ``LoopScheduler``, and the loop-phase speed-up (with byte-identical
``FeedbackLoopResult`` lists) is recorded in ``benchmarks/results/``
alongside PR 1's first-round numbers.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, RowScanLoopEngine, write_series
from repro.database.collection import FeatureCollection
from repro.evaluation.reporting import render_feedback_throughput
from repro.evaluation.simulated_user import SimulatedUser
from repro.evaluation.throughput import measure_feedback_speedup
from repro.features.datasets import build_imsi_like_dataset
from repro.features.normalization import drop_last_bin
from repro.feedback.engine import FeedbackEngine
from repro.utils.rng import derive_seed, ensure_rng

K = 50
N_QUERIES = 64


@pytest.fixture(scope="module")
def full_scale_dataset():
    """The full-size IMSI-like corpus.

    As for the batch benchmark, the loop-phase claim is stated (and
    checked) against the full corpus: on the scaled-down shared corpus the
    per-search work is too small for the batch amortisation to show.
    """
    return build_imsi_like_dataset(scale=1.0, seed=BENCH_SEED)


def run_experiment(dataset):
    collection = FeatureCollection(
        drop_last_bin(dataset.features), labels=[record.category for record in dataset.records]
    )
    feedback = FeedbackEngine(RowScanLoopEngine(collection))
    user = SimulatedUser(collection)
    rng = ensure_rng(derive_seed(BENCH_SEED, "throughput_feedback"))
    query_indices = rng.integers(0, collection.size, size=N_QUERIES)
    queries = collection.vectors[query_indices]
    judges = [user.judge_for_query(int(index)) for index in query_indices]
    result = measure_feedback_speedup(feedback, queries, K, judges, repeats=3)
    return result, collection.size


def test_throughput_feedback(benchmark, full_scale_dataset, results_dir):
    result, corpus_size = benchmark.pedantic(
        run_experiment, args=(full_scale_dataset,), rounds=1, iterations=1
    )
    text = (
        f"Frontier-scheduled feedback loops (corpus = {corpus_size} vectors, k = {K})\n"
        + render_feedback_throughput(result)
    )
    write_series(results_dir, "throughput_feedback", text)

    benchmark.extra_info["sequential_qps"] = float(result.sequential_qps)
    benchmark.extra_info["frontier_qps"] = float(result.frontier_qps)
    benchmark.extra_info["speedup"] = float(result.speedup)
    benchmark.extra_info["feedback_iterations"] = int(result.feedback_iterations)

    # The equivalence half of the scheduler contract: a fast but diverging
    # frontier is not a speed-up.
    assert result.identical_results
    # Acceptance bar of the frontier refactor: the batched loop phase is at
    # least 3x faster than the sequential per-query row-scan loops.
    assert result.speedup >= 3.0, f"loop-phase speedup {result.speedup:.2f}x below the 3x bar"
