"""Batch-vs-loop throughput of the batched query pipeline.

The batch-first refactor promises that answering a whole query batch with
one pairwise distance matrix (``LinearScanIndex.search_batch``) amortises
the per-query Python overhead away.  This benchmark measures that claim on
the IMSI-like corpus: a 64-query batch runs once through the per-query
row-scan loop (the reference ``LinearScanIndex.search``, see
``benchmarks.conftest.RowScanLoopEngine``) and once through
``search_batch``, and the speed-up (with byte-identical result sets) is
recorded in ``benchmarks/results/``.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, RowScanLoopEngine, write_series
from repro.database.collection import FeatureCollection
from repro.evaluation.reporting import render_throughput
from repro.evaluation.throughput import measure_batch_speedup
from repro.features.datasets import build_imsi_like_dataset
from repro.features.normalization import drop_last_bin
from repro.utils.rng import derive_seed, ensure_rng

K = 50
N_QUERIES = 64


@pytest.fixture(scope="module")
def full_scale_dataset():
    """The full-size IMSI-like corpus.

    The shared ``bench_dataset`` is scaled down to 15%, which is fine for
    figure reproduction but leaves too little per-query work for the batch
    amortisation to show; the throughput claim is stated (and checked)
    against the full corpus.
    """
    return build_imsi_like_dataset(scale=1.0, seed=BENCH_SEED)


def run_experiment(dataset):
    collection = FeatureCollection(
        drop_last_bin(dataset.features), labels=[record.category for record in dataset.records]
    )
    engine = RowScanLoopEngine(collection)
    rng = ensure_rng(derive_seed(BENCH_SEED, "throughput_batch"))
    query_indices = rng.integers(0, collection.size, size=N_QUERIES)
    queries = collection.vectors[query_indices]
    result = measure_batch_speedup(engine, queries, K, repeats=3)
    return result, collection.size


def test_throughput_batch(benchmark, full_scale_dataset, results_dir):
    result, corpus_size = benchmark.pedantic(
        run_experiment, args=(full_scale_dataset,), rounds=1, iterations=1
    )
    text = (
        f"Batched query pipeline (corpus = {corpus_size} vectors, k = {K})\n"
        + render_throughput(result)
    )
    write_series(results_dir, "throughput_batch", text)

    benchmark.extra_info["loop_qps"] = float(result.loop_qps)
    benchmark.extra_info["batch_qps"] = float(result.batch_qps)
    benchmark.extra_info["speedup"] = float(result.speedup)

    # The equivalence half of the batch contract: a fast but wrong batch
    # path is not a speed-up.
    assert result.identical_results
    # Acceptance bar of the batch-first refactor: a 64-query batch through
    # the matrix path is at least 3x faster than the per-query row-scan loop.
    assert result.speedup >= 3.0, f"batch speedup {result.speedup:.2f}x below the 3x bar"
