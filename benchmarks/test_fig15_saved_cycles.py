"""Figure 15: Saved-Cycles and Saved-Objects for k = 20 and k = 50.

For every query the feedback loop is run twice — from the default parameters
and from the FeedbackBypass prediction — and the difference in iterations is
the number of cycles (k-NN requests) the prediction saves.  The paper reports
savings that grow with the number of processed queries, reaching about two
cycles (≈100 retrieved objects at k = 50) after 1000 queries.

The saving is signed, so a prediction that lengthens a loop counts against
it; the series also reports the share of queries that lost.
"""

import numpy as np

from benchmarks.conftest import BENCH_SEED, write_series
from repro.evaluation.efficiency import saved_cycles_experiment
from repro.evaluation.reporting import render_efficiency

K_VALUES = (20, 50)
N_QUERIES = 300
WARMUP = 100


def run_experiment(dataset):
    return saved_cycles_experiment(
        dataset,
        k_values=K_VALUES,
        n_queries=N_QUERIES,
        checkpoint_every=50,
        warmup_queries=WARMUP,
        epsilon=0.05,
        seed=BENCH_SEED,
    )


def test_fig15_saved_cycles(benchmark, bench_dataset, results_dir):
    result = benchmark.pedantic(run_experiment, args=(bench_dataset,), rounds=1, iterations=1)
    write_series(results_dir, "fig15_saved_cycles", render_efficiency(result))

    for position, k in enumerate(result.k_values):
        benchmark.extra_info[f"final_saved_cycles_k{int(k)}"] = float(result.saved_cycles[position, -1])
        benchmark.extra_info[f"final_saved_objects_k{int(k)}"] = float(result.saved_objects[position, -1])

    # After warm-up the trained module saves work at every checkpoint, net
    # of the queries it slowed down, and those stay a minority; saved
    # objects are exactly cycles x k.
    for position, k in enumerate(result.k_values):
        assert np.all(result.saved_cycles[position] > 0.0), int(k)
        assert np.all(result.lost_share[position] >= 0.0), int(k)
        assert np.all(result.lost_share[position] < 0.5), int(k)
        np.testing.assert_allclose(
            result.saved_objects[position], result.saved_cycles[position] * int(k), atol=1e-9
        )
