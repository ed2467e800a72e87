"""Anytime recall under a work budget on the 50k scale-lab slice.

PR 10 made retrieval *anytime*: a
:class:`~repro.database.budget.Budget` caps the metric evaluations a
search may spend, the VP-tree's best-first descent returns its
best-so-far top-k when the cap drains, and the result carries a
coverage report.  This benchmark holds the measured-recall contract on
the scale lab's 50k-row clustered corpus with a VP-tree index:

* **Monotone** — recall never decreases as the work budget grows (a
  smaller cap's execution is a prefix of a larger cap's).
* **Anytime floor** — recall >= 0.9 at a 50% work budget (budgets are
  expressed as fractions of the *full-scan-equivalent* work,
  ``rows x queries``; the exact tree traversal needs only a few percent
  of that, so the floor holds with a wide margin — the sub-3% fractions
  chart the informative ramp).
* **Exactness at the top** — the unbudgeted fraction ``1.0`` reports a
  complete traversal.

The numbers land in pytest-benchmark's report, the rendered series
under ``benchmarks/results/``, and an ``anytime_recall`` section merged
into the current commit's entry of ``BENCH_throughput.json`` (rendered
to SVG by ``benchmarks/generate_figures.py anytime_recall``).

Scale knobs: ``REPRO_ANYTIME_N`` / ``REPRO_ANYTIME_QUERIES`` override
the corpus height and query count.
"""

import os

import pytest

from benchmarks.conftest import write_series
from benchmarks.record import _git_key, update_section
from benchmarks.scale_lab import SCALE_LAB_SEED
from repro.database.collection import FeatureCollection
from repro.database.vptree import VPTreeIndex
from repro.distances import WeightedEuclideanDistance
from repro.evaluation.reporting import render_anytime_recall
from repro.evaluation.throughput import measure_anytime_recall
from repro.features.synthetic import build_clustered_corpus, sample_queries

N_VECTORS = int(os.environ.get("REPRO_ANYTIME_N", "50000"))
DIMENSION = 8
N_QUERIES = int(os.environ.get("REPRO_ANYTIME_QUERIES", "64"))
K = 10

#: Work budgets as fractions of the full-scan-equivalent rows.  The
#: exact VP-tree traversal spends only ~2-3% of the full scan on this
#: corpus, so the sub-3% fractions are where the curve actually ramps;
#: the coarse upper fractions pin the saturated regime the acceptance
#: floor (recall >= 0.9 at 0.5) lives in.
FRACTIONS = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)

#: The anytime contract's acceptance floor.
RECALL_FLOOR = 0.9
FLOOR_FRACTION = 0.5


@pytest.fixture(scope="module")
def anytime_corpus():
    return build_clustered_corpus(N_VECTORS, DIMENSION, seed=SCALE_LAB_SEED)


def run_experiment(corpus):
    queries = sample_queries(corpus, N_QUERIES, seed=SCALE_LAB_SEED + 4)
    collection = FeatureCollection(corpus.vectors)
    # One shared distance instance: index capability negotiation is
    # per-instance, and a fresh default would silently bench the scan.
    distance = WeightedEuclideanDistance.default(collection.dimension)
    index = VPTreeIndex(collection, distance)
    return measure_anytime_recall(
        collection,
        queries,
        K,
        fractions=FRACTIONS,
        distance=distance,
        metric_index=index,
    )


def _trajectory_section(result) -> dict:
    """The ``anytime_recall`` payload merged into BENCH_throughput.json."""
    return {
        "n_rows": int(result.n_rows),
        "dimension": int(result.dimension),
        "n_queries": int(result.n_queries),
        "k": int(result.k),
        "exact_rows": int(result.exact_rows),
        "exact_fraction": round(result.exact_rows / result.full_scan_rows, 5),
        "monotone": bool(result.monotone),
        "recall_at_floor": round(result.recall_at(FLOOR_FRACTION), 4),
        "points": [
            {
                "fraction": point["fraction"],
                "recall": round(point["recall"], 4),
                "coverage": round(point["coverage"], 5),
                "complete": bool(point["complete"]),
            }
            for point in result.points
        ],
    }


def test_throughput_anytime(benchmark, anytime_corpus, results_dir, trajectory_path):
    result = benchmark.pedantic(
        run_experiment, args=(anytime_corpus,), rounds=1, iterations=1
    )
    text = render_anytime_recall(result)
    write_series(results_dir, "throughput_anytime", text)
    update_section("anytime_recall", _trajectory_section(result), _git_key(), trajectory_path)

    benchmark.extra_info["exact_fraction"] = float(
        result.exact_rows / result.full_scan_rows
    )
    benchmark.extra_info["recall_at_floor"] = float(result.recall_at(FLOOR_FRACTION))
    benchmark.extra_info["monotone"] = bool(result.monotone)

    # The anytime contract: more budget never hurts ...
    assert result.monotone, "recall decreased as the work budget grew:\n" + text
    # ... and half the full-scan work is plenty on a clustered corpus.
    floor = result.recall_at(FLOOR_FRACTION)
    assert floor >= RECALL_FLOOR, (
        f"recall {floor:.3f} at a {FLOOR_FRACTION:.0%} work budget, "
        f"below the {RECALL_FLOOR} floor"
    )
    # The top of the curve is the exact answer, and says so.
    assert result.points[-1]["complete"], "unbudgeted-equivalent run reported truncation"
    assert result.points[-1]["recall"] == 1.0
