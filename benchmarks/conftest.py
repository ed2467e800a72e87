"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates the data series behind one of the paper's
evaluation figures (see DESIGN.md / EXPERIMENTS.md).  The corpora are scaled
down (default ``scale=0.15`` of the paper's 2,491 evaluation images) so the
whole harness runs in a few minutes; the experiment functions accept the
full-size parameters when a faithful run is wanted.

Each benchmark both reports timings through pytest-benchmark and writes the
rendered series (the rows the paper plots) — to the tracked
``benchmarks/results/`` and ``BENCH_throughput.json`` only under an explicit
``pytest --record``, otherwise to a temp directory, so running the gate
leaves the working tree untouched.  The series are echoed to stdout either
way.
"""

from __future__ import annotations

import os

# BLAS oversubscription guard — must run before NumPy first initialises its
# BLAS: the worker-pool benchmarks run N workers (threads or processes) that
# each call into BLAS, and a BLAS that spins up one thread per core under
# each of them runs N x cores threads on the same silicon — the sharded
# speed-up bars then measure cache thrash, not the backend.  One BLAS thread
# per worker gives the pool sole ownership of the cores.  The repository
# root ``conftest.py`` sets the same guard (pytest loads it before any test
# module imports NumPy, so it is the one that actually precedes BLAS
# initialisation in mixed tests+benchmarks runs); this copy covers
# benchmarks-only invocations from other working directories, and
# ``benchmarks/record.py`` guards itself the same way.  ``setdefault``
# keeps explicit operator overrides in force; worker processes inherit the
# environment, so the guard covers the process backend too.
for _threads_var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_threads_var, "1")

import numpy as np
import pytest

from repro.database.engine import RetrievalEngine
from repro.database.knn import LinearScanIndex
from repro.distances.weighted_euclidean import WeightedEuclideanDistance
from repro.features.datasets import build_imsi_like_dataset

#: Scale of the benchmark corpus relative to the paper's evaluation set.
BENCH_SCALE = 0.15

#: Random seed shared by all benchmark corpora and query streams.
BENCH_SEED = 2001  # the paper's publication year

RESULTS_DIRECTORY = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def bench_dataset():
    """The shared benchmark corpus (about 15% of the paper's size)."""
    return build_imsi_like_dataset(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> str:
    """Directory the rendered figure series are written to.

    The tracked ``benchmarks/results/`` under ``--record``, a temp directory
    otherwise.
    """
    if not request.config.getoption("--record"):
        return str(tmp_path_factory.mktemp("results"))
    os.makedirs(RESULTS_DIRECTORY, exist_ok=True)
    return RESULTS_DIRECTORY


@pytest.fixture(scope="session")
def trajectory_path(request, tmp_path_factory) -> str:
    """The trajectory file benchmarks merge their sections into.

    The tracked ``BENCH_throughput.json`` under ``--record``, a temp file
    otherwise (pass it to ``benchmarks.record.update_section``).
    """
    if not request.config.getoption("--record"):
        return str(tmp_path_factory.mktemp("trajectory") / "BENCH_throughput.json")
    from benchmarks.record import OUTPUT_PATH

    return OUTPUT_PATH


class RowScanLoopEngine(RetrievalEngine):
    """A ``RetrievalEngine`` whose single-row entry points run the reference row scan.

    The batch and frontier speed-up bars are stated against the per-query
    loop those paths replaced: one ``distances_to`` + ``k_smallest`` row scan
    per query, which is exactly the kept reference ``LinearScanIndex.search``.
    ``RetrievalEngine.search`` / ``search_with_parameters`` are one-row
    batches through the same matrix kernel, so a loop over *them* would only
    measure per-call overhead against the batch.  This engine keeps the
    baseline fixed: its batched entry points are the inherited production
    ones, its single-row entry points are the row scan.
    """

    def __init__(self, collection) -> None:
        super().__init__(collection)
        self._reference = LinearScanIndex(collection)

    def search(self, query_point, k, distance=None, *, budget=None):
        return self._reference.search(query_point, k, distance or self.default_distance)

    def search_with_parameters(self, query_point, k, delta, weights, *, budget=None):
        distance = WeightedEuclideanDistance(
            self.collection.dimension, weights=np.clip(weights, 0.0, None)
        )
        return self._reference.search(np.asarray(query_point) + delta, k, distance)


def write_series(results_dir: str, name: str, text: str) -> None:
    """Write a rendered series to ``<results_dir>/<name>.txt`` and echo it."""
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\n[{name}]\n{text}\n")
