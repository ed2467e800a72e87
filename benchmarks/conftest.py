"""Shared fixtures and helpers for the paper-figure benchmark.

``test_figures.py`` runs every entry of the
:data:`~repro.evaluation.figures.FIGURES` registry — the series behind one of
the paper's evaluation figures or an ablation of one of its design choices —
and asserts the paper's claims about it as counts and precisions, never as a
clock.  The corpus is scaled down (``BENCH_SCALE = 0.15`` of the paper's
2,491 evaluation images) so the whole harness runs in under two minutes;
``BENCH_SEED`` seeds the corpus and every query stream.

Each entry writes its rendered series (the rows the paper plots, followed by
any claim that failed) to the tracked ``benchmarks/results/`` only under an
explicit ``pytest --record``, otherwise to a temp directory, so running the
gate leaves the working tree untouched.  The series are echoed to stdout
either way.  Served-path speed is measured by ``python3 -m bench``, not
here.
"""

from __future__ import annotations

import os

# BLAS thread guard — must run before NumPy first initialises its BLAS.
# The repository root ``conftest.py`` sets the same guard (pytest loads it
# before any test module imports NumPy, so it is the one that actually
# precedes BLAS initialisation in mixed tests+benchmarks runs); this copy
# covers benchmarks-only invocations from other working directories.  One
# BLAS thread keeps a figure run from competing with itself for the cores,
# and ``setdefault`` keeps explicit operator overrides in force.
for _threads_var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_threads_var, "1")

import pytest

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


def write_series(results_dir: str, name: str, text: str) -> None:
    """Write a rendered series to ``<results_dir>/<name>.txt`` and echo it."""
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\n[{name}]\n{text}\n")
