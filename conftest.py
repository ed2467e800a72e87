"""Repository-level pytest configuration.

Adds ``src/`` to ``sys.path`` so the test and benchmark suites run even when
the package has not been installed (e.g. on an offline machine where
``pip install -e .`` cannot fetch the ``wheel`` build dependency).

Also pins the BLAS/OpenMP thread pools to one thread *before anything
imports NumPy* — this conftest is the first module pytest loads for any
target in the repository, so the guard actually precedes BLAS
initialisation, which reads these variables exactly once at load time.
N worker threads/processes × M BLAS threads oversubscribes the cores and
turns the worker-pool speed-up bars into measurements of cache thrash; one
BLAS thread per worker gives the pool sole ownership of the cores (see
:class:`repro.database.sharding.WorkerPool`).  ``setdefault`` keeps
explicit operator overrides in force, and worker processes inherit the
environment, so the guard covers the process backend too.
"""

import os
import sys

for _threads_var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_threads_var, "1")

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def pytest_addoption(parser):
    # The gate must be side-effect free: benchmarks write their series and
    # trajectory sections to a temp directory unless recording is asked for
    # (see ``benchmarks/conftest.py``).  Declared here because pytest only
    # honours ``pytest_addoption`` in the rootdir conftest.
    parser.addoption(
        "--record",
        action="store_true",
        default=False,
        help="let benchmarks overwrite the tracked benchmarks/results/*.txt "
        "and BENCH_throughput.json (default: write to a temp directory)",
    )


def pytest_configure(config):
    # Every socket-serving suite is tagged ``serving`` (module-level
    # ``pytestmark``), so ``-m "not serving"`` is the fast socket-free
    # tier-1 slice.
    config.addinivalue_line(
        "markers",
        "serving: tests that open real sockets against a serving front end",
    )
