"""``python3 -m bench`` — the benchmark's command line (see ``bench/README.md``)."""

import os
import sys

# BLAS/OpenMP read these once at load time: pin before NumPy is imported.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from bench import reaper  # noqa: E402 - the path and the pins come first

if __name__ == "__main__":
    reaper.adopt_orphans()
    reaper.exit_on_sigterm()
    try:
        from bench.cli import main

        status = main(sys.argv[1:])
    finally:
        reaper.reap()  # on every way out: result, error, SIGTERM, Ctrl-C
    sys.exit(status)
