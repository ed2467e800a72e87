#!/usr/bin/env bash
# Verification gate: the commands CI and builders must pass.
#
# Modes (first argument):
#   --fast     the unit / property / contract suites under tests/
#   (none)     the whole collection — tests/, the paper-figure and ablation
#              benchmarks under benchmarks/ and the served-path benchmark
#              smoke under bench/ — the same as the tier-1 command
#
# Any other arguments are forwarded to pytest verbatim, after the mode's
# targets, e.g. `scripts/verify.sh --record` (the whole collection,
# rewriting the tracked benchmarks/results/*.txt) or
# `scripts/verify.sh tests/test_database_batch.py -k linear`.
#
# Recording: pytest alone never touches a tracked file — the figure
# benchmarks write benchmarks/results/*.txt only under `pytest --record`,
# otherwise to a temp directory.  Served-path speed is measured with
# `python3 -m bench`, not here.
set -euo pipefail

cd "$(dirname "$0")/.."

targets=()
if [[ "${1:-}" == "--fast" ]]; then
    shift
    targets=(tests)
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q "${targets[@]+"${targets[@]}"}" "$@"
