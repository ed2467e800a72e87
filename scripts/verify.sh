#!/usr/bin/env bash
# Verification gate: the commands CI and builders must pass.
#
# Modes (first argument):
#   --fast     tier-1 only: the unit / property / contract tests under tests/
#   (none)     tier-1 plus the three throughput smoke benchmarks (the
#              batch-contract, frontier-scheduler and sharded-serving
#              speed-up bars), then records the machine-readable throughput
#              trajectory (BENCH_throughput.json via benchmarks/record.py,
#              which measures the process backend too); the process-backend
#              speed-up bar itself lives in --procs, which nightly CI runs
#              alongside this mode
#   --sharded  just the concurrency layer: the randomized sharded
#              equivalence grid, the threaded stress suite and the sharded
#              throughput benchmark
#   --procs    just the process backend: the spawn-safety suite, the
#              process-equivalence suite and the thread-vs-process
#              throughput benchmark
#   --serving  just the network serving layer: the serving equivalence
#              grid (both front ends x both codecs), the codec and
#              protocol error-path suites, the coalescer edge-case suite,
#              the pooled-client suite, the serving concurrency/lifecycle
#              stress tests and the coalescing throughput benchmark
#   --c10k     the connection-scaling shape: the codec/protocol/pool
#              suites, then the C10K benchmark (thousands of idle
#              connections + hot coalesced load on the async front end,
#              byte-identity enforced; scale via REPRO_C10K_IDLE /
#              REPRO_C10K_HOT), which merges a connection_scaling section
#              into BENCH_throughput.json, then the SVG rendering
#   --bypass   the shared served bypass: the served-tree equivalence grid
#              (N clients x both front ends x both codecs, tenant
#              isolation, warm-start persistence), the bypass concurrency
#              stress suite, then the amortization benchmark (later
#              cohorts' feedback_iterations must drop; merges a
#              bypass_amortization section into BENCH_throughput.json)
#              and the SVG rendering
#   --live     the live mutable corpus: the segment-composition suites
#              (byte-identity to a frozen rebuild, compaction lifecycle,
#              hypothesis interleavings), the served-mutation grid and
#              writes-under-coalescing stress test, then the mutation
#              benchmark (insert vs rebuild-per-write, mixed-traffic qps
#              floor, reads mid-fold; merges a live_mutation section into
#              BENCH_throughput.json) and the SVG rendering
#   --anytime  the anytime budget layer: the budget byte-identity grid
#              (index x distance x shards x backend x precision x
#              live/frozen), the hypothesis monotonicity/coverage/zero
#              suites, the budgeted serving ops, then the recall-vs-budget
#              benchmark on the 50k clustered corpus (monotone curve,
#              recall >= 0.9 at a 50% work budget; merges an
#              anytime_recall section into BENCH_throughput.json) and the
#              SVG rendering; scale via REPRO_ANYTIME_N /
#              REPRO_ANYTIME_QUERIES
#   --anytime-fast  the same suites without the benchmark or figures —
#              the push-CI slice of the anytime contract
#   --scale    just the raw-speed layer: the fast-precision equivalence
#              grid, k-selection autotuning and clustered-corpus suites,
#              the 50k-row precision-speedup benchmark (enforced 1.5x
#              bar), then the scale-lab driver (merges its section into
#              BENCH_throughput.json) and the SVG figure rendering
#   --full     the entire suite, including the figure-reproduction benchmark
#              harness under benchmarks/ (equivalent to a bare `pytest`)
#
# Any other arguments are forwarded to pytest verbatim and replace the
# default targets, e.g. `scripts/verify.sh tests/test_database_batch.py -k
# linear`.
#
# Recording: pytest alone never touches a tracked file — benchmarks write
# benchmarks/results/*.txt and their BENCH_throughput.json sections only
# under `pytest --record`, otherwise to a temp directory.  Every mode above
# that runs a benchmark passes --record (these are the modes nightly CI
# uploads artifacts from); --fast, --anytime-fast, --full and forwarded
# targets do not — add --record yourself to record from those.
set -euo pipefail

cd "$(dirname "$0")/.."

record=(--record)
record_trajectory=0
run_scale_lab=0
run_c10k_figures=0
run_bypass_figures=0
run_live_figures=0
run_anytime_figures=0
targets=()
case "${1:-}" in
    --fast)
        shift
        record=()
        targets=(tests)
        ;;
    --sharded)
        shift
        targets=(
            tests/test_sharded_equivalence.py
            tests/test_concurrency_stress.py
            benchmarks/test_throughput_sharded.py
        )
        ;;
    --procs)
        shift
        targets=(
            tests/test_spawn_safety.py
            tests/test_process_backend.py
            benchmarks/test_throughput_procs.py
        )
        ;;
    --serving)
        shift
        targets=(
            tests/test_serving_codec.py
            tests/test_serving_protocol.py
            tests/test_serving_coalescer.py
            tests/test_serving_pool.py
            tests/test_serving_equivalence.py
            tests/test_serving_stress.py
            benchmarks/test_throughput_serving.py
        )
        ;;
    --c10k)
        shift
        run_c10k_figures=1
        targets=(
            tests/test_serving_codec.py
            tests/test_serving_protocol.py
            tests/test_serving_pool.py
            benchmarks/test_throughput_c10k.py
        )
        ;;
    --bypass)
        shift
        run_bypass_figures=1
        targets=(
            tests/test_serving_bypass.py
            tests/test_serving_bypass_stress.py
            benchmarks/test_throughput_bypass.py
        )
        ;;
    --live)
        shift
        run_live_figures=1
        targets=(
            tests/test_live_collection.py
            tests/test_properties_live.py
            tests/test_serving_live.py
            benchmarks/test_throughput_live.py
        )
        ;;
    --anytime)
        shift
        run_anytime_figures=1
        targets=(
            tests/test_anytime_equivalence.py
            tests/test_properties_anytime.py
            tests/test_serving_equivalence.py
            benchmarks/test_throughput_anytime.py
        )
        ;;
    --anytime-fast)
        shift
        record=()
        targets=(
            tests/test_anytime_equivalence.py
            tests/test_properties_anytime.py
            tests/test_serving_equivalence.py::TestBudgetedServing
        )
        ;;
    --scale)
        shift
        run_scale_lab=1
        targets=(
            tests/test_fast_precision.py
            tests/test_kselection_autotune.py
            tests/test_features_synthetic_corpus.py
            tests/test_latency_percentiles.py
            tests/test_bench_record.py
            benchmarks/test_throughput_scale.py
        )
        ;;
    --full)
        shift
        record=()
        targets=()
        ;;
    "")
        record_trajectory=1
        targets=(
            tests
            benchmarks/test_throughput_batch.py
            benchmarks/test_throughput_feedback.py
            benchmarks/test_throughput_sharded.py
        )
        ;;
    *)
        # Forwarded pytest targets: side-effect free unless asked.
        record=()
        ;;
esac

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q "${record[@]+"${record[@]}"}" "${targets[@]+"${targets[@]}"}" "$@"

if [[ "$record_trajectory" == 1 ]]; then
    python benchmarks/record.py
fi

if [[ "$run_scale_lab" == 1 ]]; then
    python benchmarks/scale_lab.py --n 50000
    python benchmarks/generate_figures.py
fi

if [[ "$run_c10k_figures" == 1 ]]; then
    # The C10K benchmark itself merged its connection_scaling section
    # into BENCH_throughput.json; render the trajectory figure.
    python benchmarks/generate_figures.py connection_scaling
fi

if [[ "$run_bypass_figures" == 1 ]]; then
    # The amortization benchmark merged its bypass_amortization section
    # into BENCH_throughput.json; render the trajectory figure.
    python benchmarks/generate_figures.py bypass_amortization
fi

if [[ "$run_anytime_figures" == 1 ]]; then
    # The anytime benchmark merged its anytime_recall section into
    # BENCH_throughput.json; render the recall-vs-budget figure.
    python benchmarks/generate_figures.py anytime_recall
fi

if [[ "$run_live_figures" == 1 ]]; then
    # The mutation benchmark merged its live_mutation section into
    # BENCH_throughput.json; render the trajectory figure.
    python benchmarks/generate_figures.py live_mutation
fi
