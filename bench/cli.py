"""Command line of the benchmark: ``run``, ``trace`` and ``compare``.

``python3 -m bench --workload W --seed S --seconds T --trace 0|1`` is the
contract form: one workload, one JSON result as the last line of stdout.
Without ``--workload`` the same measurement runs over all four workloads and
the results land in ``bench/out/results-<mode>-<seed>.json`` for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench import compare, loadgen, trace
from bench.workloads import DEFAULT_SEED, WORKLOADS, generate

#: A run that saw too few undisturbed slices is repeated at most this many times
#: (once: the driver's time limit for all its runs has no room for more).
MAX_RERUNS = 1

#: Set-ups timed per run, spread before and after it; ``setup_s`` is the fastest.
SETUPS = 7

#: Share of ``--seconds`` the traced run spends on its served phase.
TRACED_SERVED_SHARE = 0.3


def pinned_checksums() -> dict:
    with open(os.path.join(loadgen.ROOT, "bench", "baseline.json")) as handle:
        return json.load(handle)["input_checksums"]


def measure(name: str, seed: int, seconds, traced: bool, smoke: bool, out_dir: str) -> dict:
    """One workload, bracketed by calibrations, re-run while the box drifts."""
    workload = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    inputs = generate(workload, seed)
    checksums = inputs.checksums()
    if seed == DEFAULT_SEED and not smoke and checksums != pinned_checksums()[name]:
        raise SystemExit(f"{name}: generated inputs differ from the pinned checksums")
    if seconds is not None and traced:
        seconds = seconds * TRACED_SERVED_SHARE
    setups = 1 if smoke or traced else SETUPS
    for attempt in range(1 + MAX_RERUNS):
        before = loadgen.calibrate()
        result = loadgen.run_served(workload, inputs, seed, out_dir, seconds=seconds, setups=setups)
        after = loadgen.calibrate()
        if traced or not result["unstable"]:
            break
    result.update(
        smoke=smoke,
        input_checksums=checksums,
        runs=attempt + 1,
        calibration={"before": before, "after": after},
    )
    if traced:
        layers = trace.run_traced(workload, inputs, out_dir)
        layers.update(result.pop("served"))
        for name in before:
            layers[f"calib.{name}"] = min(before[name], after[name])
        result["per_layer"] = layers
    return result


def report(result: dict, definitions: dict, traced: bool) -> dict:
    """Print every metric by name with its unit; return the contract's last line."""
    section = "per_layer" if traced else "end_to_end"
    values = result[section]
    print(
        f"== {result['workload']} seed={result['seed']} connections={result['connections']} "
        f"(closed loop) measured={result['measured_s']:.2f}s ops={result['attempted']} "
        f"failed={result['failed']} latency_samples={result['latency_samples']} "
        f"oracle_checked={result['oracle_checked']} "
        f"unstable={result['unstable']} runs={result['runs']}"
    )
    print(f"   ops_by_kind={result['ops_by_kind']} slice_rates={[round(r, 1) for r in result['slice_rates']]}")
    for bracket, readings in result["calibration"].items():
        print(f"   calibration {bracket}: " + " ".join(f"{k}={v:.2f}" for k, v in readings.items()))
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")
    metrics = {}
    for definition in definitions[section]:
        name = definition["name"]
        if name not in values:
            raise SystemExit(f"BENCHMARK.json names {name!r} but the benchmark did not measure it")
        metrics[name] = {"value": values[name], "unit": definition["unit"]}
        print(f"   {name:44s} {values[name]:16.6f} {definition['unit']}")
    if not traced:
        for name, value in sorted(result.get("served", {}).items()):
            print(f"   ({name:42s} {value:16.6f} informational)")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: "list[str]") -> int:
    mode = argv[0] if argv and argv[0] in ("run", "trace", "compare") else "run"
    argv = argv[1:] if argv and argv[0] == mode else argv
    if mode == "compare":
        return compare.main(argv)
    definitions = loadgen.load_definitions()
    parser = argparse.ArgumentParser(prog=f"python3 -m bench {mode}")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(definitions["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=int(mode == "trace"))
    parser.add_argument("--smoke", action="store_true", help="1/100 fixed op counts, tiny corpora")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (all-workload mode)")
    parser.add_argument("--out", default=os.path.join(loadgen.ROOT, "bench", "out"))
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    seconds = None if args.smoke else args.seconds

    if args.workload is not None:
        result = measure(args.workload, args.seed, seconds, traced, args.smoke, args.out)
        last_line = report(result, definitions, traced)
        print(json.dumps(last_line))
        return 0

    runs = {name: [] for name in WORKLOADS}
    for _ in range(args.repeat):
        for name in WORKLOADS:
            result = measure(name, args.seed, seconds, traced, args.smoke, args.out)
            report(result, definitions, traced)
            runs[name].append(result)
    path = os.path.join(args.out, f"results-{'trace' if traced else 'run'}-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"seed": args.seed, "smoke": args.smoke, "runs": runs}, handle, indent=1)
    print(f"wrote {path}")
    return 0 if all(r["correct"] for results in runs.values() for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
