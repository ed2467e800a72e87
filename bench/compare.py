"""``python3 -m bench compare A.json B.json`` — is B worse than A?

Both files are ``results-run-<seed>.json`` written by ``python3 -m bench run``
(``--repeat N`` puts N runs of every workload in one file).  Every end-to-end
metric x workload is its own row — no combined score — with both medians,
the number of runs each rests on, and one verdict:

* ``regressed``   B's median is worse than A's by more than the metric's bound;
* ``improved``    it is better by more than the bound;
* ``within-bound``;
* ``unresolved``  the run-to-run spread on either side is wider than the
  bound, or a run on either side was marked ``unstable`` — the difference
  cannot be told from noise and is reported as such, not as unchanged.

Exits non-zero on any ``regressed`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys

from bench.loadgen import load_definitions, quartile_spread


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: python3 -m bench compare A.json B.json", file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(path) as handle:
            sides.append(json.load(handle)["runs"])
    before, after = sides
    definitions = load_definitions()["end_to_end"]
    bad = False
    print(f"{'workload':20s} {'metric':22s} {'A median':>12s} {'n':>3s} {'B median':>12s} {'n':>3s} {'worse by':>9s} {'bound':>6s}  verdict")
    for workload in before:
        runs = (before[workload], after.get(workload, []))
        if not all(runs):
            continue
        for definition in definitions:
            name, bound = definition["name"], definition["bound"]
            values = [[run["end_to_end"][name] for run in side] for side in runs]
            medians = [statistics.median(side) for side in values]
            worse = (medians[1] - medians[0]) / medians[0]
            if definition["better"] == "higher":
                worse = -worse
            spread = max(quartile_spread(side) for side in values)
            if spread > bound or any(run["unstable"] for side in runs for run in side):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "within-bound"
            bad = bad or verdict == "regressed"
            print(
                f"{workload:20s} {name:22s} {medians[0]:12.4f} {len(values[0]):3d} "
                f"{medians[1]:12.4f} {len(values[1]):3d} {worse:+9.3f} {bound:6.2f}  {verdict}"
            )
        shares = [
            sum(run["failed"] for run in side) / sum(run["attempted"] for run in side)
            for side in runs
        ]
        verdict = "regressed" if shares[1] > shares[0] else "within-bound"
        bad = bad or shares[1] > shares[0]
        print(f"{workload:20s} {'failed_share':22s} {shares[0]:12.6f} {len(runs[0]):3d} {shares[1]:12.6f} {len(runs[1]):3d} {'':9s} {'any':>6s}  {verdict}")
    return 1 if bad else 0
