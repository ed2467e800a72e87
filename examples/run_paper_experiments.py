"""Run the paper's experiments and print every series.

Every reproduced series — the figures of the paper's Section 5, the
Figure 1 demonstration and the ablations — is an entry of
:data:`repro.evaluation.figures.FIGURES`.  This script builds the synthetic
IMSI-like corpus, runs the entries named on the command line (all of them by
default) and prints each table, followed by any of the paper's claims that
do not hold on the run.  At the default scale and seed it prints exactly the
series recorded in ``benchmarks/results/``.

Usage::

    python examples/run_paper_experiments.py                     # every entry (~2 minutes)
    python examples/run_paper_experiments.py fig10_learning_curve fig15_saved_cycles
    python examples/run_paper_experiments.py --scale 0.3 --seed 7    # another corpus
"""

from __future__ import annotations

import argparse

from repro.evaluation.figures import FIGURES
from repro.features.datasets import build_imsi_like_dataset


def parse_arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"entries to run (default: all of {', '.join(FIGURES)})")
    parser.add_argument("--scale", type=float, default=0.15, help="corpus scale relative to the paper's 2,491 images")
    parser.add_argument("--seed", type=int, default=2001, help="random seed for the corpus and the query streams")
    arguments = parser.parse_args()
    unknown = sorted(set(arguments.names) - set(FIGURES))
    if unknown:
        parser.error(f"unknown entries: {', '.join(unknown)}")
    return arguments


def main(names=None, *, scale: float = 0.15, seed: int = 2001) -> None:
    dataset = build_imsi_like_dataset(scale=scale, seed=seed)
    print(
        f"Corpus: {len(dataset.records)} images ({', '.join(dataset.evaluation_categories)} + noise), "
        f"{dataset.n_bins}-bin histograms\n"
    )
    for name in names or FIGURES:
        figure = FIGURES[name]
        print(f"[{name}]\n{figure.report(figure.run(dataset, seed))}\n")


if __name__ == "__main__":
    arguments = parse_arguments()
    main(arguments.names, scale=arguments.scale, seed=arguments.seed)
