"""Per-category robustness (the Figure-14 scenario).

Streams queries from all seven evaluation categories through an interactive
session and reports, per category, how the FeedbackBypass predictions compare
with the Default strategy and with the AlreadySeen upper bound — the paper's
observation being that predictions help exactly where feedback itself helps
(a large Default-vs-AlreadySeen gap) and cannot help where it does not.

The experiment is the ``fig14_category_robustness`` entry of
:data:`repro.evaluation.figures.FIGURES`; this script prints its table and
reads it category by category.

Run with::

    python examples/category_robustness.py
"""

from __future__ import annotations

from repro.evaluation import FIGURES
from repro.features.datasets import build_imsi_like_dataset


def main() -> None:
    dataset = build_imsi_like_dataset(scale=0.12, seed=13)
    figure = FIGURES["fig14_category_robustness"]
    result = figure.run(dataset, 13)
    print(figure.report(result))

    print("\nReading the table:")
    for position, category in enumerate(result.categories):
        gap = result.already_seen_precision[position] - result.default_precision[position]
        gain = result.bypass_precision[position] - result.default_precision[position]
        verdict = "predictions help" if gain > 0.01 else "little to gain"
        print(
            f"  {category:<10} feedback headroom {gap:+.3f}, "
            f"bypass improvement {gain:+.3f} -> {verdict}"
        )


if __name__ == "__main__":
    main()
