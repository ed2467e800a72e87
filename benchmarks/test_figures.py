"""The paper's figures and ablations as experiments that can fail.

One case per entry of :data:`~repro.evaluation.figures.FIGURES`: run the
experiment on the benchmark corpus, write its series (see ``conftest.py``)
and assert every claim the entry states — each a named predicate whose
docstring quotes the paper statement it checks.  Outside ``--record`` the
rendered series must also equal the tracked ``benchmarks/results/<name>.txt``
byte for byte, so a change that moves any figure's numbers fails here
instead of in a hand comparison.
"""

import pytest

from benchmarks.conftest import BENCH_SEED, tracked_series, write_series
from repro.evaluation.figures import FIGURES


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(name, bench_dataset, results_dir, request):
    figure = FIGURES[name]
    result = figure.run(bench_dataset, BENCH_SEED)
    text = write_series(results_dir, name, figure.report(result))
    failed = [claim.__name__ for claim in figure.failed_claims(result)]
    assert failed == [], f"{name}: the paper's claims {failed} do not hold"
    if not request.config.getoption("--record"):
        assert text == tracked_series(name), f"{name}: the series differs from benchmarks/results/{name}.txt"
