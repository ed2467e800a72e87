"""Tests for repro.evaluation.figures: the table format and the registry."""

from pathlib import Path

import pytest

from repro.evaluation.figures import FIGURES, Figure, Table, format_series_table

RESULTS_DIRECTORY = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestFormatSeriesTable:
    def test_header_and_rows_present(self):
        table = format_series_table(["a", "b"], [[1, 2.5], [3, 4.125]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert "2.500" in table
        assert "4.125" in table and "4.1250" not in table

    def test_column_alignment(self):
        table = format_series_table(["metric", "v"], [["x", 1.0]])
        header, separator, row = table.splitlines()
        assert len(header) == len(separator)


class TestTable:
    def test_single_block_is_title_over_table(self):
        table = Table("Title", ["a"], [("", [[1]])])
        assert table.render() == "Title\n" + format_series_table(["a"], [[1]])

    def test_labelled_blocks_share_the_header(self):
        table = Table("Efficiency", ["q", "v"], [("k = 20", [[1, 0.5]]), ("k = 50", [[1, 25.0]])])
        text = table.render()
        assert text.startswith("Efficiency\nk = 20\n")
        assert "\n\nk = 50\n" in text
        assert text.count("q  ") == 2


def _claim_holds(result) -> bool:
    """Paper: "the claim that holds."
    """
    return True


def _claim_fails(result) -> bool:
    """Paper: "the claim that fails,
    quoted over two lines."

    The explanation paragraph stays out of the finding.
    """
    return False


class TestFigure:
    def _figure(self, *claims):
        return Figure(
            run=lambda dataset, seed: seed,
            table=lambda result: Table("Series", ["seed"], [("", [[result]])]),
            claims=claims,
        )

    def test_report_is_the_table_when_every_claim_holds(self):
        figure = self._figure(_claim_holds)
        assert figure.failed_claims(7) == []
        assert figure.report(7) == figure.table(7).render()

    def test_failed_claims_become_findings(self):
        figure = self._figure(_claim_holds, _claim_fails)
        assert figure.failed_claims(7) == [_claim_fails]
        report = figure.report(7)
        assert report.startswith(figure.table(7).render() + "\n\nFindings")
        assert '- _claim_fails: Paper: "the claim that fails, quoted over two lines."' in report
        assert "_claim_holds" not in report and "explanation" not in report


class TestRegistry:
    def test_every_recorded_series_has_an_entry(self):
        recorded = sorted(path.stem for path in RESULTS_DIRECTORY.glob("*.txt"))
        assert sorted(FIGURES) == recorded

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_every_claim_is_named_and_quotes_the_paper(self, name):
        claims = FIGURES[name].claims
        assert claims, f"{name} states no claim"
        assert len({claim.__name__ for claim in claims}) == len(claims)
        for claim in claims:
            assert not claim.__name__.startswith("<"), f"{name} has an anonymous claim"
            assert '"' in (claim.__doc__ or ""), f"{name}.{claim.__name__} quotes nothing"


class TestKNNAblationCounts:
    def test_distance_evaluations_are_counted_per_query(self, tiny_dataset):
        result = FIGURES["ablation_knn_index"].run(tiny_dataset, 5)
        size = result["corpus_size"]
        engines = result["engines"]
        assert list(engines) == ["linear-scan", "vp-tree", "m-tree"]
        assert engines["linear-scan"] == (True, float(size))
        for name in ("vp-tree", "m-tree"):
            agrees, evaluations = engines[name]
            assert agrees, name
            # Every reported neighbour was evaluated at least once.
            assert evaluations >= 50, name
        # A VP-tree evaluates each object at most once per search (build-time
        # evaluations are excluded from the count).
        assert engines["vp-tree"][1] <= size
