"""The documented snippets and examples actually run.

Documentation drifts the moment it stops being executed.  This suite keeps
the user-facing entry points honest:

* the ``Quickstart::`` block in the ``repro`` package docstring (the same
  progression README.md shows) is extracted and executed verbatim — with
  the corpus builder monkeypatched to a miniature corpus so the tier-1
  suite stays fast, which exercises exactly the documented call surface;
* ``examples/quickstart.py`` and ``examples/serving_session.py`` run end
  to end at miniature parameters through their ``main`` entry points;
* ``examples/run_paper_experiments.py`` runs every entry of the ``FIGURES``
  registry on the miniature corpus and prints its table;
* the op table of ``docs/serving.md`` names exactly the ops the server
  serves;
* every ``from repro… import …`` line of README.md, ``docs/*.md``,
  ``examples/*.py`` and the package docstring resolves, executed or not.

A documented name that disappears, a signature that changes, or a serving
op that breaks fails here before any reader trips over it.
"""

import ast
import importlib
import importlib.util
import re
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.evaluation import figures
from repro.evaluation.figures import FIGURES
from repro.features import datasets
from repro.features.datasets import build_imsi_like_dataset

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"
SERVING_DOC = ROOT / "docs" / "serving.md"


def _tiny_builder(*, scale, seed, **kwargs):
    """A miniature stand-in for the documented corpus builder.

    Same signature and return type as
    :func:`repro.features.datasets.build_imsi_like_dataset`; only the size
    shrinks, so every documented call runs unchanged.
    """
    return build_imsi_like_dataset(
        scale=0.03, n_hue_bins=4, n_saturation_bins=4, pixels_per_image=200, seed=seed
    )


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"docs_example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Registered so dataclasses/pickle introspection inside the example
    # can resolve the module.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(spec.name, None)
        raise
    return module


class TestPackageDocstringQuickstart:
    def _quickstart_block(self) -> str:
        docstring = repro.__doc__
        assert "Quickstart::" in docstring, "the package docstring lost its quickstart"
        block = docstring.split("Quickstart::", 1)[1]
        # The literal block is everything indented after the marker.
        lines = [line for line in block.splitlines() if not line or line.startswith("    ")]
        return textwrap.dedent("\n".join(lines))

    def test_quickstart_block_executes(self, monkeypatch, capsys):
        """The documented progression runs, batch to serving, verbatim."""
        monkeypatch.setattr(datasets, "build_imsi_like_dataset", _tiny_builder)
        code = self._quickstart_block()
        assert "RetrievalServer" in code  # the serving stage is documented
        exec(compile(code, "<repro-quickstart>", "exec"), {})
        printed = capsys.readouterr().out
        assert printed.strip(), "the quickstart prints its measurements"


class TestExampleScripts:
    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("quickstart", {"scale": 0.03, "n_queries": 12, "batch_size": 4, "k": 8}),
            (
                "serving_session",
                {"scale": 0.03, "n_clients": 3, "queries_per_client": 4, "k": 6},
            ),
        ],
    )
    def test_example_main_runs(self, name, kwargs, monkeypatch, capsys):
        module = _load_example(name)
        # The miniature corpus keeps tier-1 fast; patching the builder the
        # example imported leaves the documented flow itself untouched.
        monkeypatch.setattr(module, "build_imsi_like_dataset", _tiny_builder)
        module.main(**kwargs)
        printed = capsys.readouterr().out
        assert printed.strip(), f"example {name} prints its narrative"

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_paper_experiments_run_every_figure(self, name, monkeypatch, capsys):
        module = _load_example("run_paper_experiments")
        # The dimensionality ablation builds its own corpora through the
        # registry's builder; both shrink to the miniature corpus.
        monkeypatch.setattr(module, "build_imsi_like_dataset", _tiny_builder)
        monkeypatch.setattr(figures, "build_imsi_like_dataset", _tiny_builder)
        module.main([name], scale=0.03, seed=5)
        printed = capsys.readouterr().out
        assert f"[{name}]\n" in printed
        assert "\n--" in printed  # the table's header rule


def _documented_ops() -> "set[str]":
    """The op names in the first column of the ``### Ops`` table."""
    lines = SERVING_DOC.read_text(encoding="utf-8").splitlines()
    start = lines.index("### Ops") + 1
    ops = set()
    for line in lines[start:]:
        if line.startswith("#"):
            break
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("`"):
            ops.add(cells[0].strip("`"))
    return ops


def test_the_op_table_names_every_served_op(tiny_collection):
    from repro.database.engine import RetrievalEngine
    from repro.serving.server import ServingCore

    core = ServingCore(RetrievalEngine(tiny_collection))
    served = set(core._ops)
    core.shutdown(own_engine=False)
    assert _documented_ops() == served
    assert len(served) == 17


#: A ``from repro… import …`` statement at the start of a line, parenthesised
#: name lists included.
_REPRO_IMPORT = re.compile(r"^[ \t]*from repro(?:\.\w+)* import (?:\([^)]*\)|.*)$", re.MULTILINE)


def _documented_texts() -> "dict[str, str]":
    """Every documented source that imports from ``repro``, by name."""
    paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")), *sorted(EXAMPLES_DIR.glob("*.py"))]
    texts = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in paths}
    texts["repro.__doc__"] = repro.__doc__
    return {name: text for name, text in texts.items() if _REPRO_IMPORT.search(text)}


@pytest.mark.parametrize("source", list(_documented_texts()))
def test_every_documented_import_resolves(source):
    """Only the docstring's quickstart runs verbatim; the other import lines
    would go stale unnoticed when a name moves."""
    unresolved = []
    for match in _REPRO_IMPORT.finditer(_documented_texts()[source]):
        (statement,) = ast.parse(textwrap.dedent(match.group(0))).body
        module = importlib.import_module(statement.module)
        for alias in statement.names:
            if hasattr(module, alias.name):
                continue
            try:
                importlib.import_module(f"{statement.module}.{alias.name}")
            except ImportError:
                unresolved.append(f"{statement.module}.{alias.name}")
    assert unresolved == []
