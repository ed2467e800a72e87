"""The package's dependency direction, checked statically.

The evaluation layer reproduces the paper's experiments on top of the
library and never reaches into the serving layer; the serving layer is
measured from outside by the ``bench`` benchmark.  Nothing under ``src/``
imports the repository's measurement code (``benchmarks/``, ``bench/``):
measurement depends on the library, never the reverse.  Imports are read
with :mod:`ast`, so lazy imports inside functions and ``TYPE_CHECKING``
blocks count too; a fresh interpreter then checks the same direction
transitively, on what importing each module actually loads.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
EVALUATION = SRC / "repro" / "evaluation"


def imported_modules(path: pathlib.Path) -> "set[str]":
    """Every module ``path`` imports, as absolute dotted names.

    ``from a.b import c`` yields both ``a.b`` and ``a.b.c`` (``c`` may be a
    submodule); relative imports are resolved against the file's package.
    """
    package = list(path.relative_to(SRC).with_suffix("").parts)[:-1]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules: "set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            modules.add(module)
            modules.update(f"{module}.{alias.name}" for alias in node.names)
    return modules


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def _source_files(root: pathlib.Path) -> "list[pathlib.Path]":
    files = sorted(root.rglob("*.py"))
    assert files, f"no Python sources under {root}"
    return files


def test_the_reader_sees_imports():
    modules = imported_modules(EVALUATION / "session.py")
    assert "repro.feedback.engine" in modules
    assert any(_within(module, "repro.database") for module in modules)


@pytest.mark.parametrize("path", _source_files(EVALUATION), ids=lambda path: path.name)
def test_evaluation_never_imports_serving(path):
    offending = sorted(
        module for module in imported_modules(path) if _within(module, "repro.serving")
    )
    assert offending == [], f"{path.name} imports {offending}"


def test_the_library_never_imports_measurement_code():
    offending = {
        str(path.relative_to(SRC)): sorted(
            module
            for module in imported_modules(path)
            if _within(module, "benchmarks") or _within(module, "bench")
        )
        for path in _source_files(SRC)
    }
    assert {path: modules for path, modules in offending.items() if modules} == {}


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _module_path(module: str) -> "pathlib.Path | None":
    """The source file of ``module`` under ``src/``, or ``None`` (a class, a
    third-party or standard-library module)."""
    base = SRC.joinpath(*module.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def import_closure(path: pathlib.Path) -> "set[str]":
    """Every library module ``path`` reaches through a chain of explicit imports.

    Parent packages that Python initialises on the way are not followed
    unless a module imports them by name: ``repro/__init__`` re-exports the
    whole library, serving included, so following it would make every
    module depend on everything.
    """
    seen: "set[str]" = set()
    pending = [path]
    while pending:
        for module in imported_modules(pending.pop()):
            target = _module_path(module)
            if target is not None and module not in seen:
                seen.add(module)
                pending.append(target)
    return seen


def test_the_closure_follows_chains():
    path = EVALUATION / "session.py"
    closure = import_closure(path)
    # The session never names the geometry; it reaches it through the
    # bypass's Simplex Tree.
    assert "repro.geometry.simplex" not in imported_modules(path)
    assert "repro.geometry.simplex" in closure
    assert all(_module_path(module) is not None for module in closure)


@pytest.mark.parametrize("path", _source_files(EVALUATION), ids=lambda path: path.name)
def test_evaluation_never_reaches_serving(path):
    offending = sorted(
        module for module in import_closure(path) if _within(module, "repro.serving")
    )
    assert offending == [], f"{path.name} reaches {offending}"


def test_importing_the_library_loads_no_measurement_code():
    """The whole library, imported in a fresh interpreter, loads neither.

    The interpreter starts in the repository root, where ``bench`` and
    ``benchmarks`` are importable, so an import of either anywhere in the
    library would succeed and show up in ``sys.modules`` rather than fail.
    """
    names = [_module_name(path) for path in _source_files(SRC / "repro")]
    script = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    importlib.import_module(name)\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=str(SRC.parent),
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = set(completed.stdout.split())
    assert set(names) <= loaded
    assert sorted(
        module for module in loaded if _within(module, "benchmarks") or _within(module, "bench")
    ) == []
