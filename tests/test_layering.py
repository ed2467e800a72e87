"""The package's dependency direction, checked statically.

The evaluation layer reproduces the paper's experiments on top of the
library and never reaches into the serving layer; the serving layer is
measured from outside by the ``bench`` benchmark.  Nothing under ``src/``
imports the repository's measurement code (``benchmarks/``, ``bench/``):
measurement depends on the library, never the reverse.  Imports are read
with :mod:`ast`, so lazy imports inside functions and ``TYPE_CHECKING``
blocks count too; a fresh interpreter then checks the same direction
transitively, on what importing each module actually loads.

The serving layer's wire is guarded the same way: nothing under
``repro/serving`` imports pickle, no configuration field, client parameter
or export offers a pickle or legacy mode, and the handshake is one
function of the codec module that both front ends call.

Parallelism has one place too: the shard fan-out of ``ShardedEngine``.
No module starts a process pool, the thread ``WorkerPool`` has no backend
choice, and neither the loop scheduler nor the evaluation session splits
work across workers of its own.
"""

import ast
import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
EVALUATION = SRC / "repro" / "evaluation"
SERVING = SRC / "repro" / "serving"


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


def _call_sites(matches) -> "dict[str, set[str]]":
    """``{module: {enclosing function, ...}}`` of every call ``matches`` accepts."""
    sites: "dict[str, set[str]]" = {}

    def visit(node, function: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, module)
                continue
            if isinstance(child, ast.Call) and matches(child.func):
                sites.setdefault(module, set()).add(function)
            visit(child, function, module)

    for path in _source_files(SRC / "repro"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, "<module>", _module_name(path))
    return sites


def _named(name: str):
    def matches(func) -> bool:
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )

    return matches


def test_the_feedback_loop_transition_is_written_once():
    """One module decides when a loop has converged and builds its result.

    The sequential loop, the frontier and the served sessions all drive the
    ``LoopCursor`` of ``repro.feedback.engine``; a second copy of the
    transition would need its own convergence test or its own result
    construction.  The codec's decoder rebuilds results it received, so it
    is the one construction allowed elsewhere.
    """
    assert set(_call_sites(_named("same_objects"))) == {"repro.feedback.engine"}
    constructions = _call_sites(_named("FeedbackLoopResult"))
    assert constructions.pop("repro.serving.codec", set()) <= {"_decode"}
    assert set(constructions) == {"repro.feedback.engine"}


@pytest.mark.parametrize("path", _source_files(SERVING), ids=lambda path: path.name)
def test_serving_never_imports_pickle(path):
    offending = sorted(
        module for module in imported_modules(path) if "pickle" in module.split(".")[0]
    )
    assert offending == [], f"{path.name} imports {offending}"


def test_no_pickle_or_legacy_mode_on_the_serving_surface():
    """No config field, client parameter or export names a pickle mode."""
    import repro.serving as serving

    names = [field.name for field in dataclasses.fields(serving.ServerConfig)]
    for client in (serving.ServingClient, serving.PooledServingClient):
        names += list(inspect.signature(client).parameters)
    names += list(serving.__all__)
    assert [name for name in names if "pickle" in name.lower() or "legacy" in name.lower()] == []


def test_the_clients_negotiate_no_codec():
    """One codec is spoken, so neither client takes a codec choice."""
    import repro.serving as serving

    for client in (serving.ServingClient, serving.PooledServingClient):
        assert "codec" not in inspect.signature(client).parameters, client.__name__


def _definitions(name: str) -> "set[str]":
    """The library modules that define a function called ``name``."""
    modules = set()
    for path in _source_files(SRC / "repro"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
            for node in ast.walk(tree)
        ):
            modules.add(_module_name(path))
    return modules


def test_the_handshake_is_written_once():
    """Both front ends answer a first frame with the codec's one function."""
    assert _definitions("answer_hello") == {"repro.serving.codec"}
    assert _call_sites(_named("answer_hello")) == {
        "repro.serving.server": {"handle"},
        "repro.serving.async_server": {"_handle_connection"},
    }
    assert _definitions("_open_conversation") == set()


def test_no_module_imports_a_process_pool():
    """Worker processes exist only as the process shard backend's own workers."""
    offending = {
        str(path.relative_to(SRC)): sorted(
            module for module in imported_modules(path) if module.endswith("ProcessPoolExecutor")
        )
        for path in _source_files(SRC / "repro")
    }
    assert {path: modules for path, modules in offending.items() if modules} == {}


@pytest.mark.parametrize("name", ["absorb_counters", "_run_subfrontier"])
def test_no_sub_frontier_machinery_remains(name):
    """The feedback loops are never split across workers, so nothing ships
    a frontier to a worker or folds a worker's counters back home."""
    offending = [
        str(path.relative_to(SRC))
        for path in _source_files(SRC / "repro")
        if name in path.read_text(encoding="utf-8")
    ]
    assert offending == []


def test_the_worker_pool_runs_threads_only():
    from repro.database.sharding import WorkerPool

    assert "backend" not in inspect.signature(WorkerPool).parameters
    assert not hasattr(WorkerPool, "backend")


def test_the_scheduler_has_one_entry_point():
    """A frontier runs on whatever engine the scheduler was given."""
    from repro.feedback.scheduler import LoopScheduler

    for removed in ("run_sharded", "run_loops", "frontier"):
        assert not hasattr(LoopScheduler, removed), removed


def test_the_session_has_no_sharding_knob():
    """The session gets parallelism only by running on a ``ShardedEngine``."""
    from repro.evaluation.session import InteractiveSession

    knobs = {"shards", "workers", "backend"}
    for name, member in inspect.getmembers(InteractiveSession):
        if name.startswith("__") and name != "__init__":
            continue
        if isinstance(member, property):
            assert name not in knobs, name
        elif callable(member):
            taken = knobs & set(inspect.signature(member).parameters)
            assert not taken, f"InteractiveSession.{name} takes {sorted(taken)}"
    assert not hasattr(InteractiveSession, "configure_sharding")


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
