"""The package's dependency direction, checked statically.

The evaluation layer reproduces the paper's experiments on top of the
library and never reaches into the serving layer; the serving layer is
measured from outside by the ``bench`` benchmark.  Nothing under ``src/``
imports the repository's measurement code (``benchmarks/``, ``bench/``):
measurement depends on the library, never the reverse.  Imports are read
with :mod:`ast`, so lazy imports inside functions and ``TYPE_CHECKING``
blocks count too; a fresh interpreter then checks the same direction
transitively, on what importing each module actually loads.

Every library module earns its place: it is reached by import from the
served path, a paper experiment or the benchmark, or it sits on a short
allowlist with a reason.

The serving layer's wire is guarded the same way: nothing under
``repro/serving`` imports pickle, no configuration field, client parameter
or export offers a pickle or legacy mode, and the handshake is one
function of the codec module that both front ends call.

Parallelism has one place too: the shard fan-out of ``ShardedEngine``.
No module starts a process pool, the thread ``WorkerPool`` has no backend
choice, and neither the loop scheduler nor the evaluation session splits
work across workers of its own.

A server process loads only what serving runs: the benchmark's server
child, started fresh, imports neither the experiments nor the shard layer,
the metric trees, the event-loop front end or the client pool.
"""

import ast
import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EVALUATION = SRC / "repro" / "evaluation"
SERVING = SRC / "repro" / "serving"


def imported_modules(path: pathlib.Path) -> "set[str]":
    """Every module ``path`` imports, as absolute dotted names.

    ``from a.b import c`` yields both ``a.b`` and ``a.b.c`` (``c`` may be a
    submodule); relative imports are resolved against the file's package,
    under ``src/`` for the library and under the repository root otherwise.
    """
    base = SRC if SRC in path.parents else ROOT
    package = list(path.relative_to(base).with_suffix("").parts)[:-1]
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
    unless a module imports them by name: a subpackage ``__init__``
    re-exports its whole layer, so following it would make every module
    depend on every sibling of what it imports.
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


@pytest.mark.parametrize("path", _source_files(SERVING), ids=lambda path: path.name)
def test_serving_never_reaches_evaluation(path):
    """Judges stay with the client: the wire carries judgments, never a judge."""
    offending = sorted(
        module for module in import_closure(path) if _within(module, "repro.evaluation")
    )
    assert offending == [], f"{path.name} reaches {offending}"


#: Library modules that no served path, experiment or benchmark imports,
#: each kept for the reason given.  The list may only shrink.
UNREACHED_ALLOWED = {
    "repro.wavelets.haar": "waits on the wavelet coarsening item of ROADMAP.md",
    "repro.wavelets.lifting": "waits on the wavelet coarsening item of ROADMAP.md",
    "repro.wavelets.thresholding": "waits on the wavelet coarsening item of ROADMAP.md",
    "repro.core.interpolation": "the determinant oracle of test_core_locate_equivalence",
    "repro.features.synthetic": "builds the corpora of the fast-precision grid",
}


def _reached_modules() -> "set[str]":
    """The library modules reached from the three roots, roots included.

    The roots are every module under ``repro/serving``, the paper's
    experiment registry and the library modules the ``bench`` benchmark
    imports.  The examples are not roots: they show the library, and a
    module only an example imports has no workload or figure that runs it.
    """
    roots = _source_files(SERVING) + [EVALUATION / "figures.py"]
    for path in _source_files(ROOT / "bench"):
        roots += [
            target
            for module in imported_modules(path)
            if (target := _module_path(module)) is not None
        ]
    reached = {_module_name(path) for path in roots}
    for path in roots:
        reached |= import_closure(path)
    return reached


def test_every_module_is_reached():
    """No library module survives without a caller that runs.

    Package ``__init__``s are exempt: a subpackage's re-exports are
    reached by a package import, and the ``repro`` root imports nothing.
    An allowlisted module must exist and stay unreached: once something
    reaches it, or it is deleted, its entry goes.
    """
    modules = {_module_name(path) for path in _source_files(SRC / "repro") if path.name != "__init__.py"}
    reached = _reached_modules()
    assert sorted(modules - reached - set(UNREACHED_ALLOWED)) == []
    assert sorted(set(UNREACHED_ALLOWED) & reached) == []
    assert sorted(set(UNREACHED_ALLOWED) - modules) == []


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


@pytest.mark.parametrize(
    "name",
    [
        "absorb_counters",
        "_run_subfrontier",
        "FrontierCoalescer",
        "turn_limit",
        "bypass_train_on_loops",
        "frontier_turn_searches",
        "max_wait",
        "solo_grace",
        "SOLO_GRACE",
        "run_grouped_by_k",
        "bypass_insert_batch",
    ],
)
def test_no_sub_frontier_machinery_remains(name):
    """The feedback loops are never split across workers, so nothing ships
    a frontier to a worker or folds a worker's counters back home; the
    server runs no frontier of its own — interactive sessions are its one
    feedback loop; and a served call has one request shape, batched by
    backpressure alone (no mixed-``k`` grouping, no batch insert op, no
    timed gather)."""
    offending = [
        str(path.relative_to(SRC))
        for path in _source_files(SRC / "repro")
        if name in path.read_text(encoding="utf-8")
    ]
    assert offending == []


def test_one_request_shape_per_served_call():
    """``QueryBatch`` is the one query type; nothing serves a mixed-``k`` batch
    or a batch insert, and the coalescer takes no clock setting."""
    import repro.database.query as query_module
    from repro.database.engine import QueryEngine
    from repro.serving import BypassRegistry, PooledServingClient, ServingClient
    from repro.serving.coalescer import RequestCoalescer

    assert not hasattr(query_module, "Query")
    for surface in (QueryEngine, ServingClient, PooledServingClient):
        assert not hasattr(surface, "run_batch"), surface.__name__
    for removed in ("insert_batch", "mopt_batch"):
        assert not hasattr(BypassRegistry, removed), removed
    parameters = inspect.signature(RequestCoalescer).parameters.values()
    assert [(parameter.name, parameter.kind) for parameter in parameters] == [
        ("engine", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("max_batch", inspect.Parameter.KEYWORD_ONLY),
    ]


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


#: What the served process never needs: the experiments, the corpus
#: generator, the wavelet view, the shard layer and metric trees, and the
#: event-loop front end and client pool with the runtimes they pull in.
NOT_SERVED = [
    "repro.evaluation",
    "repro.features",
    "repro.wavelets",
    "repro.database.sharding",
    "repro.database.mtree",
    "repro.database.vptree",
    "repro.serving.async_server",
    "repro.serving.pool",
    "asyncio",
    "multiprocessing",
]


def _import_statements(path: pathlib.Path, within: "str | None" = None) -> "list[str]":
    """The ``repro`` import statements of ``path`` (of its function ``within``), as source."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    if within is not None:
        (tree,) = [
            node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == within
        ]
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and _within(node.module, "repro")
    ]


def test_served_process_imports_only_the_served_path():
    """The benchmark's server child loads only what serving runs.

    Its import lines, run in a fresh interpreter, load none of
    :data:`NOT_SERVED`; the package roots import nothing eagerly that the
    served path does not run.  ``bench/trace.py``'s ``from repro.serving
    import (...)`` still resolves, the deferred front end and pool included.
    """
    served = _import_statements(ROOT / "bench" / "server_main.py", within="main")
    traced = [
        line
        for line in _import_statements(ROOT / "bench" / "trace.py")
        if line.startswith("from repro.serving import ")
    ]
    assert served and len(traced) == 1
    script = "\n".join(
        [
            "import sys",
            *served,
            f"print(*sorted(name for name in {NOT_SERVED!r} if name in sys.modules))",
            *traced,
        ]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=str(ROOT),
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == []
