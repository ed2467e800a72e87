"""The package's dependency direction, checked statically.

The evaluation layer reproduces the paper's experiments on top of the
library and never reaches into the serving layer; the serving layer is
measured from outside by the ``bench`` benchmark.  Nothing under ``src/``
imports the repository's measurement code (``benchmarks/``, ``bench/``):
measurement depends on the library, never the reverse.  Imports are read
with :mod:`ast`, so lazy imports inside functions and ``TYPE_CHECKING``
blocks count too; a fresh interpreter then checks the same direction
transitively, on what importing each module actually loads.

Every library module and every public symbol earns its place: something
that runs reaches it.  The roots are what runs: the served process
``bench/server_main.py`` builds, what the load generator, the oracle and
the workload generator of ``bench`` import and call, and the paper's
``FIGURES`` registry.  ``bench/trace.py`` is not a root: its side probes
measure layers that no workload runs.  A module no root reaches by import,
and a public function, class, method or property whose name nothing
reachable reads, is deleted or sits on an allowlist that may only shrink,
with one of four reasons: a side probe (``bench/trace.py:<line>``), a test
oracle (the test id), an example (``examples/<file>.py:<line>``) or a
ROADMAP item.

The serving layer's wire is guarded the same way: nothing under
``repro/serving`` imports pickle, no configuration field, client parameter
or export offers a pickle or legacy mode, and the handshake is one
function of the codec module that both front ends call.

Parallelism has one place too: the shard fan-out of ``ShardedEngine``.
No module starts a process pool, the thread ``WorkerPool`` has no backend
choice, and neither the loop scheduler nor the evaluation session splits
work across workers of its own.  A live read is one scan, so the segment
layer imports neither the top-k merge nor a part fan-out.

A server process loads only what serving runs: the benchmark's server
child, started fresh, imports neither the experiments nor the shard layer,
the metric trees, the event-loop front end or the client pool.

Each source file is parsed once per session and shared by every check.
"""

import ast
import dataclasses
import functools
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EVALUATION = SRC / "repro" / "evaluation"
SERVING = SRC / "repro" / "serving"


@functools.lru_cache(maxsize=None)
def parsed(path: pathlib.Path) -> ast.Module:
    """The syntax tree of ``path``, parsed once per session."""
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.lru_cache(maxsize=None)
def imported_modules(path: pathlib.Path) -> "frozenset[str]":
    """Every module ``path`` imports, as absolute dotted names.

    ``from a.b import c`` yields both ``a.b`` and ``a.b.c`` (``c`` may be a
    submodule); relative imports are resolved against the file's package,
    under ``src/`` for the library and under the repository root otherwise.
    """
    base = SRC if SRC in path.parents else ROOT
    package = list(path.relative_to(base).with_suffix("").parts)[:-1]
    modules: "set[str]" = set()
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            modules.add(module)
            modules.update(f"{module}.{alias.name}" for alias in node.names)
    return frozenset(modules)


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


#: The ``bench`` files whose calls run on every benchmark run: the server
#: child builds the served process, the load generator drives it, the
#: oracle checks its answers and the workload generator feeds it.
BENCH_ROOTS = [ROOT / "bench" / name for name in ("server_main.py", "loadgen.py", "oracle.py", "workloads.py")]

#: The paper's experiment registry: every figure and ablation it runs.
FIGURES_ROOT = EVALUATION / "figures.py"

#: The four kinds of reason that keep an unreached module or symbol.
REASONS = {
    "side probe": re.compile(r"side probe, (bench/trace\.py):(\d+)$"),
    "test oracle": re.compile(r"test oracle, (tests/[\w/]+\.py)((?:::\w+)+)$"),
    "example": re.compile(r"example, (examples/\w+\.py):(\d+)$"),
    "ROADMAP item": re.compile(r"ROADMAP item, (.+)$"),
}

#: Library modules that no root reaches by import, each kept for the reason
#: given.  The list may only shrink: it is the deletion queue of the
#: ROADMAP's shard, async and pool items.
UNREACHED_ALLOWED = {
    "repro.wavelets.haar": "ROADMAP item, The wavelet view earns its keep or goes",
    "repro.wavelets.lifting": "ROADMAP item, The wavelet view earns its keep or goes",
    "repro.wavelets.thresholding": "ROADMAP item, The wavelet view earns its keep or goes",
    "repro.core.interpolation": (
        "test oracle, tests/test_core_locate_equivalence.py"
        "::TestStructureAndBytes::test_predictions_are_interpolate_payloads_on_the_oracle_leaf"
    ),
    "repro.features.synthetic": (
        "test oracle, tests/test_fast_precision.py::TestFastPrecisionIdentity::test_fast_matches_exact_across_distances_and_k"
    ),
    "repro.database.sharding": "side probe, bench/trace.py:39",
    "repro.serving.async_server": "side probe, bench/trace.py:49",
    "repro.serving.pool": "side probe, bench/trace.py:51",
}

#: Public symbols of reached modules whose name nothing reachable reads,
#: each kept for the reason given.  The list may only shrink.
UNREAD_ALLOWED = {
    "repro.core.analysis.iter_nodes": (
        "test oracle, tests/test_core_locate_equivalence.py::TestStructureAndBytes::test_every_split_equals_simplex_split"
    ),
    "repro.core.simplex_tree.SimplexTree.leaf_count": (
        "test oracle, tests/test_core_simplex_tree.py"
        "::TestLookupAndStatistics::test_constant_time_measurements_equal_a_full_walk_after_every_insert"
    ),
    "repro.core.simplex_tree.SimplexTree.lookup": (
        "test oracle, tests/test_core_locate_equivalence.py::TestLocation::test_counted_lookup_is_the_same_walk"
    ),
    "repro.core.simplex_tree.SimplexTree.stored_payload": (
        "test oracle, tests/test_core_locate_equivalence.py"
        "::TestStructureAndBytes::test_predictions_are_interpolate_payloads_on_the_oracle_leaf"
    ),
    "repro.database.budget.Budget.note_shard": "side probe, bench/trace.py:510",
    "repro.database.index.KSelectionAutotuner.decisions": "side probe, bench/trace.py:345",
    "repro.database.index.k_selection_autotuner": "side probe, bench/trace.py:345",
    "repro.database.index.merge_topk": "side probe, bench/trace.py:510",
    "repro.database.segments.LiveCollection.index_distance": "side probe, bench/trace.py:357",
    "repro.distances.base.DistanceFunction.pairwise": "side probe, bench/trace.py:300",
    "repro.distances.weighted_euclidean.pairwise_per_query_weights": "side probe, bench/trace.py:318",
    "repro.features.datasets.ImageDataset.category_of": (
        "test oracle, tests/test_features_datasets.py::TestImageDatasetAccessors::test_indices_of_category_consistent"
    ),
    "repro.features.histogram.HistogramExtractor.bin_index": (
        "test oracle, tests/test_features_histogram.py::TestHistogramExtractor::test_extract_from_rgb_red_image"
    ),
    "repro.feedback.scores.RelevanceJudgment.is_relevant": (
        "test oracle, tests/test_evaluation_simulated_user.py::TestSimulatedUser::test_judge_for_query_binds_category"
    ),
    "repro.geometry.bounding.unit_cube_root_vertices": (
        "test oracle, tests/test_geometry_triangulation.py::TestPartitionInvariant::test_leaves_cover_domain_samples"
    ),
    "repro.geometry.triangulation.IncrementalTriangulation.leaves": (
        "test oracle, tests/test_geometry_triangulation.py::TestPartitionInvariant::test_leaf_volumes_sum_to_root_volume"
    ),
    "repro.serving.bypass_registry.BypassRegistry.insert_log": (
        "test oracle, tests/test_serving_bypass.py::TestServedTreeEquivalence::test_concurrent_training_matches_local_replay"
    ),
    "repro.serving.client.ServingClient.run_feedback_session": "example, examples/serving_session.py:86",
    "repro.serving.client.ServingClient.set_timeout": "side probe, bench/trace.py:452",
    "repro.serving.server.RetrievalServer.bypass_registry": (
        "test oracle, tests/test_serving_bypass.py::TestServedTreeEquivalence::test_concurrent_training_matches_local_replay"
    ),
}


def _reached_modules() -> "set[str]":
    """The library modules reached by import from the roots, roots included.

    The examples are not roots: they show the library, and a module only an
    example imports has no workload or figure that runs it.
    """
    roots = [FIGURES_ROOT]
    for path in BENCH_ROOTS:
        roots += [
            target
            for module in imported_modules(path)
            if (target := _module_path(module)) is not None
        ]
    reached = {_module_name(path) for path in roots}
    for path in roots:
        reached |= import_closure(path)
    return reached


def _check_reason(reason: str) -> None:
    """``reason`` is of one of the four kinds, and what it cites exists."""
    matches = [match for pattern in REASONS.values() if (match := pattern.match(reason))]
    assert matches, f"{reason!r} is not a side probe, test oracle, example or ROADMAP item"
    (match,) = matches
    if match.re is REASONS["ROADMAP item"]:
        assert f"**{match[1]}" in (ROOT / "ROADMAP.md").read_text(encoding="utf-8"), reason
    elif match.re is REASONS["test oracle"]:
        scope = parsed(ROOT / match[1]).body
        for name in match[2].split("::")[1:]:
            found = [node.body for node in scope if getattr(node, "name", None) == name]
            assert found, f"{reason!r}: no {name} in {match[1]}"
            scope = found[0]
    else:
        lines = (ROOT / match[1]).read_text(encoding="utf-8").splitlines()
        assert 0 < int(match[2]) <= len(lines) and lines[int(match[2]) - 1].strip(), reason


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
    for reason in UNREACHED_ALLOWED.values():
        _check_reason(reason)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _reads(node: ast.AST) -> "set[str]":
    """Every name ``node`` reads: a ``Name``, an ``Attribute``, an
    ``ImportFrom`` alias, or a string constant that is an identifier (so
    ``getattr(engine, "is_live")`` and op tables count)."""
    names: "set[str]" = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) and child.value.isidentifier():
            names.add(child.value)
    return names


def unread_symbols(modules: "dict[str, ast.Module]", roots: "list[ast.Module]", kept=frozenset()) -> "set[str]":
    """The public symbols of ``modules`` whose name nothing live reads.

    A symbol is a top-level function or class, or a method or property of a
    top-level class, named ``module.name`` or ``module.Class.name``.  What
    is live grows to a fixed point from the ``roots``, the module-level
    statements of ``modules`` (``__all__`` aside) and the ``kept`` symbols:
    a symbol whose name a live body reads is live, and so is its body; a
    method also needs its class live, and a class's dunder methods are
    live with it.  Code read only from dead code stays dead.  Matching by
    name over-approximates use, so the check never flags live code.
    """
    symbols = {}  # qualified name -> (name, class or None, reads of its own body)
    live_reads: "set[str]" = set()
    for root in roots:
        live_reads |= _reads(root)
    for module, tree in modules.items():
        for statement in tree.body:
            if not isinstance(statement, _DEFINITIONS):
                if not any(getattr(target, "id", None) == "__all__" for target in getattr(statement, "targets", [])):
                    live_reads |= _reads(statement)
                continue
            qualified = f"{module}.{statement.name}"
            if isinstance(statement, ast.ClassDef):
                own = [*statement.decorator_list, *statement.bases, *statement.keywords]
                own += [node for node in statement.body if not isinstance(node, _FUNCTIONS)]
                symbols[qualified] = (statement.name, None, set().union(*map(_reads, own)))
                for method in statement.body:
                    if isinstance(method, _FUNCTIONS):
                        symbols[f"{qualified}.{method.name}"] = (method.name, qualified, _reads(method))
            else:
                symbols[qualified] = (statement.name, None, _reads(statement))
    live: "set[str]" = set()
    pending = set(kept)
    while True:
        live |= pending
        live_reads.update(*(symbols[qualified][2] for qualified in pending))
        pending = {
            qualified
            for qualified, (name, owner, _) in symbols.items()
            if qualified not in live
            and (owner is None or owner in live)
            and (name in live_reads or (owner is not None and name.startswith("__") and name.endswith("__")))
        }
        if not pending:
            break
    return {qualified for qualified, (name, _, _) in symbols.items() if qualified not in live and not name.startswith("_")}


def test_unread_symbols_reads_strings_and_follows_dead_code():
    source = ast.parse(
        "TABLE = {'op': 'is_live'}\n"
        "def used(): return helper()\n"
        "def helper(): return 1\n"
        "def dead(): return only_from_dead()\n"
        "def only_from_dead(): return 2\n"
        "def recursive(): return recursive()\n"
        "class Engine:\n"
        "    def __len__(self): return self.counted()\n"
        "    def counted(self): return 0\n"
        "    def is_live(self): return True\n"
        "    def unused(self): return False\n"
        "class Orphan:\n"
        "    def is_live(self): return True\n"
    )
    root = ast.parse("from lib import Engine\nused()\n")
    assert unread_symbols({"lib": source}, [root]) == {
        "lib.dead",
        "lib.only_from_dead",
        "lib.recursive",
        "lib.Engine.unused",
        "lib.Orphan",
        "lib.Orphan.is_live",
    }
    assert unread_symbols({"lib": source}, [root], kept={"lib.dead"}) == {
        "lib.recursive",
        "lib.Engine.unused",
        "lib.Orphan",
        "lib.Orphan.is_live",
    }


#: One case of the symbol rule each: library modules, root source, kept
#: symbols, and the symbols the rule must flag.
SYMBOL_RULE_CASES = {
    "a getattr string reads a method": (
        {"lib": "class Engine:\n    def is_live(self): return True\n    def other(self): return False\n"},
        "from lib import Engine\ngetattr(Engine(), 'is_live')\n",
        set(),
        {"lib.Engine.other"},
    ),
    "an import alias reads a function": (
        {"lib": "def wanted(): pass\ndef unwanted(): pass\n"},
        "from lib import wanted\n",
        set(),
        {"lib.unwanted"},
    ),
    "__all__ is no read": (
        {"lib": "__all__ = ['wanted', 'exported']\ndef wanted(): pass\ndef exported(): pass\n"},
        "from lib import wanted\n",
        set(),
        {"lib.exported"},
    ),
    "private names are never flagged": (
        {"lib": "def _helper(): pass\nclass Engine:\n    def _cache(self): pass\n"},
        "from lib import Engine\n",
        set(),
        set(),
    ),
    "a property is read as an attribute": (
        {"lib": (
            "class Tree:\n"
            "    @property\n    def size(self): return 1\n"
            "    @property\n    def unused(self): return 2\n"
        )},
        "from lib import Tree\nTree().size\n",
        set(),
        {"lib.Tree.unused"},
    ),
    "a method needs its class live": (
        {"lib": "class Live:\n    def run(self): pass\nclass Dead:\n    def run(self): pass\n"},
        "from lib import Live\nLive().run()\n",
        set(),
        {"lib.Dead", "lib.Dead.run"},
    ),
    "dunder methods are live with their class": (
        {"lib": "class Sized:\n    def __len__(self): return self.size()\n    def size(self): return 0\n"},
        "from lib import Sized\n",
        set(),
        set(),
    ),
    "module-level tables read their strings": (
        {"lib": "HANDLERS = {'ping': 'handle_ping'}\ndef handle_ping(): pass\ndef handle_pong(): pass\n"},
        "",
        set(),
        {"lib.handle_pong"},
    ),
    "a kept symbol keeps what it calls": (
        {"lib": "def probe(): return helper()\ndef helper(): pass\ndef other(): pass\n"},
        "",
        {"lib.probe"},
        {"lib.other"},
    ),
    "bases and decorators are read": (
        {"lib": "class Base: pass\n@register\nclass Child(Base): pass\ndef register(cls): return cls\n"},
        "from lib import Child\n",
        set(),
        set(),
    ),
    "async functions are symbols": (
        {"lib": "async def serve(): pass\nasync def idle(): pass\n"},
        "from lib import serve\n",
        set(),
        {"lib.idle"},
    ),
    "a read reaches across modules": (
        {
            "lib": "def helper(): pass\ndef only_from_dead(): pass\n",
            "app": "def run(): return helper()\ndef dead(): return only_from_dead()\n",
        },
        "from app import run\n",
        set(),
        {"app.dead", "lib.only_from_dead"},
    ),
}


@pytest.mark.parametrize("case", sorted(SYMBOL_RULE_CASES), ids=lambda case: case.replace(" ", "-"))
def test_the_symbol_rule(case):
    sources, root, kept, flagged = SYMBOL_RULE_CASES[case]
    modules = {module: ast.parse(source) for module, source in sources.items()}
    assert unread_symbols(modules, [ast.parse(root)], kept=kept) == flagged


@pytest.mark.parametrize(
    "reason",
    [
        "side probe, bench/trace.py:39",
        "test oracle, tests/test_layering.py::test_every_public_symbol_is_read",
        "test oracle, tests/test_core_simplex_tree.py::TestEmptyTree::test_prediction_outside_root_returns_default",
        "example, examples/serving_session.py:86",
        "ROADMAP item, The wavelet view earns its keep or goes",
    ],
    ids=["side-probe", "test-oracle-function", "test-oracle-method", "example", "roadmap-item"],
)
def test_a_reason_of_each_kind_is_accepted(reason):
    _check_reason(reason)


@pytest.mark.parametrize(
    "reason",
    [
        "kept for later",
        "side probe, bench/cli.py:1",
        "side probe, bench/trace.py:0",
        "side probe, bench/trace.py:1000000",
        "test oracle, tests/test_layering.py::test_no_such_test",
        "test oracle, tests/test_layering.py::NoSuchClass::test_every_public_symbol_is_read",
        "example, examples/serving_session.py:1000000",
        "ROADMAP item, An item the roadmap never names",
    ],
    ids=[
        "no-kind",
        "probe-in-another-file",
        "probe-line-zero",
        "probe-line-past-the-end",
        "oracle-missing-test",
        "oracle-missing-class",
        "example-line-past-the-end",
        "roadmap-title-missing",
    ],
)
def test_a_reason_that_cites_nothing_is_refused(reason):
    with pytest.raises(AssertionError):
        _check_reason(reason)


def test_every_public_symbol_is_read():
    """No public function, class, method or property of a reached module
    survives unless something reachable reads its name.

    Re-exports in a package ``__init__`` are not reads, and neither are the
    tests: a helper only a test calls goes with that test, unless the test
    uses it as an oracle.  An allowlisted symbol must exist and stay unread
    without its entry: once something reads it, or it is deleted, its
    entry goes.
    """
    modules = {
        module: parsed(path)
        for module in sorted(_reached_modules())
        if (path := _module_path(module)).name != "__init__.py"
    }
    roots = [parsed(path) for path in BENCH_ROOTS]
    assert sorted(set(UNREAD_ALLOWED) - unread_symbols(modules, roots)) == []
    assert sorted(unread_symbols(modules, roots, kept=set(UNREAD_ALLOWED))) == []
    for reason in UNREAD_ALLOWED.values():
        _check_reason(reason)


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
        visit(parsed(path), "<module>", _module_name(path))
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
        if any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
            for node in ast.walk(parsed(path))
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


def test_the_engines_take_no_index():
    """The linear scan is the one access path behind the engines.

    FeedbackBypass queries carry a per-query ``(Δ, W)`` that no tree built
    for one fixed metric can serve, so no engine takes a metric index and
    no served module negotiates one; the trees stay standalone indexes.
    """
    from repro.database.engine import RetrievalEngine
    from repro.database.index import KNNIndex
    from repro.database.segments import LiveCollection
    from repro.database.sharding import ShardedEngine

    knobs = {"metric_index", "index_factory", "index_distance"}
    for engine in (RetrievalEngine, LiveCollection, ShardedEngine):
        taken = knobs & set(inspect.signature(engine).parameters)
        assert not taken, f"{engine.__name__} takes {sorted(taken)}"
    database = SRC / "repro" / "database"
    served = [database / name for name in ("engine.py", "segments.py", "sharding.py")]
    for path in served + _source_files(SERVING):
        text = path.read_text()
        assert ".supports(" not in text, path
        assert "KNNIndex" not in text, path
    assert not hasattr(KNNIndex, "supports")


def test_a_live_read_merges_nothing():
    """A live snapshot answers with one scan over its segments: no per-segment
    top-k lists, so no merge, no part fan-out and no worker-pool mapper."""
    from repro.database.segments import LiveSnapshot

    modules = imported_modules(SRC / "repro" / "database" / "segments.py")
    for name in ("repro.database.index.merge_topk", "repro.database.budget.fan_out"):
        assert name not in modules
    assert "mapper" not in inspect.signature(LiveSnapshot.execute).parameters


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
    tree = parsed(path)
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
