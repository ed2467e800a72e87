"""Every module-level import is read somewhere in its module.

No linter runs over this repository, so an import left behind by a refactor
would otherwise live forever.  This checks every file under ``src/`` and
``tests/``: a name a module-level import binds must be loaded somewhere in
the module (at any depth), named inside a string annotation, or listed in
``__all__`` (a package's re-exports).  ``from __future__`` imports bind
nothing.

Two passes keep the whole walk well under a second: :mod:`symtable`, built
by the compiler in C, names the imports no scope of a module loads; only a
module with such a candidate is parsed with :mod:`ast`, which decides with
string annotations and ``__all__`` counted as reads.
"""

import ast
import pathlib
import symtable

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def _unloaded_imports(source: str, path: pathlib.Path) -> "set[str]":
    """Names imported at module level that no scope of the module loads."""
    module = symtable.symtable(source, str(path), "exec")
    imported = {symbol.get_name() for symbol in module.get_symbols() if symbol.is_imported()}
    if "from __future__ import annotations" in source:
        imported.discard("annotations")  # a compiler directive, read by the compiler
    if not imported:
        return imported
    loaded, pending = set(), [module]
    while pending:
        scope = pending.pop()
        for symbol in scope.get_symbols():
            if symbol.is_referenced() and (scope is module or not symbol.is_local()):
                loaded.add(symbol.get_name())
        pending.extend(scope.get_children())
    return imported - loaded


def _module_imports(tree: ast.Module):
    """``(bound name, line)`` of every import outside function and class bodies."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))


def _names_read(tree: ast.Module) -> "set[str]":
    """Loaded names, names inside string annotations, and ``__all__``."""
    read, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                read.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


def unused_imports(path: pathlib.Path) -> "list[str]":
    """``"name (line n)"`` of every module-level import nothing in ``path`` reads."""
    source = path.read_text(encoding="utf-8")
    if not _unloaded_imports(source, path):
        return []
    tree = ast.parse(source, filename=str(path))
    read = _names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in _module_imports(tree) if name not in read)


def test_every_import_is_read():
    unread = {}
    for path in SOURCES:
        names = unused_imports(path)
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}


def test_the_check_sees_what_it_must(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import time\n"
        "from typing import Any, Optional as Maybe\n"
        "from json import dumps, loads\n"
        "try:\n"
        "    import pickle\n"
        "except ImportError:\n"
        "    pickle = None\n"
        "__all__ = ['dumps']\n"
        "class Holder:\n"
        "    import sys\n"
        "def f(x: 'Maybe[int]') -> None:\n"
        "    import glob\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(module) == ["Any (line 4)", "loads (line 5)", "pickle (line 7)", "time (line 3)"]
