"""Source hygiene: no unused imports and no never-read locals in the package
and in its tests, no private helper that the package never reads, and no
name in the benchmark tracer's list that the package no longer defines.

The scan is a plain AST walk, so it needs no linter. A name counts as read
when it is loaded anywhere in its module (imports) or anywhere in its
function, nested functions included (locals). Names starting with ``_`` are
exempt from the local check, as throwaway targets. A module-level function
or class named ``_name`` counts as read when some module of the package
loads the name or reads it as an attribute outside the private helpers,
or inside a helper so read; what the tests read does not count, so a helper
kept only for them is a fork of the code in use.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oc_reason"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
HELPERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded(tree: ast.AST) -> set[str]:
    """Every name read under `tree`, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _loaded(ast.parse(node.value, mode="eval"))
    return names


def _own_stores(function: ast.AST) -> dict[str, int]:
    """The names a function binds in its own scope, with their first line:
    assignment and loop targets and nested definitions, not parameters."""
    stores: dict[str, int] = {}
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, SCOPES):
            if not isinstance(node, ast.Lambda):
                stores.setdefault(node.name, node.lineno)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.setdefault(node.id, node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return stores


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    loaded = _loaded(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    found.append((node.lineno, name))
    return found


def never_read_locals(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            loaded = set().union(*(_loaded(child) for child in node.body))
            found += [(line, name) for name, line in _own_stores(node).items()
                      if name not in loaded and not name.startswith("_")]
    return sorted(found)


def _reads(node: ast.AST) -> set[str]:
    """The names and attributes read under `node`."""
    return _loaded(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def dead_private_helpers(trees: dict[str, ast.Module]) -> list[tuple[str, int, str]]:
    """The module-level functions and classes named ``_name`` that no live
    code reads, by name or as an attribute, as (module, line, name). Code
    outside these helpers is live, and so is every helper that live code
    reads, to a fixed point: a helper read only by dead helpers or by
    itself is dead too."""
    helpers: dict[str, list[ast.AST]] = {}
    outside: set[str] = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, HELPERS) and node.name.startswith("_"):
                helpers.setdefault(node.name, []).append(node)
            else:
                outside |= _reads(node)
    live: set[str] = set()
    frontier = outside & helpers.keys()
    while frontier:
        live |= frontier
        read = set().union(*(_reads(node) for name in frontier for node in helpers[name]))
        frontier = (read & helpers.keys()) - live
    return [(module, node.lineno, node.name) for module, tree in trees.items()
            for node in tree.body if isinstance(node, HELPERS)
            and node.name.startswith("_") and node.name not in live]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports_or_never_read_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []
    assert never_read_locals(tree) == []


def test_the_scan_finds_both_kinds():
    tree = ast.parse(
        "import json\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence'):\n"
        "    def helper():\n"
        "        return 1\n"
        "    table = {}\n"
        "    total = 0\n"
        "    total += x\n"
        "    for _ in range(2):\n"
        "        pass\n"
        "    return total\n")
    assert unused_imports(tree) == [(1, "json")]
    assert never_read_locals(tree) == [(4, "helper"), (6, "table")]


def test_no_dead_private_helpers():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_helpers(trees) == []


def test_the_scan_finds_dead_private_helpers():
    trees = {
        "a.py": ast.parse(
            "def _used():\n"
            "    return 1\n"
            "def _dead():\n"
            "    return _used()\n"
            "class _Unread:\n"
            "    pass\n"
            "def _by_attribute():\n"
            "    pass\n"
            "def public():\n"
            "    return _used() + _via_helper()\n"
            "def _via_helper():\n"
            "    return _used()\n"
            "def _chain_head():\n"
            "    return _chain_tail()\n"
            "def _chain_tail():\n"
            "    return 2\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"),
        "b.py": ast.parse(
            "import a\n"
            "helper = a._by_attribute\n"),
    }
    assert dead_private_helpers(trees) == [
        ("a.py", 3, "_dead"), ("a.py", 5, "_Unread"), ("a.py", 13, "_chain_head"),
        ("a.py", 15, "_chain_tail"), ("a.py", 17, "_recursive")]


def test_traced_functions_exist():
    # perfbench/tracing.py rebinds each (module, function) of TRACED by name;
    # its list is read as a literal, so the benchmark is not imported
    source = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    assert len(traced) >= 10
    for module_name, function_name in traced:
        module = importlib.import_module(f"oc_reason.{module_name}")
        assert callable(getattr(module, function_name, None)), (module_name, function_name)
