"""Source hygiene: no unused imports and no never-read locals in the package
and in its tests.

The scan is a plain AST walk, so it needs no linter. A name counts as read
when it is loaded anywhere in its module (imports) or anywhere in its
function, nested functions included (locals). Names starting with ``_`` are
exempt from the local check, as throwaway targets.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oc_reason"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


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
