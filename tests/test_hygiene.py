"""Source hygiene: no module in src/ktk imports a name it never uses or binds
a local it never reads.  The package's own __init__ re-exports its imports,
so it is left out of that check.  No module in src/ktk, __init__ included,
has an `assert` statement: `python -O` strips them, so no invariant may rest
on one."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ktk"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _loaded_names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _loaded_names(tree)
    return [name for name in imported if name not in used]


def unread_locals(tree: ast.Module) -> list[str]:
    """Plain `name = ...` assignments in a function whose name it never reads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        used = _loaded_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in used:
                        out.append(f"{fn.name}.{target.id} (line {node.lineno})")
    return out


def assert_lines(tree: ast.Module) -> list[int]:
    """Line numbers of the `assert` statements in tree."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports_or_unread_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []
    assert unread_locals(tree) == []


def test_scanner_finds_both_faults():
    tree = ast.parse(
        "from math import comb, perm\n"
        "def f(x: perm):\n"
        "    box = comb(2, 1)\n"
        "    y = 1\n"
        "    return x + y\n"
    )
    assert unused_imports(tree) == []
    assert unread_locals(tree) == ["f.box (line 3)"]
    assert unused_imports(ast.parse("import os, json\njson.dumps(1)\n")) == ["os"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(ast.parse(path.read_text(), filename=str(path))) == []


def test_scanner_finds_asserts():
    tree = ast.parse(
        "def f(x):\n"
        "    assert x, 'x must be set'\n"
        "    if x > 1:\n"
        "        assert x < 9\n"
        "    return x\n"
    )
    assert assert_lines(tree) == [2, 4]
    assert assert_lines(ast.parse("raise AssertionError('no statement')\n")) == []
