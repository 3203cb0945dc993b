"""Source hygiene: no module in src/ktk imports a name it never uses or binds
a local it never reads.  The package's own __init__ re-exports its imports,
so it is left out of that check; instead its `__all__` must list exactly
the names it imports, each of which resolves.  No module in src/ktk, __init__ included,
has an `assert` statement: `python -O` strips them, so no invariant may rest
on one.  No module-level private name in src/ktk is left without a reader
in src/ktk: tests alone do not keep code alive.  A CLI start imports every
ktk module and none of the modules that `dataclasses` would pull in.  Every
module parses as Python 3.10, the floor `pyproject.toml` declares, and the
CLI runs on a python3.10 when one starts, from PATH or installed by pyenv."""

import ast
import json
import os
import shutil
import subprocess
import sys
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


def test_init_exports_what_it_imports():
    """A name that leaves the imports of `ktk/__init__.py` must leave
    `ktk.__all__` too, and the other way round."""
    import ktk

    init = SRC / "__init__.py"
    tree = ast.parse(init.read_text(), filename=str(init))
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    assert sorted(ktk.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    namespace: dict = {}
    exec("from ktk import *", namespace)
    assert all(namespace[name] is getattr(ktk, name) for name in imported)


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


def _bound_names(stmt: ast.stmt) -> list[str]:
    """The names one module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _read_names(stmt: ast.stmt) -> set[str]:
    """The names one statement reads: as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """module:name for each module-level `_name` (dunders aside) that no
    module-level statement but its own definition reads, in any of trees."""
    reads = [(stmt, _read_names(stmt)) for tree in trees.values() for stmt in tree.body]
    return [
        f"{label}:{name}"
        for label, tree in trees.items()
        for stmt in tree.body
        for name in _bound_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for other, names in reads if other is not stmt)
    ]


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES}
    assert dead_private_names(trees) == []


def test_scanner_finds_dead_private_names():
    trees = {
        "a.py": ast.parse(
            "_CACHE: dict = {}\n"
            "_LIMIT = 3\n"
            "def _used(n):\n"
            "    return _CACHE.get(n)\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Box:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
        ),
        "b.py": ast.parse("from a import _used\nimport a\nprint(_used(1), a._Box)\n"),
    }
    assert dead_private_names(trees) == ["a.py:_LIMIT", "a.py:_recursive"]


def test_cli_start_imports_no_dataclasses():
    """`import ktk.cli` loads all six ktk modules, which the benchmark's traced
    run wraps from `sys.modules`, and none of the modules behind
    `dataclasses`, which cost every CLI start about 20 ms."""
    code = "import json, sys, ktk.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})
    ktk_modules = {f"ktk.{p.stem}" for p in MODULES} - {"ktk.cli"}
    assert len(ktk_modules) == 6 and ktk_modules <= loaded


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_modules_parse_as_python_3_10(path):
    """pyproject.toml declares requires-python >= 3.10, so no module may use
    syntax that 3.10 lacks."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _starts_as_3_10(exe: str) -> bool:
    probe = subprocess.run(
        [exe, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, text=True
    )
    return probe.returncode == 0 and probe.stdout.strip() == "(3, 10)"


def _python_3_10() -> str | None:
    """A python3.10 that starts: the one on PATH, else (as when that is a
    pyenv shim with no 3.10 selected) one that pyenv has installed."""
    candidates = [shutil.which("python3.10")]
    pyenv = shutil.which("pyenv")
    root = pyenv and subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
    if root:
        candidates += sorted(map(str, Path(root).glob("versions/3.10.*/bin/python3.10")))
    return next((exe for exe in candidates if exe and _starts_as_3_10(exe)), None)


def test_cli_solves_on_python_3_10():
    """A count with --solve, which runs the solver end to end, on a real
    3.10 interpreter; skipped when no python3.10 starts."""
    exe = _python_3_10()
    if exe is None:
        pytest.skip("no working python3.10 on PATH or installed by pyenv")
    argv = ["count", "--kind", "conformal", "--rank", "2", "--p", "1", "--q", "3", "--solve"]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([exe, "-m", "ktk.cli", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "count[conformal, m=4, j=2, s=1] = 84",
        "solver dimension = 84",
        "match",
    ]
