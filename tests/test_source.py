"""Rules on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symfano

PACKAGE = Path(symfano.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so every check must raise explicitly
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _class_members(node: ast.ClassDef) -> set[str]:
    """The names a class body defines, by ``def`` or by assignment."""
    names = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_only_record_writes_the_immutability_rule():
    # every value type is an ``exact.Record``, which alone refuses attribute writes
    found = {
        (str(path.relative_to(PACKAGE)), node.name, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ClassDef)
        for name in _class_members(node) & {"__setattr__", "__delattr__"}
    }
    assert found == {("exact.py", "Record", "__setattr__"), ("exact.py", "Record", "__delattr__")}


def _modules_loaded_by(argv: list[str]) -> set[str]:
    """The package modules that a fresh interpreter has loaded after one command."""
    script = (
        "import contextlib, io, json, sys\n"
        "from symfano.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    run({argv!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'symfano')))\n"
    )
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("fixture", ["pair-involution.json", "quadric.json", "p2-chow.json"])
def test_validate_loads_no_subject_module(fixture):
    # checking a document computes nothing, so it imports nothing that computes
    loaded = _modules_loaded_by(["validate", str(PACKAGE / "fixtures" / fixture)])
    assert loaded == {"symfano", "symfano.cli", "symfano.errors", "symfano.rationals", "symfano.schemas"}


def test_lct_loads_no_polyhedral_or_variety_module():
    loaded = _modules_loaded_by(["lct", str(PACKAGE / "fixtures" / "pair-triangle.json")])
    assert "symfano.groups" in loaded
    assert loaded.isdisjoint({"symfano.polyhedral", "symfano.quotients", "symfano.tvariety"})
