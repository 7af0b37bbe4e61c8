"""Rules on the package source itself."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import symfano
from symfano.exact import Record
from symfano.selftest import SUITES

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


def _stores_a_parameter(statement: ast.stmt, parameters: set[str]) -> bool:
    """Whether ``statement`` is ``object.__setattr__(self, "field", parameter)``."""
    call = statement.value if isinstance(statement, ast.Expr) else None
    return (
        isinstance(call, ast.Call)
        and ast.unparse(call.func) == "object.__setattr__"
        and len(call.args) == 3
        and isinstance(call.args[0], ast.Name) and call.args[0].id == "self"
        and isinstance(call.args[1], ast.Constant) and isinstance(call.args[1].value, str)
        and isinstance(call.args[2], ast.Name) and call.args[2].id in parameters
    )


def test_no_record_writes_a_constructor_that_only_stores_its_arguments():
    # ``Record.__init__`` builds a value from its fields; a constructor that
    # only copies its parameters into them states the fields a second time
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not (isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "Record" for b in node.bases)):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    parameters = {a.arg for a in item.args.args[1:] + item.args.kwonlyargs}
                    body = [s for s in item.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
                    if body and all(_stores_a_parameter(s, parameters) for s in body):
                        found.append(f"{path.relative_to(PACKAGE)}:{node.name}")
    assert found == []


def test_every_record_has_a_value_case():
    # the immutability, copy and pickle checks of ``test_tvariety`` run on
    # the classes its two case lists name, so no value type may be missing
    from test_tvariety import _record_cases, _value_type_cases

    for info in pkgutil.iter_modules([str(PACKAGE)]):
        import_module(f"symfano.{info.name}")
    records, stack = set(), [Record]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("symfano."):
                records.add(cls)
    covered = {case[0] for case in _record_cases()} | {type(value) for value in _value_type_cases()}
    assert sorted(cls.__qualname__ for cls in records - covered) == []


def _env() -> dict[str, str]:
    """The environment with the package's source first on ``PYTHONPATH``."""
    src = str(PACKAGE.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _modules_loaded_by(argv: list[str]) -> set[str]:
    """The package modules that a fresh interpreter has loaded after one command."""
    script = (
        "import contextlib, io, json, sys\n"
        "from symfano.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    run({argv!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'symfano')))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True, text=True, check=True)
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


def test_selftest_run_as_a_module_imports_cli_once():
    # under ``python -m symfano.cli`` the module runs as ``__main__``;
    # importing it by name would load a second copy with a second ``Report``
    command = [sys.executable, "-X", "importtime", "-m", "symfano.cli", "selftest", "--cases", "1"]
    out = subprocess.run(command, env=_env(), capture_output=True, text=True, check=True)
    imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")]
    assert "symfano.selftest" in imported and "symfano.cli" not in imported
    assert out.stdout.splitlines() == [
        "subject: selftest(seed=0, cases=1)",
        *(f"  {name}: pass" for name, _ in SUITES),
    ]
