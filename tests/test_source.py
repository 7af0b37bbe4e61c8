"""Rules on the package source itself."""

import ast
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import symfano
from symfano.exact import ProjPoint, Record
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


def _classes_defining(names: set[str]) -> set[tuple[str, str, str]]:
    """Each (file, class, member) of the package whose class defines one of ``names``."""
    return {
        (str(path.relative_to(PACKAGE)), node.name, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.ClassDef)
        for name in _class_members(node) & names
    }


def test_only_record_writes_the_immutability_rule():
    # every value type is an ``exact.Record``, which alone refuses attribute writes
    found = _classes_defining({"__setattr__", "__delattr__"})
    assert found == {("exact.py", "Record", "__setattr__"), ("exact.py", "Record", "__delattr__")}


def _calls_to(func: str) -> list[tuple[str, tuple[str, ...], ast.Call]]:
    """Each call of ``func`` in the package: its file, the classes and
    functions it sits in, outermost first, and the call."""
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == func:
                found.append((path, scope, child))
            visit(child, path, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), str(path.relative_to(PACKAGE)), ())
    return found


def test_only_the_trusted_constructors_build_past_init():
    # ``Record._make`` stores fields as given and serves every copy; only
    # ``ProjPoint``, whose radicand is stored beside its one field, keeps its own
    found = {(path, scope) for path, scope, _ in _calls_to("object.__new__")}
    assert found == {("exact.py", ("Record", "_make")), ("exact.py", ("ProjPoint", "_make"))}


def test_only_record_and_projpoint_say_how_a_value_is_copied():
    found = _classes_defining({"__reduce__", "__reduce_ex__", "__copy__", "__deepcopy__", "__getstate__", "__setstate__"})
    assert found == {("exact.py", "Record", "__reduce__"), ("exact.py", "ProjPoint", "__reduce__")}


def test_no_record_stores_an_attribute_beside_its_fields():
    # a copy rebuilt from the fields alone keeps everything else a value
    # offers only when it is computed; ``ProjPoint`` stores its radicand
    # and copies it itself
    found = []
    for path, scope, call in _calls_to("object.__setattr__"):
        module = import_module("symfano." + path.removesuffix(".py").replace(os.sep, "."))
        cls = getattr(module, scope[0], None) if scope else None
        if cls in (Record, ProjPoint):
            continue
        name = call.args[1].value if len(call.args) == 3 and isinstance(call.args[1], ast.Constant) else None
        if not (isinstance(cls, type) and issubclass(cls, Record) and name in cls._fields):
            found.append(f"{path}:{call.lineno}")
    assert found == []


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


def test_selftest_run_as_a_module_imports_cli_once(fresh_env):
    # under ``python -m symfano.cli`` the module runs as ``__main__``;
    # importing it by name would load a second copy with a second ``Report``
    command = [sys.executable, "-X", "importtime", "-m", "symfano.cli", "selftest", "--cases", "1"]
    out = subprocess.run(command, env=fresh_env, capture_output=True, text=True, check=True)
    imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")]
    assert "symfano.selftest" in imported and "symfano.cli" not in imported
    assert out.stdout.splitlines() == [
        "subject: selftest(seed=0, cases=1)",
        *(f"  {name}: pass" for name, _ in SUITES),
    ]


def _functions_raising_internal_error(path: Path) -> list[ast.FunctionDef]:
    """The innermost function around each ``raise InternalError`` in ``path``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc) == "InternalError":
                    found.append(function)
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return found


def test_every_listed_mutant_is_killed(capsys):
    # one pytest child for the unmutated copy and one per mutant, as a hand
    # run of ``python tests/run_mutants.py`` makes; its output names survivors
    import run_mutants

    assert run_mutants.main() == 0, capsys.readouterr().out


def test_every_internal_check_has_a_listed_mutant():
    # ``test_every_listed_mutant_is_killed`` runs each listed mutant; this
    # rule keeps the list in step with the source it mutates
    from mutants import MUTANTS

    root = PACKAGE.parent.parent
    spans = {}
    for m in MUTANTS:
        text = (root / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, (m.file, m.old)
        first = text[: text.index(m.old)].count("\n") + 1
        spans.setdefault(m.file, []).append((first, first + m.old.rstrip("\n").count("\n")))
        for test in m.tests:
            file, name = test.split("::")
            tree = ast.parse((root / file).read_text(encoding="utf-8"))
            assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
    unlisted = []
    for path in sorted(PACKAGE.rglob("*.py")):
        file = str(path.relative_to(root))
        for function in _functions_raising_internal_error(path):
            if function is None or not any(
                function.lineno <= first and last <= function.end_lineno for first, last in spans.get(file, ())
            ):
                unlisted.append(f"{file}:{getattr(function, 'name', '<module>')}")
    assert unlisted == []
