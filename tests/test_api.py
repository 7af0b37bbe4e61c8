"""The package's public names, resolved from their submodules on first use."""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

import symfano

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_public_names_are_the_submodule_objects():
    assert [
        name
        for name, module in symfano._API.items()
        if getattr(symfano, name) is not getattr(import_module(f"symfano.{module}"), name)
    ] == []


def test_star_import_and_dir_give_the_public_names():
    names = set(symfano._API)
    assert len(names) == 47 and set(symfano.__all__) == names
    assert names <= set(dir(symfano))
    namespace = {}
    exec("from symfano import *", namespace)
    assert set(namespace) - {"__builtins__"} == names
    assert symfano.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        symfano.no_such_name


def test_from_import_still_imports_submodules():
    namespace = {}
    exec("from symfano import cli, exact", namespace)
    assert namespace["cli"] is import_module("symfano.cli")
    assert namespace["exact"] is import_module("symfano.exact")


def test_readme_library_snippet_returns_one():
    text = README.read_text(encoding="utf-8")
    snippet = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = ast.parse(snippet).body
    namespace = {}
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), namespace)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace) == 1


def referenced_names(node, own=frozenset()):
    """The names that ``node`` loads, the attributes it reads and the names
    it imports, except a definition's own name inside that definition."""
    names = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            names |= referenced_names(child, own | {child.name})
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
        names |= referenced_names(child, own)
    return names - own


def test_every_public_name_is_reached_by_the_package_or_the_readme():
    # a public name that no module of the package uses and the README does
    # not document is surface that no command or reader reaches
    package = ROOT / "src" / "symfano"
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", README.read_text(encoding="utf-8"), re.S))
    documented = {name for name in symfano._API if re.search(rf"\b{name}\b", code)}
    assert set(symfano._API) - used - documented == set()
