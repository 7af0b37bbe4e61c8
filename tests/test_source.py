"""Rules on the package source itself."""

import ast
from pathlib import Path

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
