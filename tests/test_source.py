"""Checks on the package source itself."""

import ast
from pathlib import Path

import jacobsthal

SOURCES = sorted(Path(jacobsthal.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so a self-check written as one would
    # silently stop running; the engine raises typed errors instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
