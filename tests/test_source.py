"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import jacobsthal

SOURCES = sorted(Path(jacobsthal.__file__).parent.glob("*.py"))


def _nodes():
    """``(file name, node)`` for every syntax node of the package."""
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield from ((path.name, node) for node in ast.walk(tree))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so a self-check written as one would
    # silently stop running; the engine raises typed errors instead
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the engine is stdlib-only: every import is relative or a stdlib module
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno} {module}" for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
