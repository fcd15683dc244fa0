"""The library checks nothing with ``assert``: ``python -O`` strips it."""

import ast
from pathlib import Path

import tpcurves

SOURCES = sorted(Path(tpcurves.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statement():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_walk_sees_an_assert():
    tree = ast.parse("def f(x):\n    assert x > 0\n    return x\n")
    assert any(isinstance(node, ast.Assert) for node in ast.walk(tree))
