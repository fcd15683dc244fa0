"""Every name a library module imports is used there or listed in its
``__all__``; the package ``__init__`` only re-exports, so it is skipped."""

import ast
from pathlib import Path

import tpcurves

SOURCES = sorted(path for path in Path(tpcurves.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")
# bench/test_bench.py checks that the benchmark tracer wraps and restores
# this binding, so it stays although tangent no longer calls it.
KEPT = {("tangent.py", "second_form")}


def unused_imports(source):
    """The names ``source`` imports but neither uses nor lists in
    ``__all__``, sorted."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_library_imports_are_used():
    assert SOURCES
    found = [(path.name, name) for path in SOURCES
             for name in unused_imports(path.read_text())]
    assert set(found) == KEPT, found


def test_unused_imports_are_found():
    source = ("import math\nimport numpy as np\nimport os.path\n"
              "from .jets import dot3, cross3\n"
              "__all__ = ['cross3']\n"
              "def f(x):\n    return np.sqrt(dot3(x, x))\n")
    assert unused_imports(source) == ["math", "os"]
