"""Every name a library module imports is used there or listed in its
``__all__``, and every function or class it defines at top level is
referenced in the package or listed there; the package ``__init__`` only
re-exports, so it is skipped."""

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


def unreferenced_definitions(sources):
    """(module, name) of each top-level ``def`` or ``class`` of the library
    modules among ``sources``, a dict of file name to text, that no other
    top-level statement of any of them names and its module's ``__all__``
    does not list, sorted.  A name counts as read, an attribute or an
    imported name; a definition's own body does not count."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = {}  # name -> the top-level statements that reference it
    for name, tree in trees.items():
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                elif isinstance(node, ast.alias):
                    ref = node.name
                else:
                    continue
                referenced.setdefault(ref, set()).add(id(statement))
    found = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        exported = set()
        for statement in tree.body:
            if isinstance(statement, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in statement.targets):
                exported = set(ast.literal_eval(statement.value))
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and \
                    statement.name not in exported and not (
                        referenced.get(statement.name, set())
                        - {id(statement)}):
                found.append((name, statement.name))
    return sorted(found)


def test_library_definitions_are_referenced():
    sources = {path.name: path.read_text() for path in
               Path(tpcurves.__file__).parent.glob("*.py")}
    assert unreferenced_definitions(sources) == []


def test_unreferenced_definitions_are_found():
    sources = {
        "a.py": ("__all__ = ['public']\n"
                 "def public():\n    return _used()\n"
                 "def _used():\n    return 1\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Dead:\n    pass\n"
                 "def _imported():\n    pass\n"),
        "b.py": "from .a import _imported\n",
        "__init__.py": "def _package_only():\n    pass\n",
    }
    assert unreferenced_definitions(sources) == [
        ("a.py", "_Dead"), ("a.py", "_recursive")]
