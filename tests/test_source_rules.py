"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import techmap

SOURCES = sorted(Path(techmap.__file__).parent.glob("*.py"))


def test_no_runtime_check_relies_on_assert():
    # `python -O` strips assert statements, and the solver child inherits
    # PYTHONOPTIMIZE, so a check written as `assert` may silently vanish.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_synthesis_starts_processes():
    # Starting and reaping solver processes stays in one module.
    importers = sorted(
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "subprocess" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "subprocess")
    )
    assert importers == ["synthesis.py"]


def _callee(func):
    """The name a call reaches directly: `f(...)`, `self.f(...)` or `cls.f(...)`."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in ("self", "cls"):
            return func.attr
    return None


def test_expression_walks_do_not_recurse():
    # Expressions can be nested past the interpreter's recursion limit, so
    # the modules that walk them do so through `ir.postorder` or another
    # loop. The JSON codec's own depth limit bounds the two exceptions.
    walkers = {"ir.py", "semantics.py", "synthesis.py", "emit.py", "templates.py"}
    found = {
        f"{path.name}:{fn.name}"
        for path in SOURCES
        if path.name in walkers
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _callee(node.func) == fn.name
    }
    assert sorted(found - {"ir.py:expr_from_dict", "ir.py:expr_to_dict"}) == []
