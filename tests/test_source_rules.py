"""Rules the package source keeps, checked on its syntax tree."""

import ast
import importlib
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


def test_no_unused_imports():
    # A name imported but never read is dead weight; `from __future__`
    # imports change the compiler, not the namespace.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert found == []


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


def test_functions_the_benchmark_tracer_wraps_exist():
    # perfbench/tracing.py wraps techmap functions by name; a renamed one
    # would only fail a traced benchmark run. Read its lists without
    # importing it.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    lists = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "HOT")
    }
    assert sorted(lists) == ["HOT", "SPANNED"]
    missing = [
        f"{module}.{name}"
        for module, name, _ in lists["SPANNED"] + lists["HOT"]
        if not callable(getattr(importlib.import_module(f"techmap.{module}"), name, None))
    ]
    assert missing == []
