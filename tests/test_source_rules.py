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
