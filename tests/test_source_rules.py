"""Rules the package source keeps, checked on its syntax tree."""

import ast
import importlib
from collections import Counter
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


def test_only_synthesis_runs_the_bundled_solver_in_process():
    # Outside `minismt` itself, `synthesis._answer` is the one place that
    # answers a script with a `minismt.Interpreter` instead of a process.
    callers = sorted(
        path.name
        for path in SOURCES
        if path.name != "minismt.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "Interpreter")
            or (isinstance(node.func, ast.Name) and node.func.id == "Interpreter")
        )
    )
    assert callers == ["synthesis.py"]


def test_one_search_path():
    # Every check-sat searches the interpreter's own formula and rewinds it
    # before extending it: `minismt.Interpreter` is the one caller of
    # `.solve(`, and nothing copies a SatSolver, by a method, the `copy` or
    # `pickle` module, or through `__dict__` or `__new__`.
    solvers = []
    copies = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "solve"
                ):
                    solvers.append(f"{path.name}:{getattr(top, 'name', None)}")
                if (
                    (isinstance(node, ast.Import) and any(
                        a.name in ("copy", "pickle") for a in node.names
                    ))
                    or (isinstance(node, ast.ImportFrom) and node.module in ("copy", "pickle"))
                    or (isinstance(node, ast.Attribute) and node.attr in (
                        "__dict__", "__new__", "__copy__", "__deepcopy__", "clone"
                    ))
                    or (isinstance(node, ast.FunctionDef) and node.name in (
                        "__copy__", "__deepcopy__", "__reduce__", "clone"
                    ))
                ):
                    copies.append(f"{path.name}:{node.lineno}")
    assert solvers == ["minismt.py:Interpreter"]
    assert copies == []


def test_only_the_module_codec_library_and_cli_import_json():
    # `ir` holds the one JSON codec for modules, `library` reads manifests
    # and descriptors, and `cli` writes report.json.
    importers = sorted(
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "json" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "json")
    )
    assert importers == ["cli.py", "ir.py", "library.py"]


def test_solver_processes_start_through_one_popen_call():
    # One process transport: a single Popen call starts every solver
    # process, and pipes are the only way to talk to one.
    read = Counter()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "subprocess":
                read.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "subprocess"
            ):
                read[node.attr] += 1
    assert read["Popen"] == 1
    assert sorted(read) == ["PIPE", "Popen"]


def test_one_code_generator():
    # `semantics.compile_exprs` writes every evaluator and row loop; a second
    # `exec` would be a second generator beside it.
    found = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "exec"
    ]
    assert found == ["semantics.py"]


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
    # loop. The JSON parser's own depth limit bounds the one exception.
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
    assert sorted(found - {"ir.py:expr_from_dict"}) == []


def test_only_ir_lists_facts_per_node_class():
    # What each node class is called and how each notation spells it is
    # `ir.OPERATORS`; a dict keyed by, or a tuple, list or set of, three or
    # more `ir.<Class>` attributes in another module would be a second copy
    # of that table.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "ir.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, (ast.Dict, ast.Tuple, ast.List, ast.Set))
        and sum(
            isinstance(item, ast.Attribute)
            and isinstance(item.value, ast.Name)
            and item.value.id == "ir"
            and item.attr[:1].isupper()
            for item in (node.keys if isinstance(node, ast.Dict) else node.elts)
        ) >= 3
    ]
    assert found == []


def test_only_templates_reads_binding_candidates():
    # A binding hole's candidates and the rule that picks one stay in
    # `templates`; other modules ask `BindingHole.pick`.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "templates.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "candidates"
    ]
    assert found == []


def test_verilog_reads_decimal_digits_through_minismt_decimal():
    # `int` converts at most 4,300 decimal digits by default, so the Verilog
    # reader passes decimal digits to `minismt.decimal` and calls `int` only
    # with an explicit base, which may not be 10 or 0.
    path = Path(techmap.__file__).parent / "verilog.py"
    calls = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
    ]
    assert calls
    for call in calls:
        assert len(call.args) == 2 and not call.keywords, ast.unparse(call)
        base = call.args[1]
        assert not isinstance(base, ast.Constant) or base.value in (2, 8, 16), ast.unparse(call)


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
