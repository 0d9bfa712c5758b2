"""Properties of the compiled evaluator and of the one exhaustive row loop.

The compiled evaluator is checked against an independent meaning of the
same term: the bundled solver, run in-process on its SMT-LIB lowering.
"""

import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techmap import ir, semantics, synthesis
from techmap.errors import HolePresent, TooManyInputBits, UnknownVar, ValidationError
from techmap.minismt import Interpreter, parse_forms, tokenize
from techmap.semantics import (
    compile_exprs,
    eval_concrete,
    eval_design,
    first_mismatch,
    input_rows,
    truth_table,
)

from util import VAR_POOL, rand_expr

envs = st.fixed_dictionaries({name: st.integers(0, (1 << w) - 1) for name, w in VAR_POOL})


@st.composite
def exprs(draw, max_width=10, max_depth=4, count=4):
    """`count` `rand_expr` expressions of a drawn width and depth.

    Hypothesis favours small, repeated integers, so the generator is seeded
    by a string of all three draws rather than by the seed alone, and one
    example carries several expressions. Depth starts at 2: shallower draws
    are mostly single leaves.
    """
    seed = draw(st.integers(0, 2**64 - 1))
    width = draw(st.integers(1, max_width))
    depth = draw(st.integers(2, max_depth))
    rng = random.Random(f"{seed}/{width}/{depth}")
    return [rand_expr(rng, width, depth) for _ in range(count)]


def solver_value(expr, env):
    """The value minismt gives `expr` once every pool variable is fixed."""
    term = semantics.lower_to_smt(expr, {name: name for name, _ in VAR_POOL})
    lines = []
    for name, w in VAR_POOL:
        lines.append(f"(declare-const {name} (_ BitVec {w}))")
        lines.append(f"(assert (= {name} #b{env[name]:0{w}b}))")
    lines.append(f"(declare-const result (_ BitVec {expr.width}))")
    lines.append(f"(assert (= result {term}))")
    lines += ["(check-sat)", "(get-value (result))"]
    out = io.StringIO()
    Interpreter(out).run(parse_forms(tokenize("\n".join(lines) + "\n")))
    status, model = out.getvalue().splitlines()
    assert status == "sat"
    return int(model.split("#b")[1].rstrip(")"), 2)


@settings(max_examples=200, deadline=None)
@given(exprs(), envs)
def test_compiled_evaluator_agrees_with_minismt(batch, env):
    for expr in batch:
        assert eval_concrete(expr, env) == solver_value(expr, env), str(expr)


@settings(max_examples=200, deadline=None)
@given(exprs(max_width=16, max_depth=5, count=2), envs, st.sets(st.sampled_from(VAR_POOL)))
def test_lowering_under_literal_bindings_is_lowering_after_substitution(batch, env, bound):
    consts = {name: ir.Const(width, env[name]) for name, width in bound}
    symbols = {name: name for name, _ in VAR_POOL}
    symbols.update((name, semantics.lower_to_smt(c, {})) for name, c in consts.items())
    for expr in batch:
        assert semantics.lower_to_smt(expr, symbols) == semantics.lower_to_smt(
            ir.substitute(expr, consts), symbols
        )


@settings(max_examples=200, deadline=None)
@given(exprs(max_width=16, max_depth=6, count=1), envs)
def test_error_contract(batch, env):
    (expr,) = batch
    value = eval_concrete(expr, env)
    assert 0 <= value < 1 << expr.width
    used, _ = ir.free_symbols(expr)
    for name, width in used.items():
        missing = {k: v for k, v in env.items() if k != name}
        with pytest.raises(UnknownVar) as info:
            eval_concrete(expr, missing)
        assert info.value.name == name
        with pytest.raises(ValidationError, match=f"value {1 << width} for '{name}'"):
            eval_concrete(expr, dict(env, **{name: 1 << width}))
        # The same symbol as a hole: unbound it cannot be evaluated, bound to
        # the variable's value it gives the variable's result.
        holed = ir.substitute(expr, {name: ir.Hole(name, width)})
        with pytest.raises(HolePresent):
            eval_concrete(holed, env)
        assert eval_concrete(holed, env, {name: env[name]}) == value
        with pytest.raises(ValidationError, match=f"for hole '{name}'"):
            eval_concrete(holed, env, {name: -1})


def test_every_mux_branch_reads_its_variables():
    # Every node is evaluated, so a variable feeding only the branch a Mux
    # does not take must still be bound and in range.
    expr = ir.Mux(ir.Const(1, 1), ir.Const(4, 3), ir.Var("x", 4))
    with pytest.raises(UnknownVar):
        eval_concrete(expr, {})
    with pytest.raises(ValidationError):
        eval_concrete(expr, {"x": 16})
    assert eval_concrete(expr, {"x": 9}) == 3


def test_compile_rejects_unbound_symbols():
    with pytest.raises(UnknownVar):
        compile_exprs([ir.Var("x", 1)], [("y", 1)])
    with pytest.raises(HolePresent):
        compile_exprs([ir.Hole("h", 1)], [], holes=[("g", 1)])


def test_names_cannot_reach_generated_code():
    names = ['a"b', "{c}', '", "#d\n); raise SystemExit #"]
    a, b, c = (ir.Var(n, 3) for n in names)
    odd = ir.Design("odd", tuple((n, 3) for n in names), (("y{", ir.Xor(ir.And(a, b), c)),))
    design = ir.from_json(ir.to_json(odd))
    for values, (y,) in truth_table(design):
        env = dict(zip(names, values))
        assert y == (values[0] & values[1]) ^ values[2]
        assert eval_design(design, env) == {"y{": y}
    with pytest.raises(ValidationError, match=re.escape(f"value 8 for '{names[2]}'")):
        eval_design(design, {names[0]: 0, names[1]: 0, names[2]: 8})


def test_cache_holds_its_nodes():
    # Each expression is freed after its call. Were the cache not holding
    # its nodes, the next expression could get the same id and be answered
    # by the stale function.
    for k in range(3 * semantics._CACHE_SIZE):
        expr = ir.Add(ir.Var("x", 8), ir.Const(8, k))
        assert eval_concrete(expr, {"x": 1}) == k + 1
    assert len(semantics._cache) <= semantics._CACHE_SIZE


def lut_bit(table, inputs):
    """Bit `index` of `table`, the index being the inputs' row number."""
    index = ir.Var(inputs[0][0], inputs[0][1])
    for name, width in inputs[1:]:
        index = ir.Concat(ir.Var(name, width), index)
    return ir.Extract(0, 0, ir.LShr(table, index))


def test_first_mismatch_returns_lowest_row():
    inputs = (("p", 1), ("q", 3))
    want_table = 0b1011_0110_0101_1001
    bad_rows = (3, 7, 12)
    got_table = want_table ^ sum(1 << row for row in bad_rows)
    want = compile_exprs([lut_bit(ir.Const(16, want_table), inputs)], inputs)
    got = compile_exprs([lut_bit(ir.Const(16, got_table), inputs)], inputs)
    rows = list(input_rows(inputs))
    assert rows == [tuple(semantics.row_env(inputs, row).values()) for row in range(16)]
    assert first_mismatch(got, rows, want) == 3
    assert first_mismatch(want, rows, want) is None

    outputs = []
    assert first_mismatch(want, input_rows(inputs), record=outputs) is None
    assert outputs == [((want_table >> row) & 1,) for row in range(16)]
    assert first_mismatch(got, rows, outputs) == 3

    # The same sketch with its table as a hole: the counterexample is the
    # lowest mismatching row too.
    design = ir.Design("t", inputs, (("y", lut_bit(ir.Const(16, want_table), inputs)),))
    sketch = (("y", lut_bit(ir.Hole("T", 16), inputs)),)
    problem = synthesis.SynthesisProblem(design, sketch, (("T", 16),))
    assert synthesis.exhaustive_counterexample(problem, {"T": got_table}) == {"p": 1, "q": 1}
    assert synthesis.exhaustive_counterexample(problem, {"T": want_table}) is None


def test_input_rows_limit():
    with pytest.raises(TooManyInputBits) as info:
        input_rows((("a", 9), ("b", 8)))
    assert (info.value.total, info.value.limit) == (17, semantics.EXHAUSTIVE_INPUT_BITS)
    assert next(input_rows((("a", 8), ("b", 8)))) == (0, 0)
