"""Properties of the compiled evaluator and of its row loops.

The compiled evaluator is checked against an independent meaning of the
same term: the bundled solver, run in-process on its SMT-LIB lowering. The
scan and table forms are checked against `eval_concrete` called on every
hole assignment and row.
"""

import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techmap import ir, semantics, synthesis
from techmap.errors import (
    HolePresent,
    LimitExceeded,
    TooManyInputBits,
    UnknownVar,
    ValidationError,
    WidthMismatch,
)
from techmap.minismt import Interpreter, parse_forms, tokenize
from techmap.semantics import compile_exprs, eval_concrete, eval_design, row_env, truth_table

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


def test_scan_returns_lowest_row(monkeypatch):
    inputs = (("p", 1), ("q", 3))
    want_table = 0b1011_0110_0101_1001
    bad_rows = (3, 7, 12)
    got_table = want_table ^ sum(1 << row for row in bad_rows)
    want = compile_exprs([lut_bit(ir.Const(16, want_table), inputs)], inputs, form="table")(0)
    assert want == ([(want_table >> row) & 1 for row in range(16)],)
    decoded = compile_exprs([ir.Var("p", 1), ir.Var("q", 3)], inputs, form="table")(0)
    assert list(zip(*decoded)) == [tuple(row_env(inputs, row).values()) for row in range(16)]
    got = compile_exprs([lut_bit(ir.Const(16, got_table), inputs)], inputs, form="scan")
    assert got(want) == (None, 3)
    same = compile_exprs([lut_bit(ir.Const(16, want_table), inputs)], inputs, form="scan")
    assert same(want) == (0, None)

    # The same sketch with its table as a hole: the first matching index is
    # the table, and, with the wrong table filled in, the counterexample is
    # its lowest mismatching row.
    holed = compile_exprs([lut_bit(ir.Hole("T", 16), inputs)], inputs, [("T", 16)], form="scan")
    assert holed(want) == (want_table, None)
    design = ir.Design("t", inputs, (("y", lut_bit(ir.Const(16, want_table), inputs)),))
    sketch = (("y", lut_bit(ir.Hole("T", 16), inputs)),)
    problem = synthesis.SynthesisProblem(design, sketch, (("T", 16),))
    assert synthesis.exhaustive_counterexample(problem, {"T": got_table}) == {"p": 1, "q": 1}
    assert synthesis.exhaustive_counterexample(problem, {"T": want_table}) is None
    # A caller's hole value is checked once, before any row.
    with pytest.raises(ValidationError, match="value 65536 for hole 'T' does not fit width 16"):
        synthesis.exhaustive_counterexample(problem, {"T": 1 << 16})
    with pytest.raises(ValidationError, match="value -1 for hole 'T'"):
        synthesis.exhaustive_counterexample(problem, {"T": -1})
    with pytest.raises(HolePresent):
        synthesis.exhaustive_counterexample(problem, {})
    # A problem without holes is scanned as it is, with nothing substituted.
    filled = (("y", lut_bit(ir.Const(16, got_table), inputs)),)
    monkeypatch.setattr(ir, "substitute", None)
    assert synthesis.exhaustive_counterexample(
        synthesis.SynthesisProblem(design, filled, ()), {}
    ) == {"p": 1, "q": 1}


def scan_both(exprs, inputs, holes, want):
    """The scan form's answer, after checking it against `reference_scan`."""
    got = compile_exprs(exprs, inputs, holes, form="scan")(want)
    assert_scan_answer(got, reference_scan(exprs, inputs, holes, want), holes)
    return got


def assert_scan_answer(got, reference, holes):
    """The index is the reference's; the row is too for a scan with no
    holes, and for one with holes only says whether any index matched."""
    if holes:
        assert got[0] == reference[0] and (got[1] is None) == (reference[1] is None)
    else:
        assert got == reference


def test_scan_blocks_find_the_lowest_match(monkeypatch):
    monkeypatch.setattr(semantics, "PLANE_LANES", 4)
    inputs = (("x", 2),)
    want = compile_exprs([lut_bit(ir.Const(4, 0b0110), inputs)], inputs, form="table")(0)
    # Bits 0 and 1 of T are not read, so the four lanes of block 6 all match
    # and lane 0 wins; T's bits 2 to 5 are above the lane bits.
    sketch = [lut_bit(ir.Extract(5, 2, ir.Hole("T", 6)), inputs)]
    holes = (("T", 6),)
    assert scan_both(sketch, inputs, holes, want) == (24, None)
    # A hole space smaller than a block.
    monkeypatch.setattr(semantics, "PLANE_LANES", 128)
    assert scan_both(sketch, inputs, holes, want) == (24, None)


def test_scan_planes_of_two_holes_in_either_order(monkeypatch):
    monkeypatch.setattr(semantics, "PLANE_LANES", 8)
    inputs = (("x", 3),)
    a, b, x = ir.Hole("A", 2), ir.Hole("B", 3), ir.Var("x", 3)
    want = compile_exprs([ir.Add(ir.Mul(x, ir.Const(3, 3)), ir.Const(3, 5))], inputs, form="table")(0)
    sketch = [ir.Add(ir.Mul(x, ir.ZeroExt(a, 3)), b)]
    # A = 3 and B = 5: index 3 + 5 * 4 with A first, 5 + 3 * 8 with B first.
    assert scan_both(sketch, inputs, (("A", 2), ("B", 3)), want) == (23, None)
    assert scan_both(sketch, inputs, (("B", 3), ("A", 2)), want) == (29, None)


def test_scan_sees_a_mismatch_in_the_high_bit_alone(monkeypatch):
    # y is T[2x+1:2x]. Table 0b0100, found before 0b0110, differs from it
    # only in row 0's high bit, and 0b0110, found before 0b1110, differs
    # from that only in row 1's high bit.
    monkeypatch.setattr(semantics, "PLANE_LANES", 2)
    inputs = (("x", 1),)
    index = ir.Concat(ir.Var("x", 1), ir.Const(1, 0))
    y = ir.Extract(1, 0, ir.LShr(ir.Hole("T", 4), index))
    holes = (("T", 4),)
    assert scan_both([y], inputs, holes, ([0b10, 0b01],)) == (0b0110, None)
    assert scan_both([y], inputs, holes, ([0b10, 0b11],)) == (0b1110, None)


def test_loop_forms_input_bit_limit():
    wide = (("a", 9), ("b", 8))
    for form in ("table", "scan"):
        with pytest.raises(TooManyInputBits) as info:
            compile_exprs([ir.Var("a", 9)], wide, form=form)
        assert (info.value.total, info.value.limit) == (17, semantics.EXHAUSTIVE_INPUT_BITS)
    (column,) = compile_exprs([ir.Var("b", 8)], (("a", 8), ("b", 8)), form="table")(0)
    assert (len(column), column[0], column[-1]) == (1 << 16, 0, 255)
    design = ir.Design("wide", wide, (("y", ir.Var("a", 9)),))
    problem = synthesis.SynthesisProblem(design, (("y", ir.Var("a", 9)),), ())
    with pytest.raises(LimitExceeded) as info:
        synthesis.solve_brute_force(problem)
    assert (info.value.which, info.value.value, info.value.limit) == ("input bits", 17, 16)


def test_loop_forms_want_symbols_at_their_width():
    with pytest.raises(WidthMismatch):
        compile_exprs([ir.Var("x", 3)], [("x", 4)], form="table")
    assert compile_exprs([ir.Var("x", 3)], [("x", 4)])(7) == (7,)


def bits_high_to_low(value, bits):
    """`value` rebuilt from one-bit Extracts, by Concat, at bits in the order given:
    the first ends up most significant."""
    rebuilt = ir.Extract(bits[0], bits[0], value)
    for b in bits[1:]:
        rebuilt = ir.Concat(rebuilt, ir.Extract(b, b, value))
    return rebuilt


def statements(*exprs):
    """How many statements the evaluate form of `exprs` over an 8-bit x runs:
    its locals are its one parameter and one per statement."""
    return compile_exprs(exprs, [("x", 8)]).__code__.co_nlocals - 1


def test_a_value_rebuilt_bit_by_bit_folds_to_one_slice():
    x = ir.Var("x", 8)
    assert statements(bits_high_to_low(x, range(7, -1, -1))) == 0
    assert statements(bits_high_to_low(x, range(5, 1, -1))) == 1  # x >> 2 & 0xf
    sum_ = ir.Add(x, ir.Const(8, 1))
    assert statements(bits_high_to_low(sum_, range(7, -1, -1))) == 1
    # Reversed or non-adjacent bits do not fold: a statement per bit and per Concat.
    assert statements(bits_high_to_low(x, range(8))) == 15
    assert statements(bits_high_to_low(x, (6, 4))) == 3
    for value in (0, 1, 0x5A, 0xFF):
        assert eval_concrete(bits_high_to_low(x, range(8)), {"x": value}) == int(
            f"{value:08b}"[::-1], 2
        )


def reference_table(exprs, inputs, holes, index):
    """Each expression's values on every row, by `eval_concrete`, at hole index `index`."""
    hole_env = row_env(holes, index)
    rows = [
        [eval_concrete(e, row_env(inputs, row), hole_env) for e in exprs]
        for row in range(1 << sum(w for _, w in inputs))
    ]
    return tuple(map(list, zip(*rows)))


def reference_scan(exprs, inputs, holes, want):
    """What the scan form returns, by `reference_table`, with the last
    index's lowest mismatching row when no index matches."""
    for index in range(1 << sum(w for _, w in holes)):
        table = reference_table(exprs, inputs, holes, index)
        mismatches = [
            r for r in range(len(want[0])) if any(t[r] != w[r] for t, w in zip(table, want))
        ]
        if not mismatches:
            return index, None
        row = mismatches[0]
    return None, row


@st.composite
def loop_cases(draw):
    """Random expressions with one or two holes over at most 8 input bits,
    with rebuilt, reversed and non-adjacent slices of an input, a hole and a
    random value among them."""
    pool = dict(VAR_POOL)
    hole_names = draw(st.sampled_from([("v1",), ("v2",), ("v4",), ("v1", "v2"), ("v2", "v1")]))
    free = [n for n in ("v1", "v2", "v4", "v7") if n not in hole_names]
    input_names = draw(st.permutations(free))[: draw(st.integers(1, len(free)))]
    while sum(pool[n] for n in input_names) > 8:
        input_names = input_names[:-1]
    inputs = tuple((n, pool[n]) for n in input_names)
    holes = tuple((n, pool[n]) for n in hole_names)
    rng = random.Random(f"loops/{draw(st.integers(0, 2**64 - 1))}")
    bindings = {n: ir.Hole(n, w) for n, w in holes}
    bindings.update(
        (n, ir.Const(w, rng.getrandbits(w)))
        for n, w in VAR_POOL
        if n not in bindings and n not in input_names
    )
    exprs = [
        ir.substitute(rand_expr(rng, rng.randint(1, 8), rng.randint(2, 4)), bindings)
        for _ in range(3)
    ]
    for value in (ir.Var(*inputs[0]), ir.Hole(*holes[-1]), exprs[0]):
        top = value.width - 1
        exprs.append(bits_high_to_low(value, range(top, -1, -1)))
        exprs.append(bits_high_to_low(value, range(top + 1)))
        exprs.append(bits_high_to_low(value, range(top, -1, -2)))
    return exprs, inputs, holes, draw(st.integers(0, 15)), draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(loop_cases())
def test_loop_forms_agree_with_eval_concrete(case):
    check_loop_forms(*case)


@pytest.mark.parametrize("lanes", [1, 2, 8])
@settings(max_examples=40, deadline=None)
@given(case=loop_cases())
def test_loop_forms_agree_across_plane_blocks(lanes, case):
    # Blocks of 1, 2 and 8 lanes put the hole spaces of 2 to 16 indices
    # across several blocks, or within a part of one.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "PLANE_LANES", lanes)
        check_loop_forms(*case)


def check_loop_forms(exprs, inputs, holes, target, spoil):
    space = 1 << sum(w for _, w in holes)
    table = compile_exprs(exprs, inputs, holes, form="table")
    for index in range(space):
        assert table(index) == reference_table(exprs, inputs, holes, index)
    # The want table of one assignment, and on `spoil` with one row changed
    # so that no assignment may match.
    want = reference_table(exprs, inputs, holes, target % space)
    if spoil:
        want[0][-1] ^= 1
    got = compile_exprs(exprs, inputs, holes, form="scan")(want)
    assert_scan_answer(got, reference_scan(exprs, inputs, holes, want), holes)
    # With the holes filled in, as `synthesis.exhaustive_counterexample`
    # does, the row is the lowest that mismatches.
    for index in (target % space, (target + 1) % space):
        values = {n: ir.Const(w, v) for (n, w), v in zip(holes, row_env(holes, index).values())}
        filled = [ir.substitute(e, {}, values) for e in exprs]
        got = compile_exprs(filled, inputs, form="scan")(want)
        assert got == reference_scan(filled, inputs, (), want)
