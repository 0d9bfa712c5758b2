import random

import pytest

from techmap import ir
from techmap.errors import (
    HolePresent,
    TooManyInputBits,
    UnknownVar,
    UnmappedSymbol,
    ValidationError,
)
from techmap.semantics import eval_concrete, eval_design, lower_to_smt, shared_nodes, truth_table

from util import VAR_POOL, adder4_design, rand_env, rand_expr, xor2_design


def test_modular_wraparound():
    assert eval_concrete(ir.Add(ir.Const(4, 15), ir.Const(4, 1)), {}) == 0
    assert eval_concrete(ir.Sub(ir.Const(4, 0), ir.Const(4, 1)), {}) == 15
    assert eval_concrete(ir.Mul(ir.Const(4, 5), ir.Const(4, 5)), {}) == 9
    assert eval_concrete(ir.Neg(ir.Const(4, 1)), {}) == 15


def test_lut_read_row_three():
    # INIT=8 read at row {I1,I0} = 3 is the AND table's only 1.
    idx = ir.Concat(ir.Var("I1", 1), ir.Var("I0", 1))
    expr = ir.Extract(0, 0, ir.LShr(ir.Const(4, 8), idx))
    assert eval_concrete(expr, {"I1": 1, "I0": 1}) == 1
    assert eval_concrete(expr, {"I1": 1, "I0": 0}) == 0
    assert eval_concrete(expr, {"I1": 0, "I0": 0}) == 0


def test_mux_selects_else_branch_on_zero():
    expr = ir.Mux(ir.Const(1, 0), ir.Const(4, 3), ir.Const(4, 12))
    assert eval_concrete(expr, {}) == 12


def test_shift_semantics():
    a = ir.Const(4, 0b1001)
    assert eval_concrete(ir.Shl(a, ir.Const(3, 1)), {}) == 0b0010
    assert eval_concrete(ir.LShr(a, ir.Const(3, 3)), {}) == 1
    # Amounts >= width yield zero regardless of the amount's width.
    assert eval_concrete(ir.Shl(a, ir.Const(3, 4)), {}) == 0
    assert eval_concrete(ir.LShr(a, ir.Const(8, 200)), {}) == 0


def test_extension_and_reductions():
    assert eval_concrete(ir.SignExt(ir.Const(4, 0b1000), 8), {}) == 0b11111000
    assert eval_concrete(ir.ZeroExt(ir.Const(4, 0b1000), 8), {}) == 0b00001000
    assert eval_concrete(ir.ReduceAnd(ir.Const(3, 0b111)), {}) == 1
    assert eval_concrete(ir.ReduceAnd(ir.Const(3, 0b101)), {}) == 0
    assert eval_concrete(ir.ReduceOr(ir.Const(3, 0)), {}) == 0
    assert eval_concrete(ir.ReduceXor(ir.Const(3, 0b110)), {}) == 0
    assert eval_concrete(ir.ReduceXor(ir.Const(3, 0b100)), {}) == 1


def test_compare_ops():
    assert eval_concrete(ir.Ult(ir.Const(4, 3), ir.Const(4, 5)), {}) == 1
    assert eval_concrete(ir.Ult(ir.Const(4, 5), ir.Const(4, 5)), {}) == 0
    assert eval_concrete(ir.Eq(ir.Const(4, 5), ir.Const(4, 5)), {}) == 1


def test_eval_errors():
    with pytest.raises(UnknownVar):
        eval_concrete(ir.Var("missing", 1), {})
    with pytest.raises(HolePresent):
        eval_concrete(ir.Hole("h", 1), {})
    with pytest.raises(ValidationError):
        eval_concrete(ir.Var("a", 2), {"a": 4})


@pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["past the top", "negative"])
def test_range_errors_name_a_value_past_the_int_digit_limit(value):
    # `str` converts at most 4,300 digits by default.
    text = ("-" if value < 0 else "") + "1" + "0" * 5000
    with pytest.raises(ValidationError, match=f"value {text} for 'a' does not fit width 4"):
        eval_concrete(ir.Var("a", 4), {"a": value})


def test_eval_respects_width_randomized():
    rng = random.Random(99)
    for _ in range(500):
        width = rng.randint(1, 12)
        expr = rand_expr(rng, width, 4)
        value = eval_concrete(expr, rand_env(rng))
        assert 0 <= value < (1 << width)
        assert expr.width == width


def test_lower_const_binary():
    assert lower_to_smt(ir.Const(4, 10), {}) == "#b1010"
    assert lower_to_smt(ir.Const(1, 1), {}) == "#b1"


def test_lower_eq_wraps_in_ite():
    term = lower_to_smt(ir.Eq(ir.Var("a", 4), ir.Var("b", 4)), {"a": "a", "b": "b"})
    assert term == "(ite (= a b) #b1 #b0)"


def test_lower_unmapped_symbol():
    with pytest.raises(UnmappedSymbol):
        lower_to_smt(ir.Var("a", 4), {})


def test_lower_reduction_expansion():
    term = lower_to_smt(ir.ReduceXor(ir.Var("a", 3)), {"a": "a"})
    assert term == (
        "(bvxor (bvxor ((_ extract 0 0) a) ((_ extract 1 1) a)) ((_ extract 2 2) a))"
    )


def test_lower_shift_width_equalization():
    term = lower_to_smt(ir.Shl(ir.Var("a", 4), ir.Var("s", 8)), {"a": "a", "s": "s"})
    assert term == "((_ extract 3 0) (bvshl ((_ zero_extend 4) a) s))"
    term = lower_to_smt(ir.LShr(ir.Var("a", 4), ir.Var("s", 2)), {"a": "a", "s": "s"})
    assert term == "(bvlshr a ((_ zero_extend 2) s))"


def test_lower_spells_a_shared_node_at_each_use():
    a = ir.Var("a", 2)
    shared = ir.Add(a, ir.Const(2, 1))
    term = lower_to_smt(ir.Xor(shared, ir.ZeroExt(ir.Not(shared), 2)), {"a": "a"})
    assert term == "(bvxor (bvadd a #b01) (bvnot (bvadd a #b01)))"
    term = lower_to_smt(ir.SignExt(ir.Concat(a, shared), 6), {"a": "a"})
    assert term == "((_ sign_extend 2) (concat a (bvadd a #b01)))"


def test_lower_names_the_shared_nodes_it_is_given():
    a = ir.Var("a", 2)
    shared = ir.Add(a, ir.Const(2, 1))
    outer = ir.Xor(shared, ir.Not(shared))
    # Postorder: a, the constant, the sum, its negation, the xor.
    assert shared_nodes((outer,)) == {id(shared): 2}
    assert shared_nodes((outer, outer)) == {id(shared): 2, id(outer): 4}
    assert shared_nodes((ir.And(a, a),)) == {}  # a leaf is never named
    defines = []
    term = lower_to_smt(outer, {"a": "a"}, {id(shared): "$s.2"}, defines)
    assert term == "(bvxor $s.2 (bvnot $s.2))"
    assert defines == ["(define-fun $s.2 () (_ BitVec 2) (bvadd a #b01))"]
    assert lower_to_smt((outer, shared), {"a": "a"}) == [
        "(bvxor (bvadd a #b01) (bvnot (bvadd a #b01)))", "(bvadd a #b01)"
    ]


def test_lower_deep_chain_does_not_recurse():
    expr = ir.Var("x", 1)
    for _ in range(5000):
        expr = ir.Not(expr)
    assert lower_to_smt(expr, {"x": "x"}) == "(bvnot " * 5000 + "x" + ")" * 5000


def test_truth_table_xor2():
    rows = truth_table(xor2_design())
    assert rows == [
        ((0, 0), (0,)),
        ((1, 0), (1,)),
        ((0, 1), (1,)),
        ((1, 1), (0,)),
    ]


def test_truth_table_row_order_is_first_input_least_significant():
    d = ir.Design(
        "pair", (("lo", 1), ("hi", 2)),
        (("y", ir.Concat(ir.Var("hi", 2), ir.Var("lo", 1))),),
    )
    rows = truth_table(d)
    assert [inputs for inputs, _ in rows] == [
        (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)
    ]
    # Definitional property: every row equals direct evaluation.
    for inputs, outputs in rows:
        env = dict(zip(("lo", "hi"), inputs))
        assert outputs == tuple(eval_design(d, env).values())


def test_truth_table_matches_lut2_with_xor_init(lib):
    rows = truth_table(lib.primitives["LUT2"].bind({"INIT": 6}))
    assert [out for _, out in rows] == [(0,), (1,), (1,), (0,)]


def test_truth_table_adder_with_carry():
    rows = truth_table(adder4_design())
    assert len(rows) == 512
    # a=15, b=0, cin=1 wraps: s=0, carry out set.
    assert ((15, 0, 1), (0, 1)) in rows
    row_index = 15 + (0 << 4) + (1 << 8)
    assert rows[row_index] == ((15, 0, 1), (0, 1))


def test_truth_table_limit():
    wide = ir.Design(
        "wide", (("a", 12), ("b", 12)),
        (("y", ir.And(ir.Var("a", 12), ir.Var("b", 12))),),
    )
    with pytest.raises(TooManyInputBits):
        truth_table(wide)


def test_truth_table_param_errors(lib):
    lut2 = lib.primitives["LUT2"]
    with pytest.raises(ValidationError):
        truth_table(lut2.bind({"INIT": 16}))
    with pytest.raises(UnknownVar):
        truth_table(lut2.bind({"NOPE": 0}))
