import random

import pytest

from techmap import ir, verilog
from techmap.errors import (
    HoleNotAllowed,
    ParseError,
    UnknownVar,
    ValidationError,
    WidthMismatch,
)
from techmap.library import data_path
from techmap.minismt import MAX_WIDTH
from techmap.semantics import eval_concrete, lower_to_smt, truth_table

from util import VAR_POOL, adder4_design, rand_env, rand_expr


def test_widths_bottom_up():
    a4, b4 = ir.Var("a", 4), ir.Var("b", 4)
    assert ir.Concat(a4, b4).width == 8
    assert ir.Add(a4, b4).width == 4
    assert ir.Eq(a4, b4).width == 1
    assert ir.ReduceXor(a4).width == 1
    assert ir.Extract(3, 1, a4).width == 3
    assert ir.ZeroExt(a4, 9).width == 9
    assert ir.Shl(a4, ir.Var("s", 2)).width == 4


def test_validate_returns_width():
    a4, b4 = ir.Var("a", 4), ir.Var("b", 4)
    env = {"a": 4, "b": 4}
    assert ir.validate(ir.Concat(a4, b4), env) == 8


def test_unequal_operand_widths_rejected():
    with pytest.raises(WidthMismatch):
        ir.Add(ir.Var("a", 4), ir.Var("b", 5))


def test_mux_condition_must_be_one_bit():
    with pytest.raises(WidthMismatch):
        ir.Mux(ir.Var("s", 2), ir.Var("a", 4), ir.Var("b", 4))


def test_const_value_range():
    with pytest.raises(ValidationError):
        ir.Const(4, 16)
    with pytest.raises(ValidationError):
        ir.Const(4, -1)
    assert ir.Const(4, 15).value == 15


def test_extract_bounds():
    with pytest.raises(ValidationError):
        ir.Extract(4, 0, ir.Var("a", 4))
    with pytest.raises(ValidationError):
        ir.Extract(1, 2, ir.Var("a", 4))


def test_extension_must_not_shrink():
    with pytest.raises(WidthMismatch):
        ir.ZeroExt(ir.Var("a", 4), 3)
    with pytest.raises(WidthMismatch):
        ir.SignExt(ir.Var("a", 4), 3)


def test_validate_env_checks():
    a = ir.Var("a", 4)
    with pytest.raises(UnknownVar):
        ir.validate(a, {})
    with pytest.raises(WidthMismatch):
        ir.validate(a, {"a": 5})


def test_validate_hole_policy():
    h = ir.Hole("h", 4)
    with pytest.raises(HoleNotAllowed):
        ir.validate(h, {})
    assert ir.validate(h, {}, allow_holes=True) == 4


def test_validate_rejects_var_hole_name_clash():
    expr = ir.And(ir.Var("x", 1), ir.Hole("x", 1))
    with pytest.raises(ValidationError):
        ir.validate(expr, {"x": 1}, allow_holes=True)


def test_validate_rejects_inconsistent_hole_widths():
    expr = ir.Concat(ir.Hole("h", 2), ir.Extract(0, 0, ir.Hole("h", 3)))
    with pytest.raises(WidthMismatch):
        ir.validate(expr, {}, allow_holes=True)


def test_substitute_vars():
    a, b = ir.Var("a", 1), ir.Var("b", 1)
    got = ir.substitute(ir.And(a, b), {"a": ir.Const(1, 1)})
    assert got == ir.And(ir.Const(1, 1), b)


def test_substitute_holes_under_extract():
    # Only Vars are replaced: a Hole stays even when its name is bound.
    expr = ir.Extract(2, 0, ir.Concat(ir.Var("x", 2), ir.Hole("h", 2)))
    got = ir.substitute(expr, {"x": ir.Const(2, 1), "h": ir.Const(2, 3)})
    assert got == ir.Extract(2, 0, ir.Concat(ir.Const(2, 1), ir.Hole("h", 2)))
    # The holes table replaces Holes, by name and width, and no Var.
    got = ir.substitute(expr, {}, {"h": ir.Const(2, 3), "x": ir.Const(2, 0)})
    assert got == ir.Extract(2, 0, ir.Concat(ir.Var("x", 2), ir.Const(2, 3)))
    with pytest.raises(WidthMismatch):
        ir.substitute(expr, {}, {"h": ir.Const(3, 0)})


def test_substitute_checks_binding_width():
    with pytest.raises(WidthMismatch):
        ir.substitute(ir.Var("a", 4), {"a": ir.Const(3, 0)})


def test_substitute_leaves_unbound_symbols():
    expr = ir.And(ir.Var("a", 1), ir.Var("b", 1))
    got = ir.substitute(expr, {"a": ir.Const(1, 0)})
    assert got.b is expr.b


def test_substitute_preserves_sharing():
    shared = ir.Add(ir.Var("a", 4), ir.Var("b", 4))
    expr = ir.Xor(shared, ir.Not(shared))
    got = ir.substitute(expr, {"a": ir.Const(4, 1)})
    assert got.a is got.b.a  # still one rewritten node, not two copies


def test_substitution_lemma_randomized():
    # eval(subst(e, m), env) == eval(e, env + {x: eval(m[x], env)})
    rng = random.Random(20240809)
    for _ in range(1000):
        width = rng.randint(1, 8)
        expr = rand_expr(rng, width, rng.randint(1, 4))
        env = rand_env(rng)
        bound = [n for n, _ in VAR_POOL if rng.random() < 0.5]
        bindings = {
            n: rand_expr(rng, dict(VAR_POOL)[n], 2) for n in bound
        }
        substituted = ir.substitute(expr, bindings)
        extended = dict(env)
        for name, rhs in bindings.items():
            extended[name] = eval_concrete(rhs, env)
        assert eval_concrete(substituted, env) == eval_concrete(expr, extended)


def test_str_spells_every_node_kind():
    a, b, h = ir.Var("a", 4), ir.Var("b", 4), ir.Hole("h", 1)
    expr = ir.Concat(
        ir.Mux(h, ir.Add(a, ir.Not(b)), ir.Shl(ir.Const(4, 9), ir.Extract(1, 0, b))),
        ir.ZeroExt(ir.Concat(ir.Eq(a, b), ir.ReduceXor(ir.SignExt(ir.Neg(a), 6))), 3),
    )
    assert str(expr) == (
        "{(?h:1 ? (a:4 + ~(b:4)) : (9'4 << b:4[1:0])), "
        "zext({(a:4 == b:4), ^(sext(-(a:4), 6))}, 3)}"
    )


def test_lower_spells_every_node_kind():
    # The texts were recorded before the writers read ir.OPERATORS.
    a, b, s, h = ir.Var("a", 4), ir.Var("b", 4), ir.Var("s", 2), ir.Hole("h", 1)
    spelled = [
        (a, "a"),
        (h, "h"),
        (ir.Const(4, 9), "#b1001"),
        (ir.Not(a), "(bvnot a)"),
        (ir.Neg(a), "(bvneg a)"),
        (ir.ReduceAnd(s), "(bvand ((_ extract 0 0) s) ((_ extract 1 1) s))"),
        (ir.ReduceOr(s), "(bvor ((_ extract 0 0) s) ((_ extract 1 1) s))"),
        (ir.ReduceXor(s), "(bvxor ((_ extract 0 0) s) ((_ extract 1 1) s))"),
        (ir.And(a, b), "(bvand a b)"),
        (ir.Or(a, b), "(bvor a b)"),
        (ir.Xor(a, b), "(bvxor a b)"),
        (ir.Add(a, b), "(bvadd a b)"),
        (ir.Sub(a, b), "(bvsub a b)"),
        (ir.Mul(a, b), "(bvmul a b)"),
        (ir.Shl(a, s), "(bvshl a ((_ zero_extend 2) s))"),
        (ir.LShr(s, a), "((_ extract 1 0) (bvlshr ((_ zero_extend 2) s) a))"),
        (ir.Eq(a, b), "(ite (= a b) #b1 #b0)"),
        (ir.Ult(a, b), "(ite (bvult a b) #b1 #b0)"),
        (ir.Mux(h, a, b), "(ite (= h #b1) a b)"),
        (ir.Extract(2, 1, a), "((_ extract 2 1) a)"),
        (ir.Concat(s, h), "(concat s h)"),
        (ir.ZeroExt(s, 4), "((_ zero_extend 2) s)"),
        (ir.SignExt(s, 4), "((_ sign_extend 2) s)"),
        (ir.ZeroExt(s, 2), "s"),
        (ir.SignExt(s, 2), "s"),
    ]
    symbols = {"a": "a", "b": "b", "s": "s", "h": "h"}
    assert [lower_to_smt(expr, symbols) for expr, _ in spelled] == [t for _, t in spelled]
    assert {type(expr) for expr, _ in spelled} == set(ir.OPERATORS)


def test_operators_has_one_row_per_node_class():
    concrete = {
        cls
        for name, cls in vars(ir).items()
        if isinstance(cls, type) and issubclass(cls, ir.BitVecExpr)
        and cls is not ir.BitVecExpr and not name.startswith("_")
    }
    assert set(ir.OPERATORS) == concrete
    names = [row.json for row in ir.OPERATORS.values()]
    assert len(set(names)) == len(names)
    assert ir.OPERATORS[ir.Extract].operands == ("a",)
    assert ir.OPERATORS[ir.Extract].indices == ("hi", "lo")
    assert ir.OPERATORS[ir.Mux].operands == ("cond", "a", "b")


def test_str_of_deep_chain_does_not_recurse():
    expr = ir.Var("a", 1)
    for _ in range(5000):
        expr = ir.Not(expr)
    assert str(expr) == "~(" * 5000 + "a:1" + ")" * 5000


def test_free_symbols():
    expr = ir.And(ir.Var("a", 1), ir.Hole("h", 1))
    assert ir.free_symbols(expr) == ({"a": 1}, {"h": 1})
    assert ir.free_symbols(ir.Const(4, 9)) == ({}, {})


def test_design_round_trip():
    design = adder4_design()
    again = ir.from_json(ir.to_json(design))
    assert again == design


def test_expr_round_trip_randomized():
    rng = random.Random(7)
    for _ in range(100):
        expr = rand_expr(rng, rng.randint(1, 8), 3)
        again = ir.from_json(ir.to_json(expr))
        assert again == expr
        assert ir.validate(again, dict(VAR_POOL)) == ir.validate(expr, dict(VAR_POOL))


def test_json_const_out_of_range_is_validation_error():
    with pytest.raises(ValidationError):
        ir.from_json('{"op":"const","width":4,"value":"16"}')


def test_json_and_of_vars_validates():
    text = """{"op":"and","args":[
        {"op":"var","name":"a","width":4},
        {"op":"var","name":"b","width":4}]}"""
    expr = ir.from_json(text)
    assert ir.validate(expr, {"a": 4, "b": 4}) == 4


def test_json_const_uses_decimal_strings():
    expr = ir.Const(70, 1 << 65)
    payload = ir.expr_to_dict(expr)
    assert payload["value"] == str(1 << 65)
    assert ir.from_json(ir.to_json(expr)) == expr


def test_json_decimal_strings_past_the_int_digit_limit():
    # `int` and `str` alone convert at most 4,300 decimal digits by default.
    expr = ir.Const(20000, 10**5000 + 7)
    assert ir.expr_to_dict(expr)["value"] == "1" + "0" * 4998 + "07"
    assert ir.from_json(ir.to_json(expr)) == expr
    design = ir.Design("wide", (("a", 1),), (("y", ir.Var("a", 1)),), (("P", 20000, 10**5000),))
    assert ir.from_json(ir.to_json(design)) == design


def test_json_errors_carry_location():
    with pytest.raises(ParseError) as info:
        ir.from_json('{"op":"and","args":[{"op":"nope"}]}')
    assert "args[0]" in str(info.value)
    with pytest.raises(ParseError):
        ir.from_json("{not json")


def test_design_rejects_holes():
    with pytest.raises(HoleNotAllowed):
        ir.Design("bad", (("a", 1),), (("y", ir.Hole("h", 1)),))


def test_design_rejects_unknown_inputs():
    with pytest.raises(UnknownVar):
        ir.Design("bad", (("a", 1),), (("y", ir.Var("b", 1)),))


def test_design_rejects_duplicate_ports():
    with pytest.raises(ValidationError):
        ir.Design("bad", (("a", 1), ("a", 2)), ())


def test_design_parameters_are_checked_and_round_trip():
    out = (("y", ir.Xor(ir.Var("a", 2), ir.Var("P", 2))),)
    design = ir.Design("cell", (("a", 2),), out, (("P", 2, 3),))
    again = ir.from_json(ir.to_json(design))
    assert again == design and again.params == (("P", 2, 3),)
    with pytest.raises(UnknownVar):
        ir.Design("cell", (("a", 2),), out)
    for params in [(("P", 2, 4),), (("P", 2, 0), ("a", 1, 0)), (("P", 2, 0), ("y", 1, 0))]:
        with pytest.raises(ValidationError):
            ir.Design("cell", (("a", 2),), out, params)


def test_bind_gives_each_parameter_its_value_or_its_default():
    a, p, q = ir.Var("a", 2), ir.Var("P", 2), ir.Var("Q", 3)
    cell = ir.Design("cell", (("a", 2),), (("y", ir.Concat(ir.Xor(a, p), q)),), (("P", 2, 1), ("Q", 3, 5)))

    def bound(pv, qv):
        y = ir.Concat(ir.Xor(a, ir.Const(2, pv)), ir.Const(3, qv))
        return ir.Design("cell", (("a", 2),), (("y", y),))

    assert cell.bind({"Q": 2}) == bound(1, 2)
    assert cell.bind({}) == bound(1, 5)
    assert cell.bind({"P": 3, "Q": 0}) == bound(3, 0)
    assert cell.bind({}).params == ()
    plain = bound(0, 0)
    assert plain.bind({}) is plain


def test_bind_rejects_a_name_that_is_not_a_parameter(lib):
    # Both former binders: the elaborator's, and truth_table's on a shipped primitive.
    model = verilog.elaborate(verilog.parse(data_path("models", "lut2.v").read_text()))
    for design in (model, lib.primitives["LUT2"], adder4_design()):
        with pytest.raises(UnknownVar, match="'NOPE'"):
            design.bind({"NOPE": 0})


def test_bind_names_a_value_too_wide_in_decimal(lib):
    # 10^5000 has more digits than `str` converts by default; truth_table
    # once raised ValueError formatting it.
    message = f"parameter INIT=1{'0' * 5000} does not fit width 4"
    with pytest.raises(ValidationError, match=message):
        truth_table(lib.primitives["LUT2"].bind({"INIT": 10**5000}))
    with pytest.raises(ValidationError, match="parameter INIT=16 does not fit width 4"):
        lib.primitives["LUT2"].bind({"INIT": 16})


TOO_WIDE = MAX_WIDTH + 1
WIDEST = ir.Var("w", MAX_WIDTH)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ir.Var("a", 0), "Var 'a' width 0 is not in 1..65536"),
        (lambda: ir.Var("a", TOO_WIDE), "Var 'a' width 65537 is not in 1..65536"),
        (lambda: ir.Const(TOO_WIDE, 0), "Const width 65537 is not in"),
        (lambda: ir.Hole("h", TOO_WIDE), "Hole 'h' width 65537 is not in"),
        (lambda: ir.Concat(WIDEST, ir.Var("b", 1)), "Concat width 65537 is not in"),
        (lambda: ir.ZeroExt(WIDEST, TOO_WIDE), "ZeroExt width 65537 is not in"),
        (lambda: ir.SignExt(WIDEST, 10**40), f"SignExt width {10**40} is not in"),
        (lambda: ir.Design("d", (("a", TOO_WIDE),), ()), "input a width 65537 is not in"),
        (lambda: ir.Design("d", (), (), (("P", TOO_WIDE, 0),)), "parameter P width 65537 is not in"),
    ],
    ids=["var 0", "var", "const", "hole", "concat", "zext", "sext", "input", "parameter"],
)
def test_every_width_is_at_most_max_width(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize("count", [1, 2, 5])
def test_concat_nests_to_the_left(count):
    parts = [ir.Var(f"p{k}", k + 1) for k in range(count)]
    folded = parts[0]  # the fold `concat` replaced, written out
    for part in parts[1:]:
        folded = ir.Concat(folded, part)
    assert ir.concat(parts) == folded
    assert ir.concat(iter(parts)) == folded
    assert ir.concat(parts).width == sum(p.width for p in parts)


def test_postorder_lists_shared_nodes_once_after_operands():
    a, b = ir.Var("a", 2), ir.Var("b", 2)
    shared = ir.And(a, b)
    top = ir.Or(shared, ir.Not(shared))
    order = ir.postorder((top, shared))
    assert order == [a, b, shared, ir.Not(shared), top]
    assert len({id(n) for n in order}) == len(order)
