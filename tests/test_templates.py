import random

import pytest

from techmap import ir, templates
from techmap.errors import NoCompatiblePrimitive, SignatureMismatch, ValidationError
from techmap.library import Library
from techmap.semantics import eval_concrete
from techmap.templates import (
    BindingHole,
    ConstBit,
    NetBit,
    ParamHole,
    SignalBit,
    Sketch,
    SketchInstance,
    TemplateKind,
    instantiate,
    sketch_to_exprs,
)

from util import adder4_design, and2_design, majority3_design, mul4_design, only


def test_lut_single_counts(lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib)
    assert len(sketch.instances) == 1
    inst = sketch.instances[0]
    assert inst.primitive == "LUT2"
    binding_holes = [b for _, (b,) in inst.pins if isinstance(b, BindingHole)]
    assert len(binding_holes) == 2
    for hole in binding_holes:
        assert hole.candidates == (
            SignalBit("a", 0), SignalBit("b", 0), ConstBit(0), ConstBit(1)
        )
    assert inst.params == (("INIT", 4, ParamHole("inst_0.INIT")),)
    assert sketch.holes == (
        ("inst_0.INIT", 4), ("inst_0.A.sel", 2), ("inst_0.B.sel", 2)
    )


def test_four_candidates_need_two_selector_bits():
    hole = BindingHole("h", (ConstBit(0), ConstBit(1), SignalBit("a", 0), ConstBit(0)))
    assert hole.selector_width == 2


def test_a_binding_hole_needs_two_or_more_candidates():
    for candidates in ((), (ConstBit(0),)):
        with pytest.raises(ValidationError, match="two or more candidates"):
            BindingHole("h", candidates)
    hole = BindingHole("h", (ConstBit(0), ConstBit(1)))
    assert hole.selector_width == 1
    assert [hole.pick(v) for v in range(3)] == [ConstBit(0), ConstBit(1), ConstBit(1)]


def test_unknown_pin_mode_is_refused(lib):
    with pytest.raises(ValidationError, match="pin_mode must be 'holes' or 'pinned'"):
        instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib, "free")


def test_lut_single_needs_single_bit_output(lib):
    with pytest.raises(SignatureMismatch):
        instantiate(TemplateKind.LUT_SINGLE, adder4_design(), lib)


def test_lut_single_picks_smallest_fitting_lut(lib):
    assert instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib).instances[0].primitive == "LUT2"
    assert (
        instantiate(TemplateKind.LUT_SINGLE, majority3_design(), lib).instances[0].primitive
        == "LUT4"
    )


def test_lut_single_primitive_override(lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), only(lib, "LUT6"))
    assert sketch.instances[0].primitive == "LUT6"
    with pytest.raises(NoCompatiblePrimitive):
        instantiate(TemplateKind.LUT_SINGLE, and2_design(), only(lib, "CARRY1"))


def test_no_compatible_primitive():
    empty = Library({}, {})
    with pytest.raises(NoCompatiblePrimitive):
        instantiate(TemplateKind.LUT_SINGLE, and2_design(), empty)


def test_pinned_mode_binds_positionally(lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib, "pinned")
    inst = sketch.instances[0]
    assert inst.pins == (("A", (SignalBit("a", 0),)), ("B", (SignalBit("b", 0),)))
    assert sketch.holes == (("inst_0.INIT", 4),)


def test_pinned_mode_pads_spare_pins_with_zero(lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), only(lib, "LUT4"), "pinned")
    pins = dict(sketch.instances[0].pins)
    assert pins["C"] == (ConstBit(0),)
    assert pins["D"] == (ConstBit(0),)


def test_pinned_mode_rejects_excess_bits(lib):
    with pytest.raises(SignatureMismatch):
        instantiate(TemplateKind.LUT_SINGLE, majority3_design(), only(lib, "LUT2"), "pinned")


def test_sketch_to_exprs_pinned_lut2(lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib, "pinned")
    [(name, expr)] = sketch_to_exprs(sketch, lib)
    assert name == "y"
    expected = ir.Extract(
        0, 0,
        ir.LShr(ir.Hole("inst_0.INIT", 4), ir.Concat(ir.Var("b", 1), ir.Var("a", 1))),
    )
    assert expr == expected


def test_carry_chain_structure(lib):
    sketch = instantiate(TemplateKind.CARRY_CHAIN, adder4_design(), lib)
    assert len(sketch.instances) == 4
    for i, inst in enumerate(sketch.instances):
        assert inst.primitive == "CARRY1"
        pins = dict(inst.pins)
        if i == 0:
            (cin_binding,) = pins["CIN"]
            assert isinstance(cin_binding, BindingHole)
            assert cin_binding.candidates == (SignalBit("cin", 0), ConstBit(0), ConstBit(1))
        else:
            assert pins["CIN"] == (NetBit(f"inst_{i - 1}", "COUT", 0),)
    assert dict(sketch.output_map)["s"] == tuple(
        NetBit(f"inst_{i}", "S", 0) for i in range(4)
    )
    assert dict(sketch.output_map)["cout"] == (NetBit("inst_3", "COUT", 0),)
    assert dict(sketch.net_names) == {
        ("inst_0", "COUT"): "c0", ("inst_1", "COUT"): "c1", ("inst_2", "COUT"): "c2"
    }


def test_carry_chain_pinned_mode_binds_operands_and_carry_in(lib):
    sketch = instantiate(TemplateKind.CARRY_CHAIN, adder4_design(), lib, "pinned")
    assert [inst.pins for inst in sketch.instances] == [
        (
            ("A", (SignalBit("a", i),)),
            ("B", (SignalBit("b", i),)),
            ("CIN", (SignalBit("cin", 0) if i == 0 else NetBit(f"inst_{i - 1}", "COUT", 0),)),
        )
        for i in range(4)
    ]
    assert sketch.holes == ()
    no_cin = ir.Design(
        "add2", (("a", 2), ("b", 2)), (("s", ir.Add(ir.Var("a", 2), ir.Var("b", 2))),)
    )
    sketch = instantiate(TemplateKind.CARRY_CHAIN, no_cin, lib, "pinned")
    assert dict(sketch.instances[0].pins)["CIN"] == (ConstBit(0),)


def test_carry_chain_free_vars_are_design_inputs(lib):
    design = adder4_design()
    sketch = instantiate(TemplateKind.CARRY_CHAIN, design, lib)
    for _, expr in sketch_to_exprs(sketch, lib):
        vars_used, holes = ir.free_symbols(expr)
        assert set(vars_used) <= {n for n, _ in design.inputs}
        assert set(holes) <= {n for n, _ in sketch.holes}


def test_carry_chain_signature_checks(lib):
    single = ir.Design("one", (("a", 4),), (("s", ir.Var("a", 4)),))
    with pytest.raises(SignatureMismatch):
        instantiate(TemplateKind.CARRY_CHAIN, single, lib)
    lopsided = ir.Design(
        "bad", (("a", 4), ("b", 3)),
        (("s", ir.ZeroExt(ir.Var("b", 3), 4)),),
    )
    with pytest.raises(SignatureMismatch):
        instantiate(TemplateKind.CARRY_CHAIN, lopsided, lib)


def test_multiplier_positional_binding(lib):
    sketch = instantiate(TemplateKind.MULTIPLIER, mul4_design(), lib)
    inst = sketch.instances[0]
    pins = dict(inst.pins)
    assert pins["A"][:4] == tuple(SignalBit("a", b) for b in range(4))
    assert pins["A"][4:] == (ConstBit(0),) * 4
    assert dict(sketch.output_map)["p"] == tuple(NetBit("inst_0", "P", b) for b in range(8))
    assert sketch.holes == ()


def test_multiplier_needs_two_operands(lib):
    with pytest.raises(SignatureMismatch):
        instantiate(TemplateKind.MULTIPLIER, majority3_design(), lib)


def test_bitwise_per_bit(lib):
    a, b = ir.Var("a", 4), ir.Var("b", 4)
    design = ir.Design("and4", (("a", 4), ("b", 4)), (("y", ir.And(a, b)),))
    sketch = instantiate(TemplateKind.BITWISE_PER_BIT, design, lib)
    assert len(sketch.instances) == 4
    assert [h for h, _ in sketch.holes if h.endswith(".INIT")] == [
        f"inst_{i}.INIT" for i in range(4)
    ]
    pins = dict(sketch.instances[2].pins)
    (binding,) = pins["A"]
    assert binding.candidates == (
        SignalBit("a", 2), SignalBit("b", 2), ConstBit(0), ConstBit(1)
    )


def test_bitwise_per_bit_pinned_mode_binds_that_bit_of_each_input(lib):
    design = ir.Design(
        "mix", (("a", 2), ("b", 2), ("c", 1)),
        (("y", ir.Xor(ir.Var("a", 2), ir.Var("b", 2))),),
    )
    sketch = instantiate(TemplateKind.BITWISE_PER_BIT, design, lib, "pinned")
    assert [inst.primitive for inst in sketch.instances] == ["LUT4", "LUT4"]
    assert sketch.instances[0].pins == (
        ("A", (SignalBit("a", 0),)), ("B", (SignalBit("b", 0),)),
        ("C", (SignalBit("c", 0),)), ("D", (ConstBit(0),)),
    )
    # `c` is one bit wide, so bit 1 has only two candidates.
    assert sketch.instances[1].pins == (
        ("A", (SignalBit("a", 1),)), ("B", (SignalBit("b", 1),)),
        ("C", (ConstBit(0),)), ("D", (ConstBit(0),)),
    )
    assert sketch.holes == (("inst_0.INIT", 16), ("inst_1.INIT", 16))


def test_hole_substitution_validates_and_uses_only_inputs(lib):
    design = adder4_design()
    sketch = instantiate(TemplateKind.CARRY_CHAIN, design, lib)
    holes = dict(sketch.holes)
    env = {n: w for n, w in design.inputs}
    for _, expr in sketch_to_exprs(sketch, lib):
        assert ir.validate(expr, env, allow_holes=True) == expr.width
        used_vars, used_holes = ir.free_symbols(expr)
        assert used_vars.items() <= env.items()
        assert used_holes.items() <= holes.items()


def test_out_of_range_selector_clamps_to_last_candidate(lib):
    design = adder4_design()
    sketch = instantiate(TemplateKind.CARRY_CHAIN, design, lib)
    # Stage-0 CIN has 3 candidates and a 2-bit selector; value 3 clamps to
    # the last candidate, so it must behave exactly like value 2.
    exprs = sketch_to_exprs(sketch, lib)
    holes = dict(sketch.holes)
    rng = random.Random(11)
    for _ in range(20):
        env = {"a": rng.getrandbits(4), "b": rng.getrandbits(4), "cin": rng.getrandbits(1)}
        base = {n: rng.getrandbits(w) for n, w in holes.items()}
        high = dict(base, **{"inst_0.CIN.sel": 3})
        clamped = dict(base, **{"inst_0.CIN.sel": 2})
        for _, expr in exprs:
            assert eval_concrete(expr, env, high) == eval_concrete(expr, env, clamped)


def test_sketch_validation_rejects_forward_nets():
    inst = SketchInstance(
        "inst_0", "LUT2", (), (("A", (NetBit("inst_1", "Z", 0),)), ("B", (ConstBit(0),))),
        (("Z", 1),),
    )
    with pytest.raises(ValidationError):
        Sketch((("a", 1),), (("y", 1),), (inst,), (("y", (NetBit("inst_0", "Z", 0),)),))


def test_sketch_validation_requires_full_output_map():
    inst = SketchInstance("inst_0", "LUT2", (), (("A", (ConstBit(0),)), ("B", (ConstBit(0),))), (("Z", 1),))
    with pytest.raises(ValidationError):
        Sketch((("a", 1),), (("y", 2),), (inst,), (("y", (NetBit("inst_0", "Z", 0),)),))


def test_sketch_validation_rejects_duplicate_holes():
    inst = SketchInstance(
        "inst_0", "LUT2", (("INIT", 4, ParamHole("dup")),),
        (
            ("A", (BindingHole("dup", (ConstBit(0), ConstBit(1))),)),
            ("B", (ConstBit(0),)),
        ),
        (("Z", 1),),
    )
    with pytest.raises(ValidationError):
        Sketch((("a", 1),), (("y", 1),), (inst,), (("y", (NetBit("inst_0", "Z", 0),)),))
