import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techmap import emit, ir, synthesis, verilog
from techmap.errors import MissingHole, SignatureMismatch, TooManyInputBits
from techmap.library import data_path
from techmap.semantics import eval_design
from techmap.synthesis import problem_from_sketch, solve_brute_force, solve_cegis
from techmap.templates import TemplateKind, instantiate, sketch_to_exprs

from util import (
    MINISMT, adder4_design, and2_design, majority3_design, mul4_design, probe_solver,
)


def and2_sketch_with_holes(lib):
    return instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib)


def test_resolve_applies_solution(lib):
    sketch = and2_sketch_with_holes(lib)
    netlist = emit.resolve(
        sketch, {"inst_0.INIT": 8, "inst_0.A.sel": 0, "inst_0.B.sel": 1}
    )
    inst = netlist.instances[0]
    assert inst.params == (("INIT", 4, 8),)
    pins = dict(inst.pins)
    assert pins["A"] == (("in", "a", 0),)
    assert pins["B"] == (("in", "b", 0),)
    assert pins["Z"] == (("out", "y", 0),)


def test_resolve_clamps_out_of_range_selectors(lib):
    sketch = and2_sketch_with_holes(lib)
    netlist = emit.resolve(
        sketch, {"inst_0.INIT": 8, "inst_0.A.sel": 7, "inst_0.B.sel": 1}
    )
    pins = dict(netlist.instances[0].pins)
    assert pins["A"] == (("const", 1),)  # candidate list ends with constant 1


def test_resolve_missing_hole(lib):
    sketch = and2_sketch_with_holes(lib)
    with pytest.raises(MissingHole):
        emit.resolve(sketch, {"inst_0.INIT": 8})


def test_print_and2_netlist_exact_instance_line(lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib, "pinned")
    solution = solve_brute_force(problem_from_sketch(and2_design(), sketch, lib))
    text = emit.print_verilog(emit.resolve(sketch, solution))
    assert "LUT2 #(.INIT(4'h8)) inst_0 (.A(a), .B(b), .Z(y));" in text
    assert text.startswith("module and2 (")


def test_printing_is_deterministic(lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib, "pinned")
    solution = solve_brute_force(problem_from_sketch(and2_design(), sketch, lib))
    netlist = emit.resolve(sketch, solution)
    assert emit.print_verilog(netlist) == emit.print_verilog(netlist)


def adder_netlist_text(lib, solver):
    design = adder4_design()
    sketch = instantiate(TemplateKind.CARRY_CHAIN, design, lib)
    solution = solve_cegis(problem_from_sketch(design, sketch, lib), solver)
    return design, emit.print_verilog(emit.resolve(sketch, solution))


@pytest.fixture(scope="module")
def adder_mapping(lib, solver_config):
    return adder_netlist_text(lib, solver_config)


def test_adder_netlist_has_chained_carry_wires(adder_mapping):
    _, text = adder_mapping
    assert text.count("CARRY1 ") == 4
    for wire in ("c0", "c1", "c2"):
        assert f"  wire {wire};\n" in text
    assert ".CIN(cin)" in text and ".CIN(c0)" in text and ".COUT(cout)" in text
    # Wire declarations are sorted by name.
    decls = [line for line in text.splitlines() if line.startswith("  wire")]
    assert decls == sorted(decls)


def test_adder_netlist_round_trips_through_parser(adder_mapping, lib):
    _, text = adder_mapping
    ast = verilog.parse(text, allow_instances=True)
    assert len(ast.instances) == 4
    assert [i.name for i in ast.instances] == [f"inst_{k}" for k in range(4)]


def test_adder_netlist_equivalent(adder_mapping, lib):
    design, text = adder_mapping
    report = emit.check_equivalence(design, text, lib, mode="exhaustive")
    assert report.equivalent and report.counterexample is None


def test_mult_netlist_uses_wire_and_assign(lib):
    design = mul4_design()
    sketch = instantiate(TemplateKind.MULTIPLIER, design, lib)
    solution = solve_brute_force(problem_from_sketch(design, sketch, lib))
    text = emit.print_verilog(emit.resolve(sketch, solution))
    assert "wire [15:0] inst_0_P;" in text
    assert "assign p = inst_0_P[7:0];" in text
    assert ".A({1'b0, 1'b0, 1'b0, 1'b0, a})" in text
    report = emit.check_equivalence(design, text, lib, mode="exhaustive")
    assert report.equivalent


def test_corrupted_init_yields_counterexample(lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib, "pinned")
    solution = solve_brute_force(problem_from_sketch(and2_design(), sketch, lib))
    text = emit.print_verilog(emit.resolve(sketch, solution))
    corrupted = text.replace("4'h8", "4'h9")
    report = emit.check_equivalence(and2_design(), corrupted, lib, mode="exhaustive")
    assert not report.equivalent
    assert report.counterexample == {"a": 0, "b": 0}


@st.composite
def lut_tables(draw):
    """(input count k, a 2^k-row truth table, one of its rows)."""
    k = draw(st.integers(1, 4))
    return k, draw(st.integers(0, (1 << (1 << k)) - 1)), draw(st.integers(0, (1 << k) - 1))


@given(lut_tables())
@settings(max_examples=30, deadline=None)
def test_printed_lut_netlists_reimport_as_equivalent(lib, table):
    # Emit -> re-import gives back the solved sketch: the netlist is
    # equivalent, and with the INIT bit of one row flipped it differs from
    # the design on the counterexample it is refuted with.
    k, m, row = table
    idx = ir.Var("i0", 1)
    for j in range(1, k):
        idx = ir.Concat(ir.Var(f"i{j}", 1), idx)
    y = ir.Extract(0, 0, ir.LShr(ir.Const(1 << k, m), idx))
    design = ir.Design("t", tuple((f"i{j}", 1) for j in range(k)), (("y", y),))
    sketch = instantiate(TemplateKind.LUT_SINGLE, design, lib, "pinned")
    solution = solve_brute_force(problem_from_sketch(design, sketch, lib))
    text = emit.print_verilog(emit.resolve(sketch, solution))
    assert emit.check_equivalence(design, text, lib).equivalent

    [(size, init)] = re.findall(r"INIT\((\d+)'h([0-9A-F]+)\)", text)
    flipped = f"{size}'h{int(init, 16) ^ (1 << row):0{len(init)}X}"
    corrupted = text.replace(f"{size}'h{init}", flipped)
    report = emit.check_equivalence(design, corrupted, lib)
    assert not report.equivalent
    imported = verilog.elaborate(
        verilog.parse(corrupted, allow_instances=True), library=lib
    ).bind({})
    cex = report.counterexample
    assert eval_design(design, cex) != eval_design(imported, cex)


def test_design_against_its_own_source(lib):
    source = data_path("designs", "and2.v").read_text()
    report = emit.check_equivalence(and2_design(), source, lib, mode="exhaustive")
    assert report.equivalent


def test_signature_mismatch_detected(lib):
    other = "module and2 (input a, output y);\n  assign y = a;\nendmodule\n"
    with pytest.raises(SignatureMismatch):
        emit.check_equivalence(and2_design(), other, lib)


def test_exhaustive_limit(lib):
    wide = ir.Design(
        "wide", (("a", 9), ("b", 9)), (("y", ir.And(ir.Var("a", 9), ir.Var("b", 9))),)
    )
    src = "module wide (input [8:0] a, input [8:0] b, output [8:0] y);\n  assign y = a & b;\nendmodule\n"
    with pytest.raises(TooManyInputBits):
        emit.check_equivalence(wide, src, lib, mode="exhaustive")


def test_solver_mode_equivalence(lib, solver_config):
    sketch = instantiate(TemplateKind.LUT_SINGLE, and2_design(), lib, "pinned")
    solution = solve_brute_force(problem_from_sketch(and2_design(), sketch, lib))
    text = emit.print_verilog(emit.resolve(sketch, solution))
    report = emit.check_equivalence(and2_design(), text, lib, mode="solver", solver=solver_config)
    assert report.equivalent
    corrupted = text.replace("4'h8", "4'h9")
    report = emit.check_equivalence(
        and2_design(), corrupted, lib, mode="solver", solver=solver_config
    )
    assert not report.equivalent
    env = report.counterexample
    assert (env["a"] & env["b"]) != (9 >> (env["a"] + 2 * env["b"])) & 1


def _signature_design(name, inputs, outputs):
    """A design with the given port widths; `resolve` reads only the signature."""
    return ir.Design(name, inputs, tuple((n, ir.Const(w, 0)) for n, w in outputs))


def _carry_design(cin, cout):
    inputs = (("a", 3), ("b", 3)) + ((("ci", 1),) if cin else ())
    outputs = (("s", 3),) + ((("co", 1),) if cout else ())
    return _signature_design("carry3", inputs, outputs)


_BITWISE = _signature_design("bw2", (("a", 2), ("b", 2), ("c", 1)), (("y", 2),))

# (template, design, pin mode, hole values that replace the default ones)
_NETLIST_CASES = {
    # D's selector (3 bits over 5 candidates) is past its last candidate.
    "lut_single holes": (TemplateKind.LUT_SINGLE, majority3_design(), "holes", {"inst_0.D.sel": 7}),
    "lut_single pinned": (TemplateKind.LUT_SINGLE, majority3_design(), "pinned", {}),
    "bitwise holes": (TemplateKind.BITWISE_PER_BIT, _BITWISE, "holes", {}),
    "bitwise pinned": (TemplateKind.BITWISE_PER_BIT, _BITWISE, "pinned", {}),
    "carry holes cin cout": (TemplateKind.CARRY_CHAIN, _carry_design(True, True), "holes", {}),
    "carry holes cin": (TemplateKind.CARRY_CHAIN, _carry_design(True, False), "holes", {}),
    "carry holes cout": (TemplateKind.CARRY_CHAIN, _carry_design(False, True), "holes", {}),
    "carry holes": (TemplateKind.CARRY_CHAIN, _carry_design(False, False), "holes", {}),
    "carry pinned cin cout": (TemplateKind.CARRY_CHAIN, _carry_design(True, True), "pinned", {}),
    "carry pinned cin": (TemplateKind.CARRY_CHAIN, _carry_design(True, False), "pinned", {}),
    "carry pinned cout": (TemplateKind.CARRY_CHAIN, _carry_design(False, True), "pinned", {}),
    "carry pinned": (TemplateKind.CARRY_CHAIN, _carry_design(False, False), "pinned", {}),
    "multiplier": (TemplateKind.MULTIPLIER, mul4_design(), "holes", {}),
}


def _pinned_netlist_text(lib, case):
    kind, design, pin_mode, overrides = _NETLIST_CASES[case]
    sketch = instantiate(kind, design, lib, pin_mode)
    assignment = {
        name: (5 * k + 3) % (1 << width) for k, (name, width) in enumerate(sketch.holes)
    }
    assignment.update(overrides)
    return emit.print_verilog(emit.resolve(sketch, assignment))


_NETLIST_PINS = {
    "lut_single holes": (152, "d217fbd273f5f0d1d4d792a39e3ad71027885661af934845d5c3d1d5d029e81b"),
    "lut_single pinned": (149, "1fe20d3ef0cf70eadc1d2e8e32b7e09f4331abfcabb78af7738693e1d29bae04"),
    "bitwise holes": (255, "bd0a88e94647f4e13ddfd3da704eb224792d6795e2aec2387a4c2da953a79134"),
    "bitwise pinned": (255, "26fe593892d6f58b2f4ca7be63ddc27158fffa0720c7db47d72e3d8caa04d39e"),
    "carry holes cin cout": (336, "e72248cc1bd320252bc56235392f99f411a0b2ce490f62d590af895a0f46135c"),
    "carry holes cin": (352, "4d20fb85edfeb163818155e1a08091fe283e993c6a6af1ff49c2b0627f5b6e0e"),
    "carry holes cout": (324, "62942d905eeb9bd0ffcbc7dfbe7b999b1cfbc69bfe59028ab901b196c5335630"),
    "carry holes": (340, "d27607bfd7c40b2fc57d4ae6fef0aa6ccdaaec35fef7beb72c62037db3960da7"),
    "carry pinned cin cout": (334, "b4d096cf108aadb79dfd3c30aea6c0a816c83bb84449672857be3d0edc3ad016"),
    "carry pinned cin": (350, "c1d5d55f340a5249e9ca3c47cadc460996fec003397f10bdc8a413ab087667e0"),
    "carry pinned cout": (324, "9105d1379c7a911dee28400cd5cdfffe41d51f51983d630b28b7cdfb6d5cd63c"),
    "carry pinned": (340, "0498589539f3b3099c4596781e4eebb4af916f6e2e7857c8358ccbca0b7d1765"),
    "multiplier": (229, "430f637bcf0908319fa3fb0de74d088b44d083c38dc7b6371fc6579a16bc690e"),
}


@pytest.mark.parametrize("case", list(_NETLIST_CASES))
def test_printed_netlists_are_pinned(lib, case):
    # Fixed hole values, so no solver runs. The sizes and digests were
    # recorded before `resolve` decided direct-or-wire from two maps.
    text = _pinned_netlist_text(lib, case)
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == _NETLIST_PINS[case]


@pytest.mark.parametrize("case", list(_NETLIST_CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_netlists_match_the_sketch_for_every_hole_assignment(lib, case, data):
    # `resolve` picks pin sources with `BindingHole.pick` and the sketch's
    # expressions pick them with a mux chain: under any hole values,
    # selectors past the last candidate included, the re-imported netlist
    # and the sketch agree on every input row.
    kind, design, pin_mode, _ = _NETLIST_CASES[case]
    sketch = instantiate(kind, design, lib, pin_mode)
    assignment = {
        name: data.draw(st.integers(0, (1 << width) - 1), label=name)
        for name, width in sketch.holes
    }
    text = emit.print_verilog(emit.resolve(sketch, assignment))
    imported = verilog.elaborate(verilog.parse(text, allow_instances=True), library=lib).bind({})
    problem = synthesis.SynthesisProblem(imported, sketch_to_exprs(sketch, lib), sketch.holes)
    assert synthesis.exhaustive_counterexample(problem, assignment) is None
