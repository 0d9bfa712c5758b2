import random

import pytest

from techmap import ir, verilog
from techmap.errors import (
    CombinationalCycle,
    ParseError,
    UndeclaredIdentifier,
    UnsupportedConstruct,
    ValidationError,
    VerilogSyntaxError,
)
from techmap.library import data_path
from techmap.semantics import eval_concrete, truth_table


def model(name):
    return data_path("models", name).read_text()


def test_parse_buffer():
    ast = verilog.parse("module buf1(input I, output O); assign O = I; endmodule")
    assert ast.name == "buf1"
    assert [(p.name, p.direction) for p in ast.ports] == [("I", "input"), ("O", "output")]
    assert len(ast.assigns) == 1


def test_always_is_unsupported():
    src = "module ff(input clk, input d, output q); always @(posedge clk) q <= d; endmodule"
    with pytest.raises(UnsupportedConstruct) as info:
        verilog.parse(src)
    assert info.value.construct == "always"


def test_parse_lut6_model():
    ast = verilog.parse(model("lut6.v"), filename="lut6.v")
    assert ast.name == "LUT6"
    inputs = [p for p in ast.ports if p.direction == "input"]
    assert [p.name for p in inputs] == [f"I{k}" for k in range(6)]
    assert ast.params == (verilog.ParamDecl("INIT", 64, 0),)


def test_syntax_error_has_position():
    with pytest.raises(VerilogSyntaxError) as info:
        verilog.parse("module m(input a, output y);\n  assign y = a &;\nendmodule", filename="m.v")
    assert "m.v:2:" in str(info.value)


HEADER = "module m(input a, output y);"


@pytest.mark.parametrize(
    "filename, source, message",
    [
        ("t.v", f"{HEADER}\n\tassign y = a @;\nendmodule\n", "t.v:2:15: expected ';', found '@'"),
        ("c.v", f"{HEADER}\r\n  assign y = a @;\r\nendmodule\r\n", "c.v:2:16: expected ';', found '@'"),
        (
            "b.v",
            f"{HEADER} /* one\n two */ assign y = a @;\nendmodule\n",
            "b.v:2:22: expected ';', found '@'",
        ),
        ("e.v", f"{HEADER}\n  assign y = a;\n", "e.v:3:1: missing 'endmodule'"),
        (None, f"{HEADER}\n  assign y = q;\nendmodule\n", "<input>:2:14: undeclared identifier 'q'"),
    ],
    ids=["tab", "crlf", "block comment", "end of input", "no file name"],
)
def test_errors_are_located_by_line_and_column(filename, source, message):
    with pytest.raises(ParseError) as info:
        verilog.parse(source, filename=filename)
    assert str(info.value) == message


def test_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifier):
        verilog.parse("module m(input a, output y); assign y = a & nope; endmodule")


def test_duplicate_declaration():
    with pytest.raises(ValidationError):
        verilog.parse("module m(input a, output y); wire a; assign y = a; endmodule")


def test_xz_literals_rejected():
    with pytest.raises(UnsupportedConstruct):
        verilog.parse("module m(output y); assign y = 1'bx; endmodule")


def test_string_parameter_rejected():
    src = 'module m #(parameter MODE = "FAST") (input a, output y); assign y = a; endmodule'
    with pytest.raises(UnsupportedConstruct):
        verilog.parse(src)


def test_unsized_based_literal_rejected():
    with pytest.raises(UnsupportedConstruct):
        verilog.parse("module m(output y); assign y = 'b1; endmodule")


@pytest.mark.parametrize("sized", [True, False])
def test_decimal_literals_past_the_int_digit_limit(sized):
    # `int` alone converts at most 4,300 decimal digits by default.
    digits = "1" + "0" * 5000
    literal = f"20000'd{digits}" if sized else digits
    src = f"module m(input a, output [19999:0] y); assign y = {literal}; endmodule"
    design = verilog.elaborate(verilog.parse(src)).bind({})
    assert design.outputs == (("y", ir.Const(20000, 10**5000)),)
    narrow = f"module m(input a, output y); assign y = {literal}; endmodule"
    with pytest.raises(ValidationError, match=f"literal {digits}: expected 1"):
        verilog.elaborate(verilog.parse(narrow)).bind({})


@pytest.mark.parametrize(
    "body, where, message",
    [
        ("wire [65536:0] w;", "2:8", "vector width 65537"),
        ("assign y = {65537{a}};", "2:14", "replication count 65537"),
        ("assign y = {100000000{a}};", "2:14", "replication count 100000000"),
        ("assign y = 65537'h1;", "2:14", "literal width 65537"),
    ],
    ids=["range", "replication", "huge replication", "literal"],
)
def test_sizes_past_max_width_are_rejected_at_their_token(body, where, message):
    src = f"module m(input a, output y);\n  {body}\nendmodule\n"
    with pytest.raises(ParseError) as info:
        verilog.parse(src, filename="m.v")
    assert str(info.value) == f"m.v:{where}: {message} is over the limit of 65536"


def test_sizes_of_max_width_elaborate():
    src = "module m(input [65535:0] a, output y); assign y = {65536{a[65535]}} == a; endmodule"
    assert verilog.elaborate(verilog.parse(src)).inputs == (("a", 65536),)


def test_a_binding_too_wide_for_its_parameter_is_named_in_decimal():
    cell = verilog.parse("module c #(parameter P = 4'h0) (input a, output y); assign y = P[a]; endmodule")
    with pytest.raises(ValidationError, match=f"parameter P=1{'0' * 5000} does not fit width 4"):
        verilog.elaborate(cell).bind({"P": 10**5000})


def test_unsupported_operators_are_named():
    with pytest.raises(UnsupportedConstruct):
        verilog.parse("module m(input a, input b, output y); assign y = a >= b; endmodule")
    with pytest.raises(UnsupportedConstruct):
        verilog.parse("module m(input a, input b, output y); assign y = a / b; endmodule")


def test_only_zero_based_ranges():
    with pytest.raises(UnsupportedConstruct):
        verilog.parse("module m(input [3:1] a, output y); assign y = a[1]; endmodule")


def test_non_ansi_ports():
    src = """
    module m(a, b, y);
      input a, b;
      output y;
      assign y = a & b;
    endmodule
    """
    sem = verilog.elaborate(verilog.parse(src))
    assert sem.inputs == (("a", 1), ("b", 1))
    assert eval_concrete(sem.outputs[0][1], {"a": 1, "b": 1}) == 1


def test_instances_rejected_without_netlist_mode():
    src = "module m(input a, output y); wire w; LUT2 i0 (.A(a), .B(a), .Z(w)); assign y = w; endmodule"
    with pytest.raises(UnsupportedConstruct):
        verilog.elaborate(verilog.parse(src, allow_instances=True))
    with pytest.raises(VerilogSyntaxError):
        verilog.parse(src)


def test_lut2_elaboration_shape_and_and_table():
    sem = verilog.elaborate(verilog.parse(model("lut2.v")))
    assert sem.inputs == (("A", 1), ("B", 1))
    assert sem.params == (("INIT", 4, 0),)
    (zname, zexpr) = sem.outputs[0]
    assert zname == "Z"
    expected = ir.Extract(
        0, 0, ir.LShr(ir.Var("INIT", 4), ir.Concat(ir.Var("B", 1), ir.Var("A", 1)))
    )
    assert zexpr == expected
    # INIT=8 is AND: true only at A=B=1.
    for a in range(2):
        for b in range(2):
            value = eval_concrete(zexpr, {"A": a, "B": b, "INIT": 8})
            assert value == (a & b)


def test_free_symbols_of_sketched_lut2(lib):
    zexpr = dict(lib.primitives["LUT2"].outputs)["Z"]
    holed = ir.substitute(zexpr, {"INIT": ir.Hole("INIT", 4)})
    assert ir.free_symbols(holed) == ({"A": 1, "B": 1}, {"INIT": 4})


def test_carry_cell_is_a_full_adder():
    design = verilog.elaborate(verilog.parse(model("carry1.v"))).bind({})
    rows = truth_table(design)
    for (a, b, cin), (s, cout) in rows:
        total = a + b + cin
        assert s == total & 1 and cout == total >> 1


def test_bound_parameter_out_of_range():
    with pytest.raises(ValidationError):
        verilog.elaborate(verilog.parse(model("lut2.v"))).bind({"INIT": 16})


def test_bound_equals_symbolic_plus_substitution():
    ast = verilog.parse(model("lut2.v"))
    symbolic = verilog.elaborate(ast)
    for init in range(16):
        bound = symbolic.bind({"INIT": init})
        via_subst = ir.substitute(
            dict(symbolic.outputs)["Z"], {"INIT": ir.Const(4, init)}
        )
        for row in range(4):
            env = {"A": row & 1, "B": row >> 1}
            assert eval_concrete(dict(bound.outputs)["Z"], env) == eval_concrete(via_subst, env)


def test_mult_model_zero_extends_to_product_width():
    sem = verilog.elaborate(verilog.parse(model("mult8x8.v")))
    pexpr = dict(sem.outputs)["P"]
    assert pexpr == ir.Mul(ir.ZeroExt(ir.Var("A", 8), 16), ir.ZeroExt(ir.Var("B", 8), 16))
    assert eval_concrete(pexpr, {"A": 3, "B": 5}) == 15


def test_combinational_cycle_detected():
    src = """
    module m(input a, output y);
      wire x1, x2;
      assign x1 = x2 & a;
      assign x2 = x1;
      assign y = x1;
    endmodule
    """
    with pytest.raises(CombinationalCycle) as info:
        verilog.elaborate(verilog.parse(src))
    assert set(info.value.participants) == {"x1", "x2"}


def test_multiple_drivers_rejected():
    src = "module m(input a, output y); assign y = a; assign y = ~a; endmodule"
    with pytest.raises(ValidationError):
        verilog.elaborate(verilog.parse(src))


def test_undriven_output_bits_rejected():
    src = "module m(input a, output [1:0] y); assign y[0] = a; endmodule"
    with pytest.raises(ValidationError):
        verilog.elaborate(verilog.parse(src))


def test_piecewise_assignment_composes():
    src = """
    module m(input [1:0] a, output [1:0] y);
      assign y[0] = a[1];
      assign y[1] = a[0];
    endmodule
    """
    design = verilog.elaborate(verilog.parse(src)).bind({})
    assert eval_concrete(dict(design.outputs)["y"], {"a": 0b01}) == 0b10


def test_operator_lowering():
    src = """
    module m(input [3:0] a, input [3:0] b, input s, output [3:0] y, output f);
      wire [3:0] t;
      assign t = s ? a + b : a - b;
      assign y = (t << 1) | {4{s}} & ~a;
      assign f = (a == b) ^ (a < b) ^ &a ^ |b ^ ^a ^ (a != b);
    endmodule
    """
    design = verilog.elaborate(verilog.parse(src)).bind({})
    env = {"a": 0b0110, "b": 0b0011, "s": 1}
    t = (env["a"] + env["b"]) & 15
    y = ((t << 1) & 15) | (0b1111 & (~env["a"] & 15))
    f = (0 ^ 0 ^ 0 ^ 1 ^ 0 ^ 1) & 1
    got = {name: eval_concrete(e, env) for name, e in design.outputs}
    assert got == {"y": y, "f": f}


def _show(node):
    if isinstance(node, verilog.VBinary):
        return f"({_show(node.a)} {node.op} {_show(node.b)})"
    return node.name


@pytest.mark.parametrize(
    "rhs, tree",
    [
        (
            "a | b ^ c & a == b < c << a + b * c - a",
            "(a | (b ^ (c & (a == (b < (c << ((a + (b * c)) - a)))))))",
        ),
        ("a - b - c | a | b * c * a", "((((a - b) - c) | a) | ((b * c) * a))"),
        ("a * (b | c) >> a != b", "(((a * (b | c)) >> a) != b)"),
    ],
    ids=["every level", "left associative", "parentheses"],
)
def test_binary_operators_bind_by_precedence_from_the_left(rhs, tree):
    src = f"module m(input a, input b, input c, output y); assign y = {rhs}; endmodule"
    assert _show(verilog.parse(src).assigns[0].rhs) == tree


def test_deep_parentheses_elaborate_as_the_bare_operand():
    def module(rhs):
        return f"module m(input [3:0] a, output [3:0] y); assign y = {rhs}; endmodule"

    deep = verilog.elaborate(verilog.parse(module("(" * 150 + "a" + ")" * 150))).bind({})
    assert deep == verilog.elaborate(verilog.parse(module("a"))).bind({})


def test_replication_and_repeated_wire_reads_share_nodes():
    src = """
    module m(input a, output [3:0] y);
      wire inv;
      assign inv = ~a;
      assign y = {inv, inv, inv, inv};
    endmodule
    """
    design = verilog.elaborate(verilog.parse(src)).bind({})
    yexpr = dict(design.outputs)["y"]
    assert eval_concrete(yexpr, {"a": 0}) == 0b1111
    assert yexpr.hi.hi.hi is yexpr.lo  # one shared node for the wire


def test_widths_that_cannot_reconcile():
    src = "module m(input [3:0] a, output y); assign y = a; endmodule"
    with pytest.raises(ValidationError):
        verilog.elaborate(verilog.parse(src))


def test_import_primitive_writes_deterministic_json(tmp_path):
    out1 = tmp_path / "lut4a.json"
    out2 = tmp_path / "lut4b.json"
    sem = verilog.import_primitive(model("lut4.v"))
    out1.write_text(ir.to_json(sem))
    out2.write_text(ir.to_json(verilog.import_primitive(model("lut4.v"))))
    assert sem.params == (("INIT", 16, 0),)
    assert out1.read_bytes() == out2.read_bytes()
    again = ir.from_json(out1.read_text())
    assert again == sem


def test_dynamic_bit_select_of_wide_wire():
    src = """
    module m(input [7:0] data, input [2:0] idx, output y);
      assign y = data[idx];
    endmodule
    """
    design = verilog.elaborate(verilog.parse(src)).bind({})
    for idx in range(8):
        assert eval_concrete(dict(design.outputs)["y"], {"data": 0b10110100, "idx": idx}) == (
            (0b10110100 >> idx) & 1
        )


def test_reference_models_random_vectors():
    # Wide models get seeded sampling; LUT6 has 70 total bits.
    sem = verilog.elaborate(verilog.parse(model("lut6.v")))
    oexpr = dict(sem.outputs)["O"]
    rng = random.Random(66)
    for _ in range(500):
        init = rng.getrandbits(64)
        row = rng.getrandbits(6)
        env = {f"I{k}": (row >> k) & 1 for k in range(6)}
        env["INIT"] = init
        assert eval_concrete(oexpr, env) == (init >> row) & 1
