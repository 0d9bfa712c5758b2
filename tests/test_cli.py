import json
import os
import subprocess
import sys
import time

import pytest

import techmap
from techmap import cli, ir, library, minismt, synthesis, verilog
from techmap.library import data_path
from techmap.synthesis import SolverConfig
from techmap.templates import TemplateKind

from util import majority3_design

DESIGNS = data_path("designs")
MINISMT_ARGS = ["--solver", sys.executable, "--solver-arg=-m", "--solver-arg=techmap.minismt"]


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_map_and_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "and2.v"
    code = run_cli(
        "map", "--design", DESIGNS / "and2.v", "--template", "lut_single",
        "--backend", "brute", "--pin-mode", "pinned", "-o", out,
    )
    assert code == 0
    text = out.read_text()
    assert "LUT2 #(.INIT(4'h8)) inst_0 (.A(a), .B(b), .Z(y));" in text
    report = json.loads((tmp_path / "and2.report.json").read_text())
    assert report["template"] == "lut_single"
    assert report["backend"] == "brute"
    assert report["holes"] == {"inst_0.INIT": 8}
    assert set(report["stats"]) == {"iterations", "solver_calls"}

    assert run_cli("verify", "--design", DESIGNS / "and2.v", "--netlist", out) == 0
    assert "equivalent" in capsys.readouterr().out


def test_verify_counterexample_exit_code(tmp_path, capsys):
    out = tmp_path / "and2.v"
    run_cli(
        "map", "--design", DESIGNS / "and2.v", "--template", "lut_single",
        "--backend", "brute", "--pin-mode", "pinned", "-o", out,
    )
    bad = tmp_path / "bad.v"
    bad.write_text(out.read_text().replace("4'h8", "4'h9"))
    capsys.readouterr()
    code = run_cli("verify", "--design", DESIGNS / "and2.v", "--netlist", bad)
    assert code == 3
    assert "counterexample: a=0x0 b=0x0" in capsys.readouterr().out


def test_map_tries_templates_in_order(tmp_path, capsys):
    out = tmp_path / "adder.v"
    code = run_cli(
        "map", "--design", DESIGNS / "adder4.v", "--template", "lut_single,carry_chain",
        "--backend", "cegis", *MINISMT_ARGS, "-o", out,
    )
    assert code == 0
    report = json.loads((tmp_path / "adder.report.json").read_text())
    assert report["template"] == "carry_chain"
    assert out.read_text().count("CARRY1") == 4
    assert run_cli("verify", "--design", DESIGNS / "adder4.v", "--netlist", out) == 0


def test_map_infeasible_exit_code(tmp_path, capsys):
    # majority3 cannot fit a LUT2-only library: exit 3 with the reason.
    lut2_only = library.Library(
        {"LUT2": library.default_library().primitives["LUT2"]}, {}
    )
    libdir = tmp_path / "lib"
    library.save_library(lut2_only, libdir)
    design = tmp_path / "maj3.json"
    design.write_text(ir.to_json(majority3_design()))
    code = run_cli(
        "map", "--design", design, "--library", libdir,
        "--template", "lut_single", "--backend", "brute", "-o", tmp_path / "out.v",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "lut_single" in err and "no template produced a mapping" in err


def test_map_solver_failure_exit_code(tmp_path):
    code = run_cli(
        "map", "--design", DESIGNS / "and2.v", "--template", "lut_single",
        "--backend", "cegis", "--solver", "/no/such/solver", "-o", tmp_path / "x.v",
    )
    assert code == 2


def test_map_unknown_template_is_user_error(tmp_path):
    code = run_cli(
        "map", "--design", DESIGNS / "and2.v", "--template", "magic",
        "-o", tmp_path / "x.v",
    )
    assert code == 1


def test_import_command(tmp_path, capsys):
    out = tmp_path / "lut4.json"
    code = run_cli("import", data_path("models", "lut4.v"), "-o", out)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["name"] == "LUT4"
    assert payload["params"] == [{"name": "INIT", "width": 16, "default": "0"}]

    renamed = tmp_path / "alias.json"
    code = run_cli("import", data_path("models", "lut4.v"), "--name", "MYLUT", "-o", renamed)
    assert code == 0
    assert json.loads(renamed.read_text())["name"] == "MYLUT"


@pytest.mark.parametrize("name", ["lut2", "lut4", "lut6", "carry1", "mult8x8"])
def test_import_writes_the_shipped_library_bytes(tmp_path, name):
    out = tmp_path / f"{name}.json"
    assert run_cli("import", data_path("models", f"{name}.v"), "-o", out) == 0
    assert out.read_bytes() == data_path("library", f"{name}.json").read_bytes()


def test_primitive_with_parameters_is_not_a_design(tmp_path, capsys):
    lut2 = data_path("library", "lut2.json")
    for args in (
        ("simulate", "--design", lut2, "--inputs", "A=1,B=0"),
        ("map", "--design", lut2, "--template", "lut_single", "-o", tmp_path / "x.v"),
    ):
        assert run_cli(*args) == 1
        err = capsys.readouterr().err
        assert f"error: {lut2} does not contain a design" in err and "internal error" not in err
    carry1 = data_path("library", "carry1.json")
    assert run_cli("simulate", "--design", carry1, "--inputs", "A=1,B=1,CIN=1") == 0
    assert capsys.readouterr().out == "S=0x1 COUT=0x1\n"


def test_import_unsupported_construct(tmp_path, capsys):
    src = tmp_path / "seq.v"
    src.write_text("module ff(input c, input d, output q); always @(posedge c) q <= d; endmodule")
    code = run_cli("import", src, "-o", tmp_path / "x.json")
    assert code == 1
    err = capsys.readouterr().err
    assert "always" in err and "seq.v:1:" in err


def test_import_missing_file(tmp_path):
    assert run_cli("import", tmp_path / "nope.v", "-o", tmp_path / "x.json") == 1


def test_simulate_adder(capsys):
    code = run_cli(
        "simulate", "--design", DESIGNS / "adder4.v", "--inputs", "a=0xF,b=0x1,cin=0"
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "s=0x0 cout=0x1"


def test_simulate_missing_input(capsys):
    code = run_cli("simulate", "--design", DESIGNS / "adder4.v", "--inputs", "a=1,b=2")
    assert code == 1
    assert "cin" in capsys.readouterr().err


def test_simulate_value_too_wide(capsys):
    code = run_cli(
        "simulate", "--design", DESIGNS / "adder4.v", "--inputs", "a=0x10,b=0,cin=0"
    )
    assert code == 1


def test_simulate_unknown_input(capsys):
    code = run_cli(
        "simulate", "--design", DESIGNS / "adder4.v", "--inputs", "a=1,b=2,cin=0,zz=1"
    )
    assert code == 1


def test_verify_exhaustive_limit(tmp_path):
    wide = "module wide (" + ", ".join(f"input i{k}" for k in range(17)) + ", output y);\n"
    wide += "  assign y = i0;\nendmodule\n"
    src = tmp_path / "wide.v"
    src.write_text(wide)
    code = run_cli("verify", "--design", src, "--netlist", src, "--mode", "exhaustive")
    assert code == 1


def test_verify_solver_mode(tmp_path, capsys):
    out = tmp_path / "and2.v"
    run_cli(
        "map", "--design", DESIGNS / "and2.v", "--template", "lut_single",
        "--backend", "brute", "-o", out,
    )
    code = run_cli(
        "verify", "--design", DESIGNS / "and2.v", "--netlist", out,
        "--mode", "solver", *MINISMT_ARGS,
    )
    assert code == 0


def test_verify_solver_mode_partial_model_is_solver_error(tmp_path, capsys):
    out = tmp_path / "and2.v"
    run_cli(
        "map", "--design", DESIGNS / "and2.v", "--template", "lut_single",
        "--backend", "brute", "-o", out,
    )
    fake = tmp_path / "fake.sh"
    fake.write_text("#!/bin/sh\ncat > /dev/null\necho sat\necho '((a #b1))'\n")
    fake.chmod(0o755)
    capsys.readouterr()
    code = run_cli(
        "verify", "--design", DESIGNS / "and2.v", "--netlist", out,
        "--mode", "solver", "--solver", fake,
    )
    assert code == 2
    assert "solver error: solver model is missing a value for 'b'" in capsys.readouterr().err


def test_design_json_input(tmp_path):
    code = run_cli(
        "map", "--design", DESIGNS / "xor2.json", "--template", "lut_single",
        "--backend", "brute", "--pin-mode", "pinned", "-o", tmp_path / "xor2.v",
    )
    assert code == 0
    assert "4'h6" in (tmp_path / "xor2.v").read_text()


def test_bad_arguments_are_user_errors():
    assert run_cli("map", "--design", "x.v") == 1  # missing required flags
    assert run_cli("frobnicate") == 1


def test_resolve_solver_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(cli.SOLVER_ENV_VAR, raising=False)
    monkeypatch.setattr("shutil.which", lambda name: None)
    config = cli.resolve_solver()
    assert config == synthesis.BUNDLED_SOLVER
    assert config.path == sys.executable
    assert config.args == ("-m", "techmap.minismt")
    # Named explicitly, as the benchmark does, it is the same solver.
    assert cli.resolve_solver(MINISMT_ARGS[1], ("-m", "techmap.minismt")) == config

    monkeypatch.setenv(cli.SOLVER_ENV_VAR, "/opt/bin/z3")
    config = cli.resolve_solver()
    assert config.path == "/opt/bin/z3"
    assert config.args == ("-in", "-smt2")

    config = cli.resolve_solver("/usr/bin/cvc5")
    assert config.args == ("--lang", "smt2")
    config = cli.resolve_solver("/usr/bin/mysolver", ("-x",))
    assert config == SolverConfig("/usr/bin/mysolver", ("-x",))


@pytest.mark.parametrize(
    "breakage, where",
    [
        (lambda sem: sem["inputs"][0].pop("name"), "lut2.json.inputs[0]"),
        (lambda sem: sem["params"][0].update(default="0x3"), "lut2.json.params[0]"),
        (lambda sem: sem["outputs"][0].pop("expr"), "lut2.json.outputs[0].expr"),
        (lambda sem: sem.update(outputs={}), "lut2.json"),
    ],
    ids=["input name", "param default", "output expr", "outputs array"],
)
def test_malformed_library_entry_is_located_user_error(tmp_path, capsys, breakage, where):
    libdir = tmp_path / "lib"
    library.save_library(library.default_library(), libdir)
    sem = json.loads((libdir / "lut2.json").read_text())
    breakage(sem)
    (libdir / "lut2.json").write_text(json.dumps(sem))
    code = run_cli(
        "map", "--design", DESIGNS / "and2.v", "--library", libdir,
        "--template", "lut_single", "-o", tmp_path / "x.v",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {where}: " in err and "internal error" not in err


def test_bundled_solver_imports_this_techmap_without_pythonpath(tmp_path):
    # techmap is importable here only through sys.path; the solver child
    # must still find the same package.
    root = os.path.dirname(os.path.dirname(os.path.abspath(techmap.__file__)))
    out = tmp_path / "and2.v"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {root!r})\n"
        "from techmap import cli\n"
        f"design, out, solver = {str(DESIGNS / 'and2.v')!r}, {str(out)!r}, {MINISMT_ARGS!r}\n"
        "rc = cli.main(['map', '--design', design, '--template', 'lut_single',\n"
        "               '--backend', 'cegis', *solver, '-o', out])\n"
        "rc = rc or cli.main(['verify', '--design', design, '--netlist', out,\n"
        "                     '--mode', 'solver', *solver])\n"
        "sys.exit(rc)\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", cli.SOLVER_ENV_VAR)}
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert "LUT2" in out.read_text()


def _module(rhs):
    return f"module m(input a, output y);\n  assign y = {rhs};\nendmodule\n"


def _nots(depth):
    return '{"op": "not", "args": [' * depth + '{"op": "var", "name": "a", "width": 1}' + "]}" * depth


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("xor.v", _module(" ^ ".join(["a"] * 1000)), ":2:3: expression nested too deeply"),
        ("paren.v", _module("(" * 3000 + "a" + ")" * 3000), ":2:"),
        ("not.v", _module("~" * 3000 + "a"), ":2:"),
        (
            "not.json",
            '{"name": "d", "inputs": [{"name": "a", "width": 1}], '
            f'"outputs": [{{"name": "y", "expr": {_nots(800)}}}]}}',
            "error: $: nested too deeply",
        ),
    ],
    ids=["xor chain", "parentheses", "negations", "design json"],
)
def test_deeply_nested_design_is_located_user_error(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    err = capsys.readouterr().err
    assert message in err and "nested too deeply" in err and "internal error" not in err
    if name.endswith(".v"):
        assert f"error: {path}:2:" in err


def test_deeply_nested_library_entry_is_located_user_error(tmp_path, capsys):
    libdir = tmp_path / "lib"
    library.save_library(library.default_library(), libdir)
    (libdir / "lut2.json").write_text(
        '{"name": "LUT2", "inputs": [{"name": "a", "width": 1}], "params": [], '
        f'"outputs": [{{"name": "y", "expr": {_nots(800)}}}]}}'
    )
    code = run_cli(
        "map", "--design", DESIGNS / "and2.v", "--library", libdir,
        "--template", "lut_single", "-o", tmp_path / "x.v",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {libdir / 'lut2.json'}: nested too deeply" in err


# A JSON number of more digits than Python's int conversion accepts.
HUGE_NUMBER = "1" + "0" * 5000
A2_TEXT = '{"op": "var", "name": "a", "width": 2}'


def test_design_json_number_past_the_int_digit_limit_is_user_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    extract = f'{{"op": "extract", "hi": {HUGE_NUMBER}, "lo": 0, "args": [{A2_TEXT}]}}'
    path.write_text(
        '{"name": "d", "inputs": [{"name": "a", "width": 2}], '
        f'"outputs": [{{"name": "y", "expr": {extract}}}]}}'
    )
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    assert capsys.readouterr().err == "error: $: number has too many digits\n"


def test_library_json_number_past_the_int_digit_limit_is_user_error(tmp_path, capsys):
    libdir = tmp_path / "lib"
    library.save_library(library.default_library(), libdir)
    text = (libdir / "lut2.json").read_text()
    (libdir / "lut2.json").write_text(text.replace('"width": 1', f'"width": {HUGE_NUMBER}', 1))
    code = run_cli(
        "map", "--design", DESIGNS / "and2.v", "--library", libdir,
        "--template", "lut_single", "-o", tmp_path / "x.v",
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {libdir / 'lut2.json'}: number has too many digits\n"


def test_verilog_number_past_the_int_digit_limit_is_located_user_error(tmp_path, capsys):
    path = tmp_path / "bit.v"
    path.write_text(_module(f"a[{'9' * 5000}]"))
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: width mismatch at {path}:2:3: select a[9999") and "internal" not in err


def test_design_json_input_past_max_width_is_user_error(tmp_path, capsys):
    wide = {"op": "var", "name": "a", "width": 65537}
    design = {
        "name": "d",
        "inputs": [{"name": "a", "width": 65537}],
        "outputs": [{"name": "y", "expr": {"op": "extract", "hi": 0, "lo": 0, "args": [wide]}}],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(design))
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    err = capsys.readouterr().err
    assert err == "error: $.outputs[0].expr.args[0]: Var 'a' width 65537 is not in 1..65536\n"


@pytest.mark.parametrize(
    "design, message",
    [
        (
            {"name": "d", "inputs": [{"name": "a", "width": 65537}],
             "outputs": [{"name": "y", "expr": {"op": "const", "width": 1, "value": "0"}}]},
            "input a width 65537 is not in 1..65536",
        ),
        (
            {"name": "d", "inputs": [{"name": "a", "width": 1}, {"name": "a", "width": 1}],
             "outputs": [{"name": "y", "expr": {"op": "var", "name": "a", "width": 1}}]},
            "duplicate name in design 'd'",
        ),
    ],
    ids=["unread wide input", "duplicate port"],
)
def test_design_json_error_as_a_whole_names_its_path(tmp_path, capsys, design, message):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(design))
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    assert capsys.readouterr().err == f"error: $: {message}\n"


@pytest.mark.parametrize(
    "literal, message",
    [
        ("20'h" + "F" * 100_000, "literal \"20'h" + "F" * 36 + "\"... (100004 characters)"
         " value does not fit its width"),
        ("4'b" + "1" * 70_000, "literal \"4'b" + "1" * 37 + "\"... (70003 characters)"
         " value does not fit its width"),
        ("9" * 19_729 + "'h1", "literal width of 19729 digits is over the limit of 65536"),
    ],
    ids=["hex", "binary", "size"],
)
def test_oversized_verilog_literal_is_a_short_located_error(tmp_path, capsys, literal, message):
    path = tmp_path / "m.v"
    path.write_text(f"module m(input a, output [19:0] y);\n  assign y = {literal};\nendmodule\n")
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:2:14: {message}\n"
    assert len(err) - len(str(path)) < 300


@pytest.mark.parametrize(
    "body, message",
    [
        ("assign y = {65536{a}} == a;", "expression width 262144"),
        ("assign y = {65536{a}};", "replication width 262144"),
        (f"assign y = a == {minismt.decimal_text(1 << 65536)};", "expression width 65537"),
    ],
    ids=["comparison", "replication", "unsized literal"],
)
def test_verilog_expression_past_max_width_is_located_user_error(tmp_path, capsys, body, message):
    path = tmp_path / "m.v"
    path.write_text(f"module m(input [3:0] a, output [3:0] y);\n  {body}\nendmodule\n")
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:2:3: {message} is over the limit of 65536\n"


@pytest.mark.parametrize(
    "rhs, where",
    [("9" * 1_000_000, "2:14"), ("20'd" + "9" * 100_000, "2:14")],
    ids=["unsized", "sized"],
)
def test_decimal_number_too_long_for_any_width_is_refused_quickly(tmp_path, capsys, rhs, where):
    path = tmp_path / "m.v"
    path.write_text(_module(rhs))
    start = time.perf_counter()
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert len(err) < 300 and err.startswith(f"error: {path}:{where}: decimal number of ")


@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "--design", "{bad}", "--inputs", "a=1"),
        ("import", "{bad}", "-o", "{tmp}/x.json"),
        ("verify", "--design", DESIGNS / "and2.v", "--netlist", "{bad}"),
    ],
    ids=["simulate", "import", "verify"],
)
def test_verilog_file_that_is_not_utf8_is_located_user_error(tmp_path, capsys, args):
    bad = tmp_path / "bad.v"
    bad.write_bytes(b"module m(input a, output y);\n  assign y = a; // \xff\nendmodule\n")
    assert run_cli(*(str(a).format(bad=bad, tmp=tmp_path) for a in args)) == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text at byte 48\n"


def test_library_file_that_is_not_utf8_is_located_user_error(tmp_path, capsys):
    libdir = tmp_path / "lib"
    library.save_library(library.default_library(), libdir)
    (libdir / "manifest.json").write_bytes(b'{"primitives": []}\xff')
    code = run_cli(
        "map", "--design", DESIGNS / "and2.v", "--library", libdir,
        "--template", "lut_single", "-o", tmp_path / "x.v",
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {libdir / 'manifest.json'}: not UTF-8 text at byte 18\n"


def test_long_wire_chain_elaborates(tmp_path, capsys):
    # Each wire reads the next, so ordering the definitions walks a chain
    # of 1200 wires.
    n = 1200
    lines = ["module m(input a, output y);"]
    lines += [f"  wire w{k};" for k in range(n)]
    lines.append(f"  assign w{n - 1} = a;")
    lines += [f"  assign w{k} = ~w{k + 1};" for k in range(n - 1)]
    lines += ["  assign y = w0;", "endmodule"]
    path = tmp_path / "chain.v"
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 0
    assert capsys.readouterr().out == "y=0x0\n"


@pytest.mark.parametrize(
    "template, source, declaration",
    [
        (
            "carry_chain",
            "module add2(input [1:0] c0, input [1:0] c1, output [1:0] s);\n"
            "  assign s = c0 + c1;\nendmodule\n",
            "  wire c0_1;\n",
        ),
        (
            "multiplier",
            "module mulp(input [3:0] inst_0_P, input [3:0] b, output [7:0] p);\n"
            "  assign p = inst_0_P * b;\nendmodule\n",
            "  wire [15:0] inst_0_P_1;\n",
        ),
        (
            "lut_single",
            "module andi(input inst_0, input b, output y);\n"
            "  assign y = inst_0 & b;\nendmodule\n",
            " inst_0_1 (.A(inst_0), .B(b), .Z(y));\n",
        ),
    ],
    ids=["carry wire", "multiplier wire", "instance"],
)
def test_netlist_names_avoid_design_ports(tmp_path, capsys, template, source, declaration):
    design = tmp_path / "design.v"
    design.write_text(source)
    out = tmp_path / "out.v"
    code = run_cli(
        "map", "--design", design, "--template", template,
        "--backend", "brute", "--pin-mode", "pinned", "-o", out,
    )
    assert code == 0
    assert declaration in out.read_text()
    assert run_cli("verify", "--design", design, "--netlist", out) == 0
    assert capsys.readouterr().out == "equivalent\n"


@pytest.mark.parametrize("field, name", [("input", "wire"), ("module", "2x")])
def test_map_rejects_design_names_that_do_not_reimport(tmp_path, capsys, field, name):
    obj = json.loads((DESIGNS / "xor2.json").read_text())
    if field == "module":
        obj["name"] = name
    else:
        obj["inputs"][0]["name"] = name
        obj["outputs"][0]["expr"]["args"][0]["name"] = name
    design = tmp_path / "named.json"
    design.write_text(json.dumps(obj))
    out = tmp_path / "out.v"
    code = run_cli(
        "map", "--design", design, "--template", "lut_single",
        "--backend", "brute", "--pin-mode", "pinned", "-o", out,
    )
    assert code == 1
    kind = "module" if field == "module" else "port"
    assert f"error: {design}: {kind} name '{name}' is not a Verilog identifier" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "source, where, message",
    [
        ("module m(a, y); input a; endmodule\n", "1:13", "undeclared identifier 'y'"),
        (
            "module m(input a, output y); input a; assign y = a; endmodule\n",
            "1:8",
            "port direction declared both in header and body",
        ),
        (
            "module m(a, input b, output y); assign y = b; endmodule\n",
            "1:8",
            "mixed ANSI and non-ANSI port list",
        ),
    ],
    ids=["undeclared port", "direction twice", "mixed port list"],
)
def test_non_ansi_header_faults_are_located(tmp_path, capsys, source, where, message):
    path = tmp_path / "m.v"
    path.write_text(source)
    assert run_cli("simulate", "--design", path, "--inputs", "a=1") == 1
    assert capsys.readouterr().err == f"error: {path}:{where}: {message}\n"


def test_import_of_deep_model_is_located_user_error(tmp_path, capsys):
    model = tmp_path / "deep.v"
    model.write_text(
        "module DEEP(input A, output Z);\n  assign Z = " + " ^ ".join(["A"] * 600) + ";\nendmodule\n"
    )
    out = tmp_path / "deep.json"
    assert run_cli("import", model, "-o", out) == 1
    assert capsys.readouterr().err == f"error: {model}: expression nested too deeply\n"
    assert not out.exists()


# A 20,000-bit value has up to 6,021 decimal digits; `int` and `str` alone
# convert at most 4,300 of them by default.
WIDE_ONES = "20000'h" + "F" * 5000


def test_simulate_shifts_a_wide_constant(tmp_path, capsys):
    path = tmp_path / "shl.v"
    path.write_text(
        "module shl(input [3:0] A, output [19999:0] Z);\n  assign Z = 20000'h1 << A;\nendmodule\n"
    )
    assert run_cli("simulate", "--design", path, "--inputs", "A=3") == 0
    assert capsys.readouterr().out == "Z=0x8\n"


def test_map_pinned_reads_a_wide_constant(tmp_path):
    path = tmp_path / "addw.v"
    path.write_text(
        "module addw(input a, input b, input c, input d, output y);\n"
        "  wire [19999:0] w;\n  assign w = a + 20000'd1;\n  assign y = w[0] ^ b ^ c ^ d;\n"
        "endmodule\n"
    )
    out = tmp_path / "out.v"
    code = run_cli(
        "map", "--design", path, "--template", "lut_single", "--pin-mode", "pinned", "-o", out
    )
    assert code == 0
    assert "LUT4 #(.INIT(16'h9669))" in out.read_text()


@pytest.mark.parametrize(
    "source",
    [
        f"module W #(parameter P = {WIDE_ONES}) (input A, output Z);\n  assign Z = A;\nendmodule\n",
        f"module W (input A, output [19999:0] Z);\n  assign Z = {WIDE_ONES};\nendmodule\n",
    ],
    ids=["parameter", "assign"],
)
def test_import_writes_a_wide_value(tmp_path, source):
    model = tmp_path / "w.v"
    model.write_text(source)
    out = tmp_path / "w.json"
    assert run_cli("import", model, "-o", out) == 0
    assert ir.from_json(out.read_text()) == verilog.import_primitive(source)


A2 = {"op": "var", "name": "a", "width": 2}


@pytest.mark.parametrize(
    "expr, where, message",
    [
        (
            {"op": "and", "args": [A2, {"op": "zext", "width": 1, "args": [A2]}]},
            "$.outputs[0].expr.args[1]",
            "width mismatch at ZeroExt: expected >= 2, got 1",
        ),
        (
            {"op": "and", "args": [A2, {"op": "extract", "hi": 2, "lo": 0, "args": [A2]}]},
            "$.outputs[0].expr.args[1]",
            "Extract range [2:0] invalid for width 2",
        ),
        (
            {"op": "and", "args": [A2, {"op": "var", "name": "b", "width": 1}]},
            "$.outputs[0].expr",
            "width mismatch at And: expected 2, got 1",
        ),
        (
            {"op": "and", "args": [A2, {"op": "const", "width": 2, "value": "4"}]},
            "$.outputs[0].expr.args[1]",
            "Const value 4 out of range for width 2",
        ),
    ],
    ids=["zext", "extract", "and widths", "const"],
)
def test_json_node_errors_are_located(tmp_path, capsys, expr, where, message):
    design = {
        "name": "bad",
        "inputs": [{"name": "a", "width": 2}, {"name": "b", "width": 1}],
        "outputs": [{"name": "y", "expr": expr}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(design))
    assert run_cli("simulate", "--design", path, "--inputs", "a=1,b=0") == 1
    assert capsys.readouterr().err == f"error: {where}: {message}\n"
