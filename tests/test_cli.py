import json
import os
import subprocess
import sys

import pytest

import techmap
from techmap import cli, ir, library, synthesis
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
