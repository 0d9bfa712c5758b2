import io
import random
import subprocess
import sys

import pytest

from techmap import ir, semantics
from techmap.minismt import Interpreter, SmtInputError, parse_forms, tokenize

from util import VAR_POOL, rand_env, rand_expr


def run_script(script):
    out = io.StringIO()
    Interpreter(out).run(parse_forms(tokenize(script)))
    return out.getvalue()


def test_sat_with_model():
    out = run_script(
        "(set-logic QF_BV)\n"
        "(declare-const h (_ BitVec 4))\n"
        "(assert (= (bvadd h #b0011) #b1000))\n"
        "(check-sat)\n(get-value (h))\n"
    )
    assert out == "sat\n((h #b0101))\n"


def test_unsat():
    out = run_script(
        "(declare-const a (_ BitVec 2))\n(assert (= a #b01))\n(assert (= a #b10))\n(check-sat)\n"
    )
    assert out == "unsat\n"


def test_hex_literals_and_ops():
    out = run_script(
        "(declare-const x (_ BitVec 8))\n"
        "(assert (= (bvmul x #x03) #x2d))\n"
        "(assert (bvult x #x10))\n"
        "(check-sat)\n(get-value (x))\n"
    )
    assert out == "sat\n((x #b00001111))\n"


def test_sign_extend_and_neg():
    out = run_script(
        "(declare-const x (_ BitVec 2))\n"
        "(assert (= ((_ sign_extend 2) x) #b1111))\n"
        "(assert (= (bvneg x) #b01))\n"
        "(check-sat)\n(get-value (x))\n"
    )
    assert out == "sat\n((x #b11))\n"


def test_ite_concat_extract():
    out = run_script(
        "(declare-const s (_ BitVec 1))\n"
        "(declare-const v (_ BitVec 2))\n"
        "(assert (= (ite (= s #b1) (concat v #b0) (concat #b0 v)) #b110))\n"
        "(check-sat)\n(get-value (s v))\n"
    )
    assert out == "sat\n((s #b1) (v #b11))\n"


def test_errors():
    with pytest.raises(SmtInputError):
        run_script("(assert (= unknown #b1))\n(check-sat)\n")
    with pytest.raises(SmtInputError):
        run_script("(frobnicate)\n")
    with pytest.raises(SmtInputError):
        run_script("(declare-const a (_ BitVec 1))\n(declare-const a (_ BitVec 1))\n")
    with pytest.raises(SmtInputError):
        run_script("(get-value (a))\n")
    with pytest.raises(SmtInputError):
        run_script("(declare-const a Bool)\n")


def test_subprocess_protocol():
    script = "(declare-const a (_ BitVec 3))\n(assert (bvult #b011 a))\n(check-sat)\n(get-value (a))\n"
    result = subprocess.run(
        [sys.executable, "-m", "techmap.minismt"],
        input=script.encode(),
        capture_output=True,
    )
    assert result.returncode == 0
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "sat"
    assert lines[1].startswith("((a #b1")

    bad = subprocess.run(
        [sys.executable, "-m", "techmap.minismt"],
        input=b"(nonsense)",
        capture_output=True,
    )
    assert bad.returncode == 1
    assert bad.stdout.decode().startswith('(error "')


def test_subprocess_under_optimize_flag():
    # `python -O` drops assert statements; the solver must not depend on one.
    script = "(declare-const x (_ BitVec 2))\n(assert (= x #b10))\n(check-sat)\n(get-value (x))\n"
    result = subprocess.run(
        [sys.executable, "-O", "-m", "techmap.minismt"],
        input=script.encode(),
        capture_output=True,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode() == "sat\n((x #b10))\n"


def test_deterministic_output():
    script = (
        "(declare-const a (_ BitVec 6))\n(declare-const b (_ BitVec 6))\n"
        "(assert (= (bvmul a b) #b011100))\n(assert (bvult a b))\n"
        "(check-sat)\n(get-value (a b))\n"
    )
    assert run_script(script) == run_script(script)


def test_agrees_with_eval_concrete_on_random_terms():
    rng = random.Random(4242)
    for _ in range(60):
        width = rng.randint(1, 10)
        expr = rand_expr(rng, width, 3)
        env = rand_env(rng)
        want = semantics.eval_concrete(expr, env)
        table = {name: name for name, _ in VAR_POOL}
        term = semantics.lower_to_smt(expr, table)
        lines = ["(set-logic QF_BV)"]
        for name, w in VAR_POOL:
            lines.append(f"(declare-const {name} (_ BitVec {w}))")
            lines.append(f"(assert (= {name} #b{env[name]:0{w}b}))")
        lines.append(f"(declare-const result (_ BitVec {width}))")
        lines.append(f"(assert (= result {term}))")
        lines.append("(check-sat)")
        lines.append("(get-value (result))")
        out = run_script("\n".join(lines) + "\n")
        assert out.splitlines()[0] == "sat"
        got = int(out.splitlines()[1].split("#b")[1].rstrip("))"), 2)
        assert got == want, f"solver disagrees on {expr}"
