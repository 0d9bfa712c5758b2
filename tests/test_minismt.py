import contextlib
import functools
import gc
import hashlib
import io
import random
import select
import subprocess
import sys
import time
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from techmap import ir, minismt, semantics, synthesis
from techmap.minismt import (
    MAX_WIDTH,
    Interpreter,
    SmtInputError,
    main,
    parse_forms,
    serve,
    tokenize,
)
from techmap.templates import TemplateKind, instantiate

from util import VAR_POOL, adder4_design, rand_env, rand_expr, table4_design


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
    with pytest.raises(SmtInputError):
        run_script("(declare-const a (_ BitVec q))\n")
    with pytest.raises(SmtInputError):
        run_script("(assert (not))\n")
    with pytest.raises(SmtInputError):
        run_script("(echo (x))\n")
    with pytest.raises(SmtInputError):  # the last model has no value for `a`
        run_script("(check-sat)\n(declare-const a (_ BitVec 1))\n(get-value (a))\n")
    # Each of these reads, if at all, as a term equal to itself.
    for term in (
        "#x0x1", "#x+f", "(_ bv5 2)", "(_ bv1 foo)", "((_ extract a 0) x)",
        "((_ zero_extend -1) x)",
    ):
        with pytest.raises(SmtInputError):
            run_script(f"(declare-const x (_ BitVec 4))\n(assert (= {term} {term}))\n")


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


@pytest.mark.parametrize(
    "script",
    [
        "(declare-const x (_ BitVec 2000000))\n(check-sat)\n",
        "(declare-const x (_ BitVec 0))\n",
        "(assert (= (_ bv0 3000000) (_ bv0 3000000)))\n",
        "(declare-const x (_ BitVec 1))\n(assert (= ((_ zero_extend 3000000) x) #b0))\n",
        f"(declare-const x (_ BitVec {MAX_WIDTH}))\n(assert (= ((_ sign_extend 1) x) x))\n",
        f"(declare-const x (_ BitVec {MAX_WIDTH}))\n(assert (= (concat x {' x' * 200}) x))\n",
    ],
    ids=["declare", "declare none", "literal", "zero_extend", "sign_extend", "concat"],
)
def test_widths_past_the_cap_are_input_errors(script):
    start = time.perf_counter()
    with pytest.raises(SmtInputError, match=f"width [0-9]+ is not in 1..{MAX_WIDTH}"):
        run_script(script)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "script",
    [
        f"(declare-const x (_ BitVec 1{'0' * 5000}))\n",
        f"(declare-const x (_ BitVec 1{'0' * 1_000_000}))\n",
        f"(declare-const x (_ BitVec 4))\n(assert (= ((_ extract 1{'0' * 5000} 0) x) x))\n",
    ],
    ids=["5000-digit width", "1 MB width", "5000-digit index"],
)
def test_numerals_past_the_int_digit_limit_are_input_errors(script):
    start = time.perf_counter()
    with pytest.raises(SmtInputError, match="bad numeral|width 1|extract"):
        run_script(script)
    assert time.perf_counter() - start < 0.5


def test_literal_values_past_the_int_digit_limit():
    # N = 10^19728 has 19,729 digits and fits 65536 bits; `int` alone
    # converts at most 4,300 decimal digits by default.
    digits = "1" + "0" * 19728
    assert minismt.literal(("_", "bv" + digits, str(MAX_WIDTH))) == (10**19728, MAX_WIDTH)
    with pytest.raises(SmtInputError, match="bad numeral"):
        minismt.numeral(digits + "x")


def test_max_digits_is_the_length_of_the_largest_max_width_value():
    assert len(minismt.decimal_text((1 << MAX_WIDTH) - 1)) == minismt.MAX_DIGITS
    assert len(minismt.decimal_text(1 << MAX_WIDTH)) == minismt.MAX_DIGITS


@pytest.mark.parametrize("count", [1, 639, 640, 641, 1280, 1281, 5000])
def test_decimal_conversions_have_no_digit_limit(count):
    rng = random.Random(count)
    text = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(count - 1))
    value = minismt.decimal(text)
    assert value == functools.reduce(lambda v, digit: 10 * v + int(digit), text, 0)
    assert minismt.decimal_text(value) == text
    for bad in ("", "x" + text, text + "_", "-" * 700 + text):
        with pytest.raises(ValueError):
            minismt.decimal(bad)
    assert minismt.decimal(" 1_0 ") == int(" 1_0 ") == 10


def test_a_concat_of_max_width_operands_is_read_in_linear_time():
    operands = " x" * MAX_WIDTH
    script = f"(declare-const x (_ BitVec 1))\n(assert (= (concat{operands}) (concat{operands})))\n"
    start = time.perf_counter()
    assert run_script(script + "(check-sat)\n") == "sat\n"
    assert time.perf_counter() - start < 0.5
    with pytest.raises(SmtInputError, match=f"concat width {MAX_WIDTH + 1} is not in"):
        run_script(script.replace("(concat", "(concat x", 1))


def test_widths_at_the_cap_are_accepted():
    script = (
        f"(declare-const x (_ BitVec {MAX_WIDTH}))\n(declare-const y (_ BitVec 1))\n"
        f"(assert (= ((_ zero_extend {MAX_WIDTH - 1}) y) (bvand x (_ bv1 {MAX_WIDTH}))))\n"
    )
    assert run_script(script) == ""


def test_subprocess_width_past_the_cap_is_an_input_error():
    result = subprocess.run(
        [sys.executable, "-m", "techmap.minismt"],
        input=b"(declare-const x (_ BitVec 2000000))\n(check-sat)\n",
        capture_output=True, timeout=60,
    )
    assert result.returncode == 1
    assert result.stdout.decode().startswith('(error "BitVec width 2000000')
    assert result.stderr == b""


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


@pytest.mark.parametrize("name", ["(", ")"])
def test_quoted_bracket_symbol_is_an_atom(name):
    script = f"(declare-const |{name}| (_ BitVec 1))\n(check-sat)\n(get-value (|{name}|))\n"
    assert parse_forms(tokenize(script))[0] == ("declare-const", name, ("_", "BitVec", "1"))
    assert run_script(script) == f"sat\n((|{name}| #b0))\n"


def serve_script(script):
    out = io.StringIO()
    serve(io.StringIO(script), out)
    return out.getvalue()


@pytest.mark.parametrize(
    "script",
    [
        "(declare-const x\n  (_ BitVec 4)) (assert\n(= (bvadd x #x3) #x8)) (check-sat) (get-value\n (x))\n",
        '(echo "a\nb") (check-sat)\n',
        "(declare-const |a\nb| (_ BitVec 1))\n(check-sat)\n(get-value (|a\nb|))\n",
    ],
    ids=["forms", "string", "quoted symbol"],
)
def test_stream_matches_reading_the_whole_script(script):
    # Forms, strings and quoted symbols may all go on over line breaks.
    assert serve_script(script) == run_script(script)


def test_stream_form_over_three_lines_matches_one_line():
    one = "(declare-const x (_ BitVec 2))\n(assert (= x #b10))\n(check-sat)\n(get-value (x))\n"
    three = "(declare-const x (_ BitVec 2))\n(assert\n  (= x\n     #b10))\n(check-sat)\n(get-value (x))\n"
    assert serve_script(three) == serve_script(one) == "sat\n((x #b10))\n"


def test_reset_allows_redeclaring():
    script = (
        "(declare-const x (_ BitVec 1))\n(assert (= x #b1))\n(check-sat)\n(get-value (x))\n"
        "(reset)\n(declare-const x (_ BitVec 2))\n(check-sat)\n(get-value (x))\n"
    )
    assert serve_script(script) == "sat\n((x #b1))\nsat\n((x #b00))\n"
    assert run_script(script) == serve_script(script)


def test_stream_runs_commands_before_a_syntax_error(monkeypatch, capsys):
    # Like z3, and unlike the file mode, which reads the whole script first.
    monkeypatch.setattr(sys, "stdin", io.StringIO("(check-sat)\n(check-sat"))
    assert main([]) == 1
    assert capsys.readouterr().out == 'sat\n(error "missing \')\'")\n'


def test_stream_stops_at_exit():
    assert serve_script("(check-sat)\n(exit)\n(frobnicate)\n") == "sat\n"


def test_subprocess_answers_before_stdin_closes():
    proc = subprocess.Popen(
        [sys.executable, "-m", "techmap.minismt"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
    )
    try:
        proc.stdin.write(b"(check-sat)\n")
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "no reply within 60 s while stdin is open"
        assert proc.stdout.readline() == b"sat\n"
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)
        proc.stdout.close()
    assert proc.returncode == 0


def test_subprocess_deep_nesting_is_an_input_error():
    term = "(bvnot " * 5000 + "x" + ")" * 5000
    script = f"(declare-const x (_ BitVec 1))\n(assert (= {term} #b1))\n(check-sat)\n"
    result = subprocess.run(
        [sys.executable, "-m", "techmap.minismt"],
        input=script.encode(), capture_output=True, timeout=120,
    )
    assert result.returncode == 1
    assert result.stdout.decode().startswith('(error "')
    assert b"Traceback" not in result.stderr


@pytest.mark.parametrize("form", ["(assert (= {} #b1))", "({})"], ids=["term", "command"])
def test_in_process_deep_nesting_is_an_input_error(form):
    term = "(bvnot " * 3000 + "x" + ")" * 3000
    script = "(declare-const x (_ BitVec 1))\n" + form.format(term) + "\n(check-sat)\n"
    with pytest.raises(SmtInputError, match="nested too deeply"):
        run_script(script)


@pytest.mark.parametrize(
    "script, reply",
    [
        (
            "(declare-const x (_ BitVec 2))\n(check-sat)\n"
            "(assert (= x #b11))\n(check-sat)\n(get-value (x))\n",
            "sat\nsat\n((x #b11))\n",
        ),
        (
            "(declare-const x (_ BitVec 4))\n(declare-const y (_ BitVec 4))\n"
            "(assert (bvult x y))\n(check-sat)\n"
            "(assert (= y #b0011))\n(assert (= x #b0010))\n(check-sat)\n(get-value (x y))\n",
            "sat\nsat\n((x #b0010) (y #b0011))\n",
        ),
    ],
    ids=["unit", "after search"],
)
def test_assert_after_sat_meets_level_zero_not_the_last_model(script, reply):
    assert run_script(script) == reply


def test_get_info_all_statistics_counts_since_reset():
    script = (
        "(declare-const a (_ BitVec 6))\n(declare-const b (_ BitVec 6))\n"
        "(assert (= (bvmul a b) #b011100))\n(assert (bvult a b))\n"
        "(check-sat)\n(get-info :all-statistics)\n(reset)\n(get-info :all-statistics)\n"
    )
    lines = run_script(script).splitlines()
    assert lines[0] == "sat"
    fields = lines[1].strip("()").split()
    stats = dict(zip(fields[::2], map(int, fields[1::2])))
    assert list(stats) == [":decisions", ":conflicts", ":propagations", ":vars", ":clauses"]
    assert stats[":decisions"] > 0 and stats[":propagations"] > 0
    assert stats[":vars"] > 12 and stats[":clauses"] > 0
    assert lines[2] == "(:decisions 0 :conflicts 0 :propagations 0 :vars 1 :clauses 0)"
    with pytest.raises(SmtInputError):
        run_script("(get-info :version)\n")


@st.composite
def command_streams(draw):
    """Declarations, assertions and `(check-sat)` queries, one command a line.

    Each assertion relates two random `rand_expr`s over VAR_POOL as they
    compare under one hidden environment, by `bvult` or `=`, so that every
    query is sat and most leave the search a choice. The variables an
    assertion reads are declared just before it. The generator is seeded by
    a drawn integer, since `rand_expr` takes a `random.Random`.
    """
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    env = rand_env(rng)
    table = {name: name for name, _ in VAR_POOL}
    declared = set()
    lines = []
    for _ in range(draw(st.integers(2, 12))):
        if rng.random() < 0.4:
            lines.append("(check-sat)")
            continue
        width = rng.randint(1, 8)
        pair = [rand_expr(rng, width, rng.randint(1, 4)) for _ in range(2)]
        for name, w in sorted(ir.free_symbols(ir.Concat(*pair))[0].items()):
            if name not in declared:
                declared.add(name)
                lines.append(f"(declare-const {name} (_ BitVec {w}))")
        pair.sort(key=lambda e: semantics.eval_concrete(e, env))
        low, high = (semantics.eval_concrete(e, env) for e in pair)
        terms = " ".join(semantics.lower_to_smt(e, table) for e in pair)
        lines.append(f"(assert ({'=' if low == high else 'bvult'} {terms}))")
    return lines + ["(check-sat)"]


@settings(max_examples=300, deadline=None)
@given(command_streams())
def test_check_sat_answers_as_a_fresh_interpreter_would(lines):
    # Every query is check-sat, then get-value of every declared symbol
    # after sat; one interpreter answers them all in turn.
    out = io.StringIO()
    interp = Interpreter(out)
    sent = []  # the declarations and assertions so far
    symbols = []
    for line in lines:
        if line != "(check-sat)":
            interp.command(parse_forms(tokenize(line))[0])
            sent.append(line)
            if line.startswith("(declare-const"):
                symbols.append(line.split()[1])
            continue
        start = out.tell()
        interp.command(("check-sat",))
        query = [line]
        if out.getvalue()[start:] == "sat\n" and symbols:
            query.append(f"(get-value ({' '.join(symbols)}))")
            interp.command(parse_forms(tokenize(query[-1]))[0])
        assert out.getvalue()[start:] == run_script("\n".join(sent + query) + "\n")


# Pieces of minismt's grammar, with malformed ones mixed in: numerals,
# literals, operators, arities, sorts and command arguments.
_NUMERALS = st.sampled_from(["0", "1", "2", "3", "8", "007", "-1", "q", "1.5", "\u00b2", "+3"])
_SYMBOLS = st.sampled_from(["x", "y", "z", "true", "false", "|a b|", "bvadd", "_"])
_LITERALS = st.one_of(
    st.builds("#b{}".format, st.text("012", max_size=5)),
    st.builds("#x{}".format, st.text("0fFgx+_", max_size=3)),
    st.builds("(_ bv{} {})".format, _NUMERALS, _NUMERALS),
    st.builds("(_ {} {})".format, _SYMBOLS, _NUMERALS),
)
_OPERATORS = st.sampled_from([
    "not", "and", "or", "xor", "=", "ite", "bvnot", "bvneg", "bvand", "bvor", "bvxor", "bvadd",
    "bvsub", "bvmul", "bvshl", "bvlshr", "bvult", "concat", "extract", "bvudiv", "distinct",
    "_", "()", "(x)",
])
_INDEXED = st.sampled_from(["extract", "zero_extend", "sign_extend", "repeat", "bv1"])


def _terms(depth):
    leaves = st.one_of(_SYMBOLS, _LITERALS, st.just("()"))
    if depth == 0:
        return leaves
    sub = _terms(depth - 1)
    return st.one_of(
        leaves,
        st.builds(
            lambda op, args: f"({' '.join([op, *args])})", _OPERATORS, st.lists(sub, max_size=4)
        ),
        st.builds(
            lambda op, indices, args: f"((_ {' '.join([op, *indices])}) {' '.join(args)})",
            _INDEXED, st.lists(_NUMERALS, max_size=3), st.lists(sub, max_size=2),
        ),
    )


_SORTS = st.one_of(
    st.builds("(_ BitVec {})".format, _NUMERALS),
    st.sampled_from(["Bool", "(_ BitVec)", "(_ BitVec 1 2)", "x"]),
)
_COMMANDS = st.one_of(
    st.builds("(declare-const {} {})".format, _SYMBOLS, _SORTS),
    st.builds(
        "(declare-fun {} {} {})".format, _SYMBOLS, st.sampled_from(["()", "(x)", "x"]), _SORTS
    ),
    st.builds("(assert {})".format, _terms(3)),
    st.builds(lambda terms: f"(assert {' '.join(terms)})", st.lists(_terms(1), max_size=2)),
    st.sampled_from([
        "(check-sat)", "(get-value (x y))", "(get-value x)", "(get-value ((x)))",
        "(get-info :all-statistics)", "(get-info :version)", '(echo "hi")', "(echo (x))",
        "(echo)", "(reset)", "(set-option :produce-models true)", "(push 1)", "()",
        "((check-sat))", "check-sat",
    ]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COMMANDS, min_size=1, max_size=8))
def test_malformed_input_is_an_input_error(commands):
    # After two declarations, so that more terms get past their symbols.
    declared = ["(declare-const x (_ BitVec 4))", "(declare-const y (_ BitVec 1))"]
    text = "\n".join(declared + commands)
    try:
        Interpreter(io.StringIO()).run(parse_forms(tokenize(text)))
        failed = False
    except SmtInputError:
        failed = True
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text + "\n")), contextlib.redirect_stdout(out):
        code = main([])
    lines = out.getvalue().splitlines()
    if failed:
        assert code == 1
        assert lines[-1].startswith('(error "')
        assert [line for line in lines if line.startswith("(error")] == lines[-1:]
    else:
        assert code == 0


def _lut4_synth_script(lib):
    design = table4_design(0x8EA1)
    problem = synthesis.problem_from_sketch(
        design, instantiate(TemplateKind.LUT_SINGLE, design, lib), lib
    )
    return synthesis.emit_synth_query(problem, synthesis.initial_examples(problem, 1, 3))


def _adder4_synth_script(lib):
    design = adder4_design()
    problem = synthesis.problem_from_sketch(
        design, instantiate(TemplateKind.CARRY_CHAIN, design, lib), lib
    )
    return synthesis.emit_synth_query(problem, synthesis.initial_examples(problem, 3, 4))


def _adder4_verify_script(lib):
    # The synth case's model, but with bit 1's A pin reading b: a wrong
    # candidate, so the search needs conflicts to find a counterexample.
    design = adder4_design()
    problem = synthesis.problem_from_sketch(
        design, instantiate(TemplateKind.CARRY_CHAIN, design, lib), lib
    )
    assignment = {name: 1 if ".B." in name else 0 for name, _ in problem.holes}
    assignment["inst_1.A.sel"] = 1
    return synthesis.emit_verify_query(problem, assignment)


@pytest.mark.parametrize(
    "build, reply, clauses, digest",
    [
        (
            _lut4_synth_script,
            "sat\n((inst_0_INIT #b1001000000000000) (inst_0_A_sel #b010) (inst_0_B_sel #b000)"
            " (inst_0_C_sel #b110) (inst_0_D_sel #b110))\n",
            1688,
            "0242e68e0d3994b54853291805cae6c72949d539d755e1cd5e251317dd2ff0f4",
        ),
        (
            _adder4_synth_script,
            "sat\n((inst_0_A_sel #b00) (inst_0_B_sel #b01) (inst_0_CIN_sel #b00)"
            " (inst_1_A_sel #b00) (inst_1_B_sel #b01) (inst_2_A_sel #b00) (inst_2_B_sel #b01)"
            " (inst_3_A_sel #b00) (inst_3_B_sel #b01))\n",
            473,
            "fde02b4c8adabc5efc8def006f9b19d7e9b4f248a1efaac037db9a02e7b1381d",
        ),
        (
            _adder4_verify_script,
            "sat\n((a #b0000) (b #b1010) (cin #b0))\n",
            145,
            "112f603b255dabab30f9f9af411e4d2996cb12ae3e0286b52a7d0ec464ac9f6c",
        ),
    ],
    ids=["lut4", "adder4", "adder4-verify"],
)
def test_search_is_pinned(lib, build, reply, clauses, digest):
    # The clause list after solving holds every learnt clause, in order, with
    # each clause's literals in their final watched order: a change to any
    # decision, propagation order or learnt clause changes the digest. Such
    # a change also changes netlists, so it needs a new perfbench/golden.json.
    out = io.StringIO()
    interp = Interpreter(out)
    interp.run(parse_forms(tokenize(build(lib))))
    sat = interp.searched
    assert out.getvalue() == reply
    assert len(sat.clauses) == clauses
    assert hashlib.sha256(repr(sat.clauses).encode()).hexdigest() == digest


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(sys, "stdin", io.StringIO("(check-sat)\n"))
        assert main([]) == 0
        assert gc.isenabled() == enabled
        monkeypatch.setattr(sys, "stdin", io.StringIO("(frobnicate)\n"))
        assert main([]) == 1
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().out.startswith("sat\n(error ")


def test_reset_frees_the_old_solver_without_the_collector(monkeypatch):
    # main runs with the collector paused, so a replaced solver state must be
    # freed by reference counting alone.
    alive = []  # weak references to each state's Blaster and SatSolver
    earlier = []  # what was left of the earlier states at each reset
    reset = Interpreter.reset

    def recording(self):
        reset(self)
        earlier.append([ref() for pair in alive for ref in pair])
        alive.append((weakref.ref(self.blaster), weakref.ref(self.blaster.sat)))

    monkeypatch.setattr(Interpreter, "reset", recording)
    script = (
        "(declare-const a (_ BitVec 6))\n(declare-const b (_ BitVec 6))\n"
        "(assert (= (bvmul a b) #b011100))\n(assert (bvult a b))\n(check-sat)\n(get-value (a b))\n"
    )
    was = gc.isenabled()
    gc.disable()
    try:
        out = serve_script(script + "(reset)\n" + script + "(reset)\n" + script)
        assert out.count("sat\n") == 3
        assert earlier == [[], [None] * 2, [None] * 4]
    finally:
        if was:
            gc.enable()
