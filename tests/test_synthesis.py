import hashlib
import os
import random
import stat
import subprocess
import sys
import time
from collections import Counter

import pytest

from techmap import cli, emit, ir, minismt, semantics, synthesis, templates
from techmap.library import data_path
from techmap.semantics import eval_design, eval_many, row_env
from techmap.errors import (
    BudgetExceeded,
    Infeasible,
    LimitExceeded,
    MissingSymbol,
    SolverProtocolError,
    SolverSpawnError,
    SolverUnknown,
    TemplateInfeasible,
    ValidationError,
)
from techmap.synthesis import (
    BUNDLED_SOLVER,
    SolverConfig,
    SynthesisProblem,
    emit_synth_query,
    emit_verify_query,
    initial_examples,
    parse_model,
    problem_from_sketch,
    solve_brute_force,
    solve_cegis,
    symbol_table,
)
from techmap.templates import TemplateKind, instantiate

from util import (
    MINISMT,
    MINISMT_PROCESS,
    adder4_design,
    and2_design,
    func2_design,
    majority3_design,
    only,
    table4_design,
    xor2_design,
)


def pinned_problem(design, lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, design, lib, "pinned")
    return problem_from_sketch(design, sketch, lib), sketch


def holes_problem(design, lib):
    sketch = instantiate(TemplateKind.LUT_SINGLE, design, lib)
    return problem_from_sketch(design, sketch, lib), sketch


def test_brute_finds_and_init(lib):
    problem, _ = pinned_problem(and2_design(), lib)
    solution = solve_brute_force(problem)
    assert solution.assignment == {"inst_0.INIT": 8}
    assert solution.backend == "brute"
    assert solution.stats.iterations == 9  # INIT values 0..8 were tried


def test_brute_finds_xor_init(lib):
    problem, _ = pinned_problem(xor2_design(), lib)
    assert solve_brute_force(problem).assignment == {"inst_0.INIT": 6}


def test_brute_majority_on_lut2_is_infeasible(lib):
    problem, _ = holes_problem(majority3_design(), only(lib, "LUT2"))
    assert problem.hole_space == 1 << 10
    with pytest.raises(Infeasible):
        solve_brute_force(problem)


def test_brute_returns_lowest_satisfying_index(lib):
    # With binding holes several assignments implement and2 (the pins may
    # swap or tie); the first in ascending order wins, after index + 1 tries.
    problem, _ = holes_problem(and2_design(), lib)
    sketch_exprs = [e for _, e in problem.sketch_exprs]
    envs = [{"a": a, "b": b} for b in (0, 1) for a in (0, 1)]

    def works(assignment):
        return all(
            eval_many(sketch_exprs, env, assignment)
            == list(eval_design(problem.design, env).values())
            for env in envs
        )

    good = [i for i in range(problem.hole_space) if works(row_env(problem.holes, i))]
    assert len(good) > 1
    solution = solve_brute_force(problem)
    assert solution.assignment == row_env(problem.holes, good[0])
    assert solution.stats.iterations == good[0] + 1


def test_pinned_lut4_enumeration_matches_direct_enumeration(lib):
    # Tables like the benchmark's 0x48xx ones, whose INIT lies past the
    # first block of lanes. Direct enumeration asks the table form for one
    # INIT value at a time.
    rng = random.Random(22)
    for table in (0x4800 | rng.getrandbits(8) for _ in range(16)):
        problem, _ = pinned_problem(table4_design(table), only(lib, "LUT4"))
        sketch = semantics.compile_exprs(
            [e for _, e in problem.sketch_exprs], problem.inputs, problem.holes, form="table"
        )
        want = semantics.compile_exprs(
            [e for _, e in problem.design.outputs], problem.inputs, form="table"
        )(0)
        direct = next(i for i in range(problem.hole_space) if sketch(i) == want)
        solution = solve_brute_force(problem)
        assert solution.assignment == row_env(problem.holes, direct)
        assert solution.stats.iterations == direct + 1


def test_brute_is_deterministic(lib):
    problem, _ = holes_problem(and2_design(), lib)
    first = solve_brute_force(problem)
    second = solve_brute_force(problem)
    assert first.assignment == second.assignment
    assert first.stats.iterations == second.stats.iterations


def test_brute_limits(lib):
    problem, _ = holes_problem(majority3_design(), only(lib, "LUT4"))
    with pytest.raises(LimitExceeded) as info:
        solve_brute_force(problem)
    assert info.value.which == "hole space"

    wide = ir.Design(
        "wide", tuple((f"i{k}", 1) for k in range(17)), (("y", ir.Var("i0", 1)),)
    )
    problem = SynthesisProblem(wide, tuple(wide.outputs), ())
    with pytest.raises(LimitExceeded) as info:
        solve_brute_force(problem)
    assert info.value.which == "input bits"


def test_hole_space_is_exact(lib):
    problem, _ = holes_problem(and2_design(), lib)
    assert problem.hole_space == 2 ** (4 + 2 + 2)


def test_decode_assignment_orders_first_hole_least_significant():
    # Hole assignment number k decodes like input row k.
    holes = (("h0", 2), ("h1", 3))
    assert row_env(holes, 0b10101) == {"h0": 0b01, "h1": 0b101}


def test_problem_alignment_is_checked():
    design = and2_design()
    with pytest.raises(ValidationError):
        SynthesisProblem(design, (("z", ir.Const(1, 0)),), ())


def test_problem_rejects_a_name_that_is_both_input_and_hole():
    # Each output on its own is valid, but a query binds symbols by name,
    # so binding input `a` to a literal would also bind hole `a`.
    design = ir.Design(
        "pair", (("a", 1), ("b", 1)),
        (("y", ir.Var("a", 1)), ("z", ir.Var("b", 1))),
    )
    sketch = (("y", ir.Var("a", 1)), ("z", ir.Hole("a", 1)))
    with pytest.raises(ValidationError, match="both as input and hole"):
        SynthesisProblem(design, sketch, (("a", 1),))


def test_symbol_table_sanitizes_deterministically():
    design = ir.Design(
        "odd",
        (("1st$in", 1), ("and", 1), ("bv0", 1)),
        (("y", ir.Var("1st$in", 1)),),
    )
    problem = SynthesisProblem(
        design, (("y", ir.Var("1st$in", 1)),),
        (("inst_0.INIT", 4),),
    )
    table = symbol_table(problem)
    assert table == symbol_table(problem)
    values = list(table.values())
    assert len(set(values)) == len(values)
    import re
    for sym in values:
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", sym)
        assert sym not in ("and", "bv0")


def test_synth_query_one_assertion_per_example_output(lib):
    problem, _ = pinned_problem(and2_design(), lib)
    script = emit_synth_query(problem, [{"a": 0, "b": 0}])
    assert script.count("(assert ") == 1
    assert script.startswith("(set-option :produce-models true)\n(set-logic QF_BV)\n")
    assert "(check-sat)" in script
    assert script.rstrip().endswith("(get-value (inst_0_INIT))")


def test_verify_query_negates_output_conjunction(lib):
    single, _ = pinned_problem(and2_design(), lib)
    script = emit_verify_query(single, {"inst_0.INIT": 8})
    assert "(assert (not (= " in script
    assert "(not (and " not in script

    from util import adder4_design
    design = adder4_design()
    sketch = instantiate(TemplateKind.CARRY_CHAIN, design, lib)
    problem = problem_from_sketch(design, sketch, lib)
    assignment = {name: 0 for name, _ in problem.holes}
    script = emit_verify_query(problem, assignment)
    assert "(assert (not (and (= " in script


def _lut4_8ea1_problem(lib):
    return holes_problem(table4_design(0x8EA1), lib)[0]


@pytest.mark.parametrize(
    "build, size, digest",
    [
        (
            lambda lib: emit_synth_query(
                p := _lut4_8ea1_problem(lib), initial_examples(p, 1, 8)
            ),
            8308,
            "afc33a6d886b7c52bac273f261a61f60266d16236277d3251713b569ef4648f6",
        ),
        (
            lambda lib: emit_synth_query(
                p := _adder4_problem(lib), initial_examples(p, 3, 4)
            ),
            12089,
            "bba789a8ce3c2e29b05ba9f06b8c0921bd11333ba3186a5f2cdadc789ebefefd",
        ),
        (
            lambda lib: emit_verify_query(
                p := _lut4_8ea1_problem(lib),
                {name: value for (name, _), value in zip(p.holes, (0x8EA1, 0, 1, 2, 3))},
            ),
            1397,
            "ff1a1a746e35a3f268e5d8a1a12428f96d0a4e4a35b421b12c2e29c4e4dc67ec",
        ),
        (
            lambda lib: emit_verify_query(
                p := _adder4_problem(lib), {name: 1 for name, _ in p.holes}
            ),
            2713,
            "77fa2cd76ddc7296a280684c66bb1f4395e8f076459335309f4403b6aadfd286",
        ),
    ],
    ids=["lut4 synth", "adder4 synth", "lut4 verify", "adder4 verify"],
)
def test_query_scripts_are_pinned(lib, build, size, digest):
    # LUT4 table 0x8EA1 with binding holes, and the adder4 carry chain,
    # whose verify query has two outputs and so takes the (not (and ...))
    # form. The LUT sketch shares no operator node, so its scripts are
    # those recorded from scripts built by substituting constants into
    # copies of the DAG; the carry chain's name their shared nodes.
    script = build(lib)
    assert (len(script), hashlib.sha256(script.encode()).hexdigest()) == (size, digest)


@pytest.mark.parametrize(
    "build, size, digest",
    [
        (
            lambda p: emit_synth_query(p, initial_examples(p, 3, 4)),
            45437,
            "5091962943113b9364ed742e84c45958084071183ba75122a2355cb57e363c32",
        ),
        (
            lambda p: emit_verify_query(p, {name: 1 for name, _ in p.holes}),
            9647,
            "4e2100fa1a00df8bca3c19a53342930c110cd23a9cfac0d8591973907cc86b79",
        ),
    ],
    ids=["adder4 synth", "adder4 verify"],
)
def test_spelled_out_scripts_keep_their_pins(lib, monkeypatch, build, size, digest):
    # With no node named, every shared node is spelled out at each use, as
    # before queries named them: the scripts are the ones recorded then.
    monkeypatch.setattr(SynthesisProblem, "shared", property(lambda problem: {}))
    script = build(_adder4_problem(lib))
    assert "define-fun" not in script
    assert (len(script), hashlib.sha256(script.encode()).hexdigest()) == (size, digest)


def test_synth_memo_lowers_each_example_once(lib, monkeypatch):
    problem = _adder4_problem(lib)
    examples = initial_examples(problem, 3, 4)
    lowered = []
    lower = synthesis.semantics.lower_to_smt
    monkeypatch.setattr(
        synthesis.semantics, "lower_to_smt",
        lambda expr, *args: lowered.append(expr) or lower(expr, *args),
    )
    memo = []
    first = emit_synth_query(problem, examples[:2], memo)
    calls = len(lowered)
    whole = emit_synth_query(problem, examples, memo)
    assert len(lowered) == 2 * calls  # two more examples, the first two kept
    assert whole.startswith(first.partition("(check-sat)\n")[0])
    assert whole == emit_synth_query(problem, examples)
    # An example that differs at its place is lowered again, with the rest.
    changed = [examples[0], examples[2]]
    assert emit_synth_query(problem, changed, memo) == emit_synth_query(problem, changed)
    assert [env for env, _ in memo] == changed


def test_parse_model_forms():
    expected = {"h": ("h", 4)}
    assert parse_model("sat\n((h #b1000))", expected) == {"h": 8}
    assert parse_model("sat\n((h #x8))", expected) == {"h": 8}
    assert parse_model("sat\n((h (_ bv8 4)))", expected) == {"h": 8}
    # An #x value of a width that is not a multiple of 4 has ceil(width / 4) digits.
    assert parse_model("sat\n((g #x1f))", {"g": ("g", 5)}) == {"g": 31}
    multi = "sat\n((h #b0001)\n (g #b1))"
    assert parse_model(multi, {"h": ("h", 4), "g": ("g", 1)}) == {"h": 1, "g": 1}
    # |h| and h are the same SMT-LIB symbol.
    assert parse_model("sat\n((|h| #b1000))", expected) == {"h": 8}
    # Only the first form after `sat` is the model; comments are skipped.
    trailing = 'sat\n; model follows\n((h #x8))\n(error "get-value (again")\n'
    assert parse_model(trailing, expected) == {"h": 8}


def test_parse_model_rejects_garbage():
    with pytest.raises(SolverProtocolError):
        parse_model("sat\ngarbage", {"h": ("h", 4)})
    with pytest.raises(SolverProtocolError):
        parse_model("((h #b1))", {"h": ("h", 1)})  # no sat line
    with pytest.raises(SolverProtocolError):
        parse_model("sat\n((h #b111))", {"h": ("h", 4)})  # wrong width
    for value in ("#x20", "#x01f", "#xf", "(_ bv32 5)", "(_ bv1 4)", "#x1g"):
        with pytest.raises(SolverProtocolError):
            parse_model(f"sat\n((g {value}))", {"g": ("g", 5)})
    with pytest.raises(SolverProtocolError):
        parse_model("sat\n((h", {"h": ("h", 4)})
    with pytest.raises(SolverProtocolError):
        parse_model("sat\n((h #b1000)\n", {"h": ("h", 4)})  # unbalanced
    with pytest.raises(SolverProtocolError):
        parse_model("sat\n((h (_ (bv8) 4)))", {"h": ("h", 4)})  # nested index


def test_parse_model_rejects_a_width_past_the_int_digit_limit():
    with pytest.raises(SolverProtocolError, match="bad value"):
        parse_model(f"sat\n((h (_ bv0 1{'0' * 5000})))", {"h": ("h", 4)})


def test_initial_examples_deterministic_and_deduped(lib):
    problem, _ = pinned_problem(and2_design(), lib)
    first = initial_examples(problem, 0, 4)
    second = initial_examples(problem, 0, 4)
    assert first == second
    assert first[0] == {"a": 0, "b": 0}
    assert all(first.count(e) == 1 for e in first)
    assert initial_examples(problem, 1, 4) != first or len(first) == 1


def test_lcg_sequence_is_frozen():
    # The generator's constants are part of the deterministic contract.
    rng = synthesis._Lcg(0)
    assert rng.draw(64) == 1442695040888963407
    assert rng.draw(8) == 26
    assert rng.draw(1) == 1


def test_cegis_and2_with_binding_holes(lib, solver_config):
    design = and2_design()
    problem, _ = holes_problem(design, lib)
    solution = solve_cegis(problem, solver_config)
    assert solution.backend == "cegis"
    assert synthesis.exhaustive_counterexample(problem, solution.assignment) is None
    assert solution.stats.iterations <= 64
    assert solution.stats.solver_calls >= 2


def test_cegis_agrees_with_brute_on_infeasible(lib, solver_config):
    problem, _ = holes_problem(majority3_design(), only(lib, "LUT2"))
    with pytest.raises(TemplateInfeasible):
        solve_cegis(problem, solver_config)
    with pytest.raises(Infeasible):
        solve_brute_force(problem)


def test_cegis_zero_holes_needs_one_verify_call(lib, solver_config):
    design = and2_design()
    problem = SynthesisProblem(design, tuple(design.outputs), ())
    solution = solve_cegis(problem, solver_config)
    assert solution.assignment == {}
    assert solution.stats.solver_calls == 1


def test_cegis_zero_holes_mismatch_is_infeasible(lib, solver_config):
    design = and2_design()
    wrong = tuple((n, ir.Or(ir.Var("a", 1), ir.Var("b", 1))) for n, _ in design.outputs)
    problem = SynthesisProblem(design, wrong, ())
    with pytest.raises(TemplateInfeasible):
        solve_cegis(problem, solver_config)


def test_cegis_budget_exhaustion(lib, solver_config):
    problem, _ = holes_problem(and2_design(), lib)
    with pytest.raises(BudgetExceeded):
        solve_cegis(problem, solver_config, max_iters=0)


def test_backend_agreement_on_all_two_input_functions(lib, solver_config):
    for m in range(16):
        design = func2_design(m)
        problem, _ = pinned_problem(design, lib)
        brute = solve_brute_force(problem)
        cegis = solve_cegis(problem, solver_config)
        assert synthesis.exhaustive_counterexample(problem, brute.assignment) is None
        assert synthesis.exhaustive_counterexample(problem, cegis.assignment) is None


def _fake_solver(tmp_path, body):
    path = tmp_path / "fake.sh"
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return SolverConfig(str(path))


def test_solver_spawn_error():
    with pytest.raises(SolverSpawnError):
        synthesis.run_solver(SolverConfig("/no/such/solver"), "(check-sat)\n")


def _solver_callers(lib):
    """Both users of the solver query path, each sending and2 to a solver."""
    problem, sketch = pinned_problem(and2_design(), lib)
    netlist = emit.print_verilog(emit.resolve(sketch, solve_brute_force(problem)))
    return (
        lambda config: solve_cegis(problem, config),
        lambda config: emit.check_equivalence(
            and2_design(), netlist, lib, mode="solver", solver=config
        ),
    )


def _assert_every_caller_raises(tmp_path, lib, body, error):
    config = _fake_solver(tmp_path, body)
    for call in _solver_callers(lib):
        with pytest.raises(error):
            call(config)


def test_solver_unknown(tmp_path, lib):
    _assert_every_caller_raises(tmp_path, lib, "echo unknown", SolverUnknown)


def test_solver_garbage_is_protocol_error(tmp_path, lib):
    _assert_every_caller_raises(tmp_path, lib, "echo whatever", SolverProtocolError)


def test_solver_empty_output_is_protocol_error(tmp_path, lib):
    _assert_every_caller_raises(tmp_path, lib, "true", SolverProtocolError)


def test_partial_counterexample_is_missing_symbol(tmp_path, lib):
    config = _fake_solver(tmp_path, "echo sat; echo '((a #b1))'")
    for call in _solver_callers(lib):
        with pytest.raises(MissingSymbol, match="'b'"):
            call(config)


def test_repeated_counterexample_is_a_protocol_error(monkeypatch, lib):
    # A broken solver answers every synth query with the same holes and
    # every verify query with the same counterexample. The repeat must be
    # refused by a check that survives `python -O`.
    def broken_solver(config, script):
        if "(get-value (inst_0_INIT))" in script:
            return "sat\n((inst_0_INIT #b0000))\n"
        return "sat\n((a #b1) (b #b1))\n"

    monkeypatch.setattr(synthesis, "run_solver", broken_solver)
    problem, _ = pinned_problem(and2_design(), lib)
    with pytest.raises(SolverProtocolError, match="repeated counterexample"):
        solve_cegis(problem, SolverConfig("unused"), init_examples=1)


def test_solutions_are_reverified_exhaustively(lib, solver_config):
    design = xor2_design()
    problem, _ = holes_problem(design, lib)
    solution = solve_cegis(problem, solver_config)
    assert synthesis.exhaustive_counterexample(problem, solution.assignment) is None
    # A wrong assignment yields a concrete witness.
    bad = dict(solution.assignment)
    bad["inst_0.INIT"] ^= 1
    assert synthesis.exhaustive_counterexample(problem, bad) is not None


# ---------------------------------------------------------------------------
# The bundled solver: one live process per CEGIS run, for its synth session,
# and every other script answered in-process


@pytest.fixture
def started(monkeypatch):
    """Every process started from here on, in order."""
    procs = []
    popen = subprocess.Popen

    def counting(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", counting)
    return procs


def _lut4_problem(lib):
    return holes_problem(table4_design(0x6ac5), only(lib, "LUT4"))[0]


def _adder4_problem(lib):
    design = adder4_design()
    return problem_from_sketch(design, instantiate(TemplateKind.CARRY_CHAIN, design, lib), lib)


@pytest.mark.parametrize("build", [_adder4_problem, _lut4_problem], ids=["adder4", "lut4"])
def test_live_solver_matches_one_shot_queries(monkeypatch, lib, started, build):
    problem = build(lib)
    one_shot = synthesis.run_solver
    replies = []

    def recording(solver, script):
        replies.append((script, one_shot(solver, script)))
        return replies[-1][1]

    monkeypatch.setattr(synthesis, "run_solver", recording)
    live = solve_cegis(problem, BUNDLED_SOLVER)
    assert len(started) == 1  # the synth session; verify queries start none
    assert live.stats.solver_calls == len(replies) > 2

    # The same run with a fresh process per query.
    monkeypatch.setattr(
        synthesis, "run_solver", lambda solver, script: one_shot(MINISMT_PROCESS, script)
    )
    fresh = solve_cegis(problem, BUNDLED_SOLVER)
    assert len(started) == 1 + len(replies)
    assert fresh.assignment == live.assignment
    assert fresh.stats.solver_calls == live.stats.solver_calls
    assert [one_shot(MINISMT_PROCESS, script) for script, _ in replies] == [
        reply for _, reply in replies
    ]


# A bundled-solver child that also appends every line it reads to a file.
_TEE_CHILD = """
import sys
from techmap import minismt

def lines(source, copy):
    for line in source:
        copy.write(line)
        copy.flush()
        yield line

with open(sys.argv[1], "a", encoding="utf-8") as copy:
    sys.stdin = lines(sys.stdin, copy)
    code = minismt.main([])
sys.exit(code)
"""


def test_each_example_is_written_to_the_synth_child_once(monkeypatch, tmp_path, lib, started):
    counting = subprocess.Popen
    copies = []  # of each child's stdin, in start order

    def teeing(command, **kwargs):
        copies.append(tmp_path / f"stdin-{len(copies)}")
        return counting([command[0], "-c", _TEE_CHILD, copies[-1]], **kwargs)

    monkeypatch.setattr(subprocess, "Popen", teeing)
    problem = _adder4_problem(lib)
    solution = solve_cegis(problem, BUNDLED_SOLVER)
    assert solution.stats.iterations > 2
    text = copies[0].read_text()  # the synth child's
    asserts = Counter(line for line in text.splitlines() if line.startswith("(assert "))
    assert set(asserts.values()) == {1}
    examples = len(initial_examples(problem, 0, 4)) + solution.stats.iterations - 1
    assert len(asserts) == examples * len(problem.design.outputs)
    assert "(reset)" not in text
    assert text.count("(check-sat)") == solution.stats.iterations
    assert len(started) == 1


def _assert_all_reaped(procs):
    assert procs
    for proc in procs:
        assert proc.returncode is not None and proc.stdout.closed


def test_live_solver_is_reaped_after_return(lib, started):
    problem, _ = holes_problem(xor2_design(), lib)
    solve_cegis(problem, BUNDLED_SOLVER)
    _assert_all_reaped(started)


def test_live_solver_is_reaped_after_infeasible(lib, started):
    problem, _ = holes_problem(majority3_design(), only(lib, "LUT2"))
    with pytest.raises(TemplateInfeasible):
        solve_cegis(problem, BUNDLED_SOLVER)
    _assert_all_reaped(started)


def test_live_solver_is_killed_on_budget_exceeded(lib, started):
    problem = _lut4_problem(lib)
    with pytest.raises(BudgetExceeded):
        solve_cegis(problem, BUNDLED_SOLVER, max_iters=1, init_examples=1)
    _assert_all_reaped(started)


def test_live_solver_is_killed_on_interrupt(monkeypatch, lib, started):
    def interrupted(stdout, expected):
        raise KeyboardInterrupt

    monkeypatch.setattr(synthesis, "parse_model", interrupted)
    problem, _ = holes_problem(xor2_design(), lib)
    with pytest.raises(KeyboardInterrupt):
        solve_cegis(problem, BUNDLED_SOLVER)
    assert len(started) == 1
    _assert_all_reaped(started)


def test_live_solver_killed_between_queries_is_replaced(monkeypatch, lib, started):
    problem = _lut4_problem(lib)
    want = solve_cegis(problem, BUNDLED_SOLVER)
    del started[:]
    one_shot = synthesis.run_solver

    def kill_after_first(solver, script):
        reply = one_shot(solver, script)
        if len(started) == 1:
            started[0].kill()
            started[0].wait()
        return reply

    monkeypatch.setattr(synthesis, "run_solver", kill_after_first)
    got = solve_cegis(problem, BUNDLED_SOLVER)
    assert len(started) == 2  # the killed synth child and its replacement
    assert got.assignment == want.assignment
    assert got.stats.solver_calls == want.stats.solver_calls
    _assert_all_reaped(started)


def test_other_solvers_get_one_process_per_query(tmp_path, lib, started):
    # A solver outside the bundle may read all of stdin before answering,
    # so it is never kept alive between queries.
    config = _fake_solver(
        tmp_path,
        'script=$(cat)\n'
        'case "$script" in\n'
        '  *"(get-value (inst_0_INIT))"*) echo sat; echo "((inst_0_INIT #b0110))";;\n'
        '  *) echo unsat;;\n'
        'esac',
    )
    problem, _ = pinned_problem(xor2_design(), lib)
    solution = solve_cegis(problem, config)
    assert solution.assignment == {"inst_0.INIT": 6}
    assert solution.stats.solver_calls == len(started) == 2
    _assert_all_reaped(started)


def test_live_solver_that_fills_stderr_still_answers(monkeypatch, tmp_path, started):
    # 200 KB is more than a pipe holds: a child whose stderr nobody reads
    # blocks before its reply, until the query bound kills it.
    config = _fake_solver(
        tmp_path,
        "head -c 200000 /dev/zero >&2\n"
        "while read -r line; do\n"
        '  case "$line" in *techmap-reply-end*) echo unsat; echo techmap-reply-end;; esac\n'
        "done",
    )
    monkeypatch.setattr(synthesis, "BUNDLED_SOLVER", config)
    monkeypatch.setattr(synthesis, "QUERY_TIMEOUT_S", 10.0)
    with synthesis._Solver(config) as synth:
        assert synthesis.query(synth, "(check-sat)\n", {}) is None
    assert len(started) == 1
    _assert_all_reaped(started)


@pytest.mark.parametrize("live", [False, True], ids=["one-shot", "live"])
def test_solver_past_the_query_bound_is_killed(monkeypatch, capsys, tmp_path, started, live):
    # The fake solver never answers; as the bundled solver it is kept alive.
    config = _fake_solver(tmp_path, "exec sleep 60")
    if live:
        monkeypatch.setattr(synthesis, "BUNDLED_SOLVER", config)
    monkeypatch.setattr(synthesis, "QUERY_TIMEOUT_S", 0.5)
    code = cli.main([
        "map", "--design", str(data_path("designs") / "and2.v"), "--template", "lut_single",
        "--backend", "cegis", "--solver", config.path, "-o", str(tmp_path / "x.v"),
    ])
    assert code == 2
    assert "solver error: solver gave no answer within 0.5 s" in capsys.readouterr().err
    assert len(started) == 1
    _assert_all_reaped(started)


def test_bundled_one_shot_queries_start_no_process(lib, started):
    problem, sketch = pinned_problem(and2_design(), lib)
    netlist = emit.print_verilog(emit.resolve(sketch, solve_brute_force(problem)))
    script = "(declare-const a (_ BitVec 3))\n(assert (bvult #b011 a))\n(check-sat)\n"
    model = synthesis.query(BUNDLED_SOLVER, script + "(get-value (a))\n", {"a": ("a", 3)})
    assert model == {"a": 4}
    report = emit.check_equivalence(and2_design(), netlist, lib, "solver", BUNDLED_SOLVER)
    assert report.equivalent
    solution = solve_cegis(SynthesisProblem(problem.design, problem.design.outputs, ()), MINISMT)
    assert solution.stats.solver_calls == 1
    assert started == []
    # A script given to `run_solver` with the config still gets a process.
    assert synthesis.run_solver(BUNDLED_SOLVER, script) == "sat\n"
    assert len(started) == 1


def test_in_process_scripts_that_search_again_answer_as_a_process(started):
    query = "(declare-const a (_ BitVec 3))\n(assert (bvult #b011 a))\n(check-sat)\n(get-value (a))\n"
    assert synthesis.run_solver(synthesis.IN_PROCESS, query) == "sat\n((a #b100))\n"
    # The formula is rewound after the first search, then extended.
    extended = query + "(assert (not (= a #b100)))\n(check-sat)\n(get-value (a))\n"
    reply = synthesis.run_solver(synthesis.IN_PROCESS, extended)
    assert reply.startswith("sat\n((a #b100))\nsat\n((a #b1")
    assert reply == synthesis.run_solver(MINISMT_PROCESS, extended)
    assert len(started) == 1


def test_bundled_blank_reply_is_a_protocol_error_in_process(started):
    # As from a fresh process that reads the script and prints nothing.
    with pytest.raises(SolverProtocolError, match=r"solver produced no output \(exit 0\)"):
        synthesis.run_solver(synthesis.IN_PROCESS, "(set-logic QF_BV)\n")
    with pytest.raises(SolverProtocolError, match=r"solver produced no output \(exit 0\)"):
        synthesis.run_solver(MINISMT_PROCESS, "(set-logic QF_BV)\n")
    assert len(started) == 1


def test_in_process_query_past_the_bound_is_unknown(monkeypatch, capsys, tmp_path, started):
    # No process to kill: the in-process deadline ends the verify query.
    monkeypatch.setattr(synthesis, "QUERY_TIMEOUT_S", 0)
    designs = data_path("designs")
    netlist = tmp_path / "and2_mapped.v"
    assert cli.main([
        "map", "--design", str(designs / "and2.v"), "--template", "lut_single",
        "--pin-mode", "pinned", "-o", str(netlist),
    ]) == 0
    code = cli.main([
        "verify", "--design", str(designs / "and2.v"), "--netlist", str(netlist),
        "--mode", "solver", "--solver", sys.executable,
        "--solver-arg=-m", "--solver-arg=techmap.minismt",
    ])
    assert code == 2
    assert "solver error: solver gave no answer within 0 s" in capsys.readouterr().err
    assert started == []


def test_bvmul_past_its_width_cap_is_answered_at_once(started):
    # 90 bytes that took 8.9 s to blast before bvmul had a width cap.
    script = (
        "(declare-const x (_ BitVec 512))(declare-const y (_ BitVec 512))"
        "(assert (= (bvmul x y) x))"
    )
    begun = time.perf_counter()
    reply = synthesis.run_solver(synthesis.IN_PROCESS, script)
    assert time.perf_counter() - begun < 1.0
    assert reply == f'(error "bvmul width 512 is not in 1..{synthesis.minismt.MAX_MUL_WIDTH}")\n'
    assert started == []
