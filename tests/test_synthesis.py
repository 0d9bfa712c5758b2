import os
import stat
import sys

import pytest

from techmap import emit, ir, synthesis, templates
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
from techmap.templates import TemplateKind, TemplateOptions, instantiate

from util import MINISMT, and2_design, func2_design, majority3_design, xor2_design


def pinned_problem(design, lib, primitive=None):
    options = TemplateOptions(pin_mode="pinned", primitive=primitive)
    sketch = instantiate(TemplateKind.LUT_SINGLE, design, lib, options)
    return problem_from_sketch(design, sketch, lib), sketch


def holes_problem(design, lib, primitive=None):
    options = TemplateOptions(primitive=primitive)
    sketch = instantiate(TemplateKind.LUT_SINGLE, design, lib, options)
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
    problem, _ = holes_problem(majority3_design(), lib, primitive="LUT2")
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


def test_brute_is_deterministic(lib):
    problem, _ = holes_problem(and2_design(), lib)
    first = solve_brute_force(problem)
    second = solve_brute_force(problem)
    assert first.assignment == second.assignment
    assert first.stats.iterations == second.stats.iterations


def test_brute_limits(lib):
    problem, _ = holes_problem(majority3_design(), lib, primitive="LUT4")
    with pytest.raises(LimitExceeded) as info:
        solve_brute_force(problem)
    assert info.value.which == "hole space"

    wide = ir.Design(
        "wide", tuple((f"i{k}", 1) for k in range(17)), (("y", ir.Var("i0", 1)),)
    )
    problem = SynthesisProblem(wide, tuple(wide.outputs), (), tuple(wide.inputs))
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
        SynthesisProblem(design, (("z", ir.Const(1, 0)),), (), tuple(design.inputs))


def test_symbol_table_sanitizes_deterministically():
    design = ir.Design(
        "odd",
        (("1st$in", 1), ("and", 1), ("bv0", 1)),
        (("y", ir.Var("1st$in", 1)),),
    )
    problem = SynthesisProblem(
        design, (("y", ir.Var("1st$in", 1)),),
        (("inst_0.INIT", 4),), tuple(design.inputs),
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


def test_parse_model_forms():
    expected = {"h": ("h", 4)}
    assert parse_model("sat\n((h #b1000))", expected) == {"h": 8}
    assert parse_model("sat\n((h #x8))", expected) == {"h": 8}
    assert parse_model("sat\n((h (_ bv8 4)))", expected) == {"h": 8}
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
    with pytest.raises(SolverProtocolError):
        parse_model("sat\n((h", {"h": ("h", 4)})
    with pytest.raises(SolverProtocolError):
        parse_model("sat\n((h #b1000)\n", {"h": ("h", 4)})  # unbalanced
    with pytest.raises(SolverProtocolError):
        parse_model("sat\n((h (_ (bv8) 4)))", {"h": ("h", 4)})  # nested index


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
    problem, _ = holes_problem(majority3_design(), lib, primitive="LUT2")
    with pytest.raises(TemplateInfeasible):
        solve_cegis(problem, solver_config)
    with pytest.raises(Infeasible):
        solve_brute_force(problem)


def test_cegis_zero_holes_needs_one_verify_call(lib, solver_config):
    design = and2_design()
    problem = SynthesisProblem(design, tuple(design.outputs), (), tuple(design.inputs))
    solution = solve_cegis(problem, solver_config)
    assert solution.assignment == {}
    assert solution.stats.solver_calls == 1


def test_cegis_zero_holes_mismatch_is_infeasible(lib, solver_config):
    design = and2_design()
    wrong = tuple((n, ir.Or(ir.Var("a", 1), ir.Var("b", 1))) for n, _ in design.outputs)
    problem = SynthesisProblem(design, wrong, (), tuple(design.inputs))
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
