"""Hole solving: exhaustive enumeration and solver-backed CEGIS.

Both backends decide the same question: does some assignment to the
sketch's holes make every output agree with the design on every input?
Enumeration is the trustworthy oracle for small hole spaces; CEGIS asks an
external SMT-LIB solver and scales to spaces enumeration cannot touch.
Enumeration and the exhaustive re-check of a solution compile the design
and the sketch once each and compare them row by row through
`semantics.first_mismatch`; hole assignments and rows both go in
ascending order, so the first match and the first counterexample are the
lowest ones.
A query lowers the design and the sketch, unchanged, under a symbol
binding: the synth query binds each example's inputs to literals, the
verify query binds the holes to the candidate's.
Solver interaction is deliberately primitive: one QF_BV script per query,
no incremental mode, so any SMT-LIB v2 solver works. A solver is started
once per script with the script on stdin, except the bundled `minismt`
(`BUNDLED_SOLVER`): `solve_cegis` keeps one of its processes alive for the
whole run and sends it every query, separated by `(reset)`, so that the run
pays for one interpreter start-up instead of one per query. The replies are
the bytes a fresh process would print.
Every question goes through `query`, the one place a solver's answer is
read: unsat gives None, sat gives the model, read with `minismt`'s
s-expression reader, and unknown or anything else raises.
There is one counterexample search per check mode, `solver_counterexample`
and `exhaustive_counterexample`: CEGIS verifies with the first, and
`emit.check_equivalence` runs either on a problem without holes.
"""

from __future__ import annotations

import contextlib
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import ir, minismt, semantics, templates
from .errors import (
    BudgetExceeded,
    HolePresent,
    Infeasible,
    LimitExceeded,
    MissingSymbol,
    SolverProtocolError,
    SolverSpawnError,
    SolverUnknown,
    TemplateInfeasible,
    TooManyInputBits,
    ValidationError,
)


@dataclass(frozen=True)
class SynthesisProblem:
    """∃ holes ∀ inputs: sketch outputs == design outputs."""

    design: ir.Design
    sketch_exprs: tuple  # of (output name, hole-bearing expr), aligned with design outputs
    holes: tuple  # of (name, width)
    inputs: tuple  # of (name, width)

    def __post_init__(self):
        object.__setattr__(self, "sketch_exprs", tuple(self.sketch_exprs))
        object.__setattr__(self, "holes", tuple(self.holes))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        design_outs = [(n, e.width) for n, e in self.design.outputs]
        sketch_outs = [(n, e.width) for n, e in self.sketch_exprs]
        if design_outs != sketch_outs:
            raise ValidationError(
                f"sketch outputs {sketch_outs} do not align with design outputs {design_outs}"
            )
        env = dict(self.inputs)
        hole_widths = dict(self.holes)
        clash = env.keys() & hole_widths.keys()
        if clash:
            # A query binds symbols by name, so one name cannot be both.
            raise ValidationError(f"names used both as input and hole: {sorted(clash)}")
        for _, expr in self.sketch_exprs:
            ir.validate(expr, env, allow_holes=True)
            _, holes_used = ir.free_symbols(expr)
            for name, width in holes_used.items():
                if hole_widths.get(name) != width:
                    raise ValidationError(f"hole '{name}' not declared with width {width}")

    @property
    def hole_space(self):
        """Exact number of hole assignments: the product of 2^width."""
        return 1 << sum(w for _, w in self.holes)


def problem_from_sketch(design, sketch, library):
    exprs = templates.sketch_to_exprs(sketch, library)
    order = {name: i for i, (name, _) in enumerate(design.outputs)}
    exprs.sort(key=lambda item: order.get(item[0], len(order)))
    return SynthesisProblem(
        design, tuple(exprs), tuple(templates.sketch_holes(sketch)), tuple(design.inputs)
    )


@dataclass(frozen=True)
class SolveStats:
    iterations: int
    solver_calls: int
    wall_ms: float


@dataclass(frozen=True)
class Solution:
    """A total hole assignment that makes sketch and design equivalent."""

    assignment: dict
    backend: str  # 'brute' | 'cegis'
    stats: SolveStats


def solve_brute_force(
    problem, max_hole_space=1 << 20, max_input_bits=semantics.EXHAUSTIVE_INPUT_BITS
):
    """Enumerate hole assignments in ascending order; first full match wins.

    Exhaustive and deterministic, hence the reference backend: when it
    raises Infeasible, no configuration of this sketch implements the
    design. Limits guard against accidentally unbounded runs.
    """
    started = time.perf_counter()
    space = problem.hole_space
    if space > max_hole_space:
        raise LimitExceeded("hole space", space, max_hole_space)
    try:
        rows = list(semantics.input_rows(problem.inputs, max_input_bits))
    except TooManyInputBits as exc:
        raise LimitExceeded("input bits", exc.total, exc.limit) from None
    design, sketch = _compile(problem)
    want = []
    semantics.first_mismatch(design, rows, record=want)
    for index, values in enumerate(semantics.ascending(problem.holes)):
        if semantics.first_mismatch(sketch, rows, want, args=values) is None:
            wall_ms = (time.perf_counter() - started) * 1000.0
            assignment = dict(zip((name for name, _ in problem.holes), values))
            return Solution(assignment, "brute", SolveStats(index + 1, 0, wall_ms))
    raise Infeasible(f"no assignment among {space} implements '{problem.design.name}'")


def _compile(problem):
    """Design and sketch outputs as functions of the input values.

    The sketch's function takes the hole values after the input values.
    """
    return (
        semantics.compile_exprs([e for _, e in problem.design.outputs], problem.inputs),
        semantics.compile_exprs(
            [e for _, e in problem.sketch_exprs], problem.inputs, problem.holes
        ),
    )


# ---------------------------------------------------------------------------
# Solver plumbing


@dataclass(frozen=True)
class SolverConfig:
    """How to reach an SMT-LIB v2 solver.

    The executable gets one full script on stdin per query, with stdin then
    closed, and must print the check-sat status and get-value response on
    stdout. Known-good configurations:
        z3:    SolverConfig("z3", ("-in", "-smt2"))
        cvc5:  SolverConfig("cvc5", ("--lang", "smt2"))
        bundled fallback: BUNDLED_SOLVER
    A config equal to BUNDLED_SOLVER is run as one live process per CEGIS
    run instead (see `solve_cegis`), and any process of it imports this
    copy of `techmap`.
    """

    path: str
    args: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


BUNDLED_SOLVER = SolverConfig(sys.executable, ("-m", "techmap.minismt"))
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


_SMT_RESERVED = {
    "_", "as", "let", "forall", "exists", "match", "par", "true", "false",
    "not", "and", "or", "xor", "ite", "distinct", "concat",
}


def _sanitize(name):
    out = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    if out in _SMT_RESERVED or out.startswith("bv"):
        out = out + "_"
    return out


def symbol_table(problem):
    """Deterministic renaming of inputs and holes to SMT-LIB simple symbols."""
    table = {}
    used = set()
    for name, _ in tuple(problem.inputs) + tuple(problem.holes):
        base = _sanitize(name)
        candidate = base
        k = 2
        while candidate in used:
            candidate = f"{base}_{k}"
            k += 1
        used.add(candidate)
        table[name] = candidate
    return table


def emit_synth_query(problem, examples):
    """Script asking for hole values consistent with every example env."""
    table = symbol_table(problem)
    asserts = []
    for env in examples:
        asserts += _equalities(problem, _bind(table, problem.inputs, env))
    return _script(table, problem.holes, asserts)


def emit_verify_query(problem, assignment):
    """Script searching for an input where the filled sketch disagrees."""
    table = symbol_table(problem)
    equalities = _equalities(problem, _bind(table, problem.holes, assignment))
    agree = equalities[0] if len(equalities) == 1 else f"(and {' '.join(equalities)})"
    return _script(table, problem.inputs, [f"(not {agree})"])


def _bind(table, symbols, values):
    """`table` with each (name, width) in `symbols` mapped to the literal of its value."""
    bound = dict(table)
    for name, width in symbols:
        bound[name] = semantics.lower_to_smt(ir.Const(width, values[name]), table)
    return bound


def _equalities(problem, symbols):
    """`(= design sketch)` for each output, lowered under `symbols`."""
    return [
        f"(= {semantics.lower_to_smt(d, symbols)} {semantics.lower_to_smt(s, symbols)})"
        for (_, d), (_, s) in zip(problem.design.outputs, problem.sketch_exprs)
    ]


def _script(table, unknowns, asserts):
    """Declare the (name, width) `unknowns`, assert `asserts`, and ask for the unknowns."""
    lines = ["(set-option :produce-models true)", "(set-logic QF_BV)"]
    for name, width in unknowns:
        lines.append(f"(declare-const {table[name]} (_ BitVec {width}))")
    lines += (f"(assert {a})" for a in asserts)
    lines.append("(check-sat)")
    if unknowns:
        lines.append("(get-value (" + " ".join(table[n] for n, _ in unknowns) + "))")
    return "\n".join(lines) + "\n"


def run_solver(solver, script):
    """Send one script; returns the solver's stdout text.

    `solver` is a SolverConfig, which gets one fresh process, or the live
    child that `solve_cegis` opened.
    """
    if isinstance(solver, _LiveSolver):
        return solver.ask(script)
    proc = _spawn(subprocess.run, solver, input=script.encode())
    return _reply(proc.stdout, proc.returncode, proc.stderr)


def _spawn(start, config, **kwargs):
    """Start the solver with `start` (subprocess.run or Popen)."""
    env = None
    if config == BUNDLED_SOLVER:
        path = (_PACKAGE_ROOT, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    try:
        return start(
            [config.path, *config.args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, **kwargs,
        )
    except (FileNotFoundError, PermissionError, NotADirectoryError) as exc:
        raise SolverSpawnError(f"cannot run solver '{config.path}': {exc}")


def _reply(stdout, returncode, stderr):
    out = stdout.decode(errors="replace")
    if not out.strip():
        raise SolverProtocolError(
            f"solver produced no output (exit {returncode})", stderr.decode(errors="replace")
        )
    return out


_ECHO_END = b'(echo "techmap-reply-end")\n'
_REPLY_END = b"techmap-reply-end\n"


class _LiveSolver:
    """One bundled-solver process that answers a sequence of scripts.

    Every script but the first sent to a process is preceded by `(reset)`
    and every script is followed by `_ECHO_END`. The reply is every line
    before the echoed line, or before end of file when the process exits,
    as `minismt` does after printing `(error ...)`. A process that has
    exited is started again on the next script.
    """

    def __init__(self, config):
        self.config = config
        self.proc = None

    def ask(self, script):
        data = script.encode()
        if self.proc is not None and self.proc.poll() is not None:
            self.close()
        reset = self.proc is not None
        if not reset:
            self.proc = _spawn(subprocess.Popen, self.config, stdin=subprocess.PIPE)
        proc = self.proc
        try:
            if reset:
                proc.stdin.write(b"(reset)\n")
            proc.stdin.write(data)
            proc.stdin.write(_ECHO_END)
            proc.stdin.flush()
        except BrokenPipeError:
            pass  # the process has exited; its output is read as run_solver does
        lines = []
        for line in iter(proc.stdout.readline, b""):
            if line == _REPLY_END:
                # A fresh process would have read its script to the end and
                # exited 0.
                return _reply(b"".join(lines), 0, b"")
            lines.append(line)
        stderr = proc.stderr.read()
        self.close()
        return _reply(b"".join(lines), proc.returncode, stderr)

    def close(self, kill=False):
        """End the process, if one is running, and wait for it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if kill:
            proc.kill()
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


@contextlib.contextmanager
def _session(config):
    """A live child for the bundled solver, else the config itself.

    The child is closed on return and killed on any exception, so none
    outlives the block.
    """
    if config != BUNDLED_SOLVER:
        yield config
        return
    live = _LiveSolver(config)
    try:
        yield live
    except BaseException:
        live.close(kill=True)
        raise
    live.close()


def query(solver, script, symbols):
    """Send one script; the model on sat, None on unsat.

    `symbols` maps SMT symbol -> (original name, width) for the get-value
    answer, as in `parse_model`; a script without get-value has no symbols
    and gets an empty model on sat. The first non-blank line of the reply
    is the status: unknown raises SolverUnknown, anything other than
    sat/unsat/unknown raises SolverProtocolError.
    """
    out = run_solver(solver, script)
    status = next((line.strip() for line in out.splitlines() if line.strip()), "")
    if status == "unsat":
        return None
    if status == "sat":
        return parse_model(out, symbols) if symbols else {}
    if status == "unknown":
        raise SolverUnknown()
    raise SolverProtocolError(f"unexpected solver reply {status!r}", out)


def parse_model(stdout, expected):
    """Extract `((sym val) ...)` bindings following a `sat` line.

    `expected` maps SMT symbol -> (original name, width). Values may be
    #b/#x literals or `(_ bvN w)`. Returns {original name: value}. Only the
    first form after the `sat` line is read, with `minismt`'s reader, so
    `|quoted|` symbols and `;` comments are understood.
    """
    lines = stdout.splitlines()
    try:
        at = next(i for i, line in enumerate(lines) if line.strip() == "sat")
    except StopIteration:
        raise SolverProtocolError("no 'sat' line before model", stdout)
    try:
        tokens = minismt.tokenize("\n".join(lines[at + 1:]))
        if not tokens:
            raise SolverProtocolError("missing model after 'sat'", stdout)
        tree, _ = minismt.read_form(tokens, 0)
    except minismt.SmtInputError as exc:
        raise SolverProtocolError(f"malformed model s-expression: {exc}", stdout) from None
    if not isinstance(tree, tuple):
        raise SolverProtocolError("model is not a parenthesized list", stdout)

    out = {}
    for entry in tree:
        if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str)):
            raise SolverProtocolError(f"malformed model entry {entry!r}", stdout)
        sym, val = entry
        if sym not in expected:
            continue
        name, width = expected[sym]
        out[name] = _parse_value(val, width, stdout)
    return out


def _parse_value(val, width, transcript):
    if isinstance(val, str) and val.startswith("#b"):
        digits = val[2:]
        if not re.fullmatch(r"[01]+", digits) or len(digits) != width:
            raise SolverProtocolError(f"bad binary value {val!r} for width {width}", transcript)
        return int(digits, 2)
    if isinstance(val, str) and val.startswith("#x"):
        digits = val[2:]
        if not re.fullmatch(r"[0-9a-fA-F]+", digits) or len(digits) != (width + 3) // 4:
            raise SolverProtocolError(f"bad hex value {val!r} for width {width}", transcript)
        value = int(digits, 16)
        if value >= 1 << width:
            raise SolverProtocolError(f"value {val!r} exceeds width {width}", transcript)
        return value
    if (
        isinstance(val, tuple) and len(val) == 3 and all(isinstance(v, str) for v in val)
        and val[0] == "_" and val[1].startswith("bv")
    ):
        if not val[1][2:].isdigit() or not val[2].isdigit() or int(val[2]) != width:
            raise SolverProtocolError(f"bad value {val!r} for width {width}", transcript)
        value = int(val[1][2:])
        if value >= 1 << width:
            raise SolverProtocolError(f"value {val!r} exceeds width {width}", transcript)
        return value
    raise SolverProtocolError(f"unrecognized value form {val!r}", transcript)


# ---------------------------------------------------------------------------
# CEGIS


class _Lcg:
    """64-bit linear congruential generator (Knuth MMIX constants).

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64;
    an n-bit draw takes the top n bits of the new state. Fixed here so
    seeded runs are reproducible across platforms.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def _next(self):
        self.state = (self.MULTIPLIER * self.state + self.INCREMENT) & self.MASK
        return self.state

    def draw(self, width):
        value = 0
        remaining = width
        while remaining > 0:
            take = min(64, remaining)
            value = (value << take) | (self._next() >> (64 - take))
            remaining -= take
        return value


def initial_examples(problem, seed, count):
    """All-zeros plus seeded pseudo-random envs, deduplicated in order."""
    rng = _Lcg(seed)
    envs = [{name: 0 for name, _ in problem.inputs}]
    for _ in range(max(count - 1, 0)):
        envs.append({name: rng.draw(width) for name, width in problem.inputs})
    unique = []
    for env in envs:
        if env not in unique:
            unique.append(env)
    return unique


def solve_cegis(problem, solver, max_iters=64, seed=0, init_examples=4):
    """Counterexample-guided synthesis against an external solver.

    Alternates a SYNTH query (find holes matching the collected example
    envs) with a VERIFY query (find an input refuting the candidate).
    An unsat SYNTH answer is definitive infeasibility, because examples
    only ever constrain the hole space. With the bundled solver, every
    query of the run goes to one process, closed on return and killed when
    the run raises.
    """
    started = time.perf_counter()
    table = symbol_table(problem)
    hole_syms = {table[n]: (n, w) for n, w in problem.holes}
    calls = 0

    def finish(assignment, iterations):
        wall_ms = (time.perf_counter() - started) * 1000.0
        return Solution(dict(assignment), "cegis", SolveStats(iterations, calls, wall_ms))

    with _session(solver) as solver:
        if not problem.holes:
            calls += 1
            if solver_counterexample(problem, {}, solver) is not None:
                raise TemplateInfeasible("sketch (with no holes) differs from the design")
            return finish({}, 0)

        examples = initial_examples(problem, seed, init_examples)
        for iteration in range(1, max_iters + 1):
            calls += 1
            model = query(solver, emit_synth_query(problem, examples), hole_syms)
            if model is None:
                raise TemplateInfeasible(
                    f"no hole assignment matches {len(examples)} example(s)"
                )
            # Unconstrained holes may be absent from the model; any value
            # verifies, zero is the canonical pick.
            assignment = {name: model.get(name, 0) for name, _ in problem.holes}

            calls += 1
            cex = solver_counterexample(problem, assignment, solver)
            if cex is None:
                return finish(assignment, iteration)
            if cex in examples:
                raise SolverProtocolError(f"solver returned a repeated counterexample {cex}")
            examples.append(cex)
        raise BudgetExceeded(max_iters)


def solver_counterexample(problem, assignment, solver):
    """Ask the solver for an input where the filled sketch disagrees; None when sound.

    The counterexample binds every input; a model that leaves one out
    raises MissingSymbol.
    """
    table = symbol_table(problem)
    input_syms = {table[n]: (n, w) for n, w in problem.inputs}
    cex = query(solver, emit_verify_query(problem, assignment), input_syms)
    if cex is not None:
        for name, _ in problem.inputs:
            if name not in cex:
                raise MissingSymbol(name)
    return cex


def exhaustive_counterexample(
    problem, assignment, max_input_bits=semantics.EXHAUSTIVE_INPUT_BITS
):
    """Check a candidate assignment on every input row; None when sound.

    More than `max_input_bits` input bits raise TooManyInputBits.
    """
    rows = semantics.input_rows(problem.inputs, max_input_bits)
    try:
        values = [assignment[name] for name, _ in problem.holes]
    except KeyError as exc:
        raise HolePresent(exc.args[0]) from None
    design, sketch = _compile(problem)
    row = semantics.first_mismatch(sketch, rows, design, args=values)
    return None if row is None else semantics.row_env(problem.inputs, row)
