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
Every query is one whole QF_BV script, so any SMT-LIB v2 solver works.
There is one transport: a `_Solver` starts each solver process with one
`subprocess.Popen` call and talks to it only through `_exchange`. A solver
gets a fresh process per script, with the script on stdin, except the
bundled `minismt` (`BUNDLED_SOLVER`), which is live: `solve_cegis` keeps
two of its processes for the whole run, each started with `python -S` at
its first query: one answers the synth queries and one the verify queries.
Each synth script is the last one with the new example's assertions added,
so the synth process is sent only those and the script's closing commands;
the verify process gets `(reset)` and the whole script. Since `minismt`'s
check-sat does not depend on an earlier one, the replies are the bytes a
fresh process would print for each whole script. A query unanswered after
QUERY_TIMEOUT_S kills its solver and raises SolverUnknown.
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
import select
import selectors
import sys
import time
from dataclasses import dataclass

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

    def __post_init__(self):
        object.__setattr__(self, "sketch_exprs", tuple(self.sketch_exprs))
        object.__setattr__(self, "holes", tuple(self.holes))
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
    def inputs(self):  # the sketch reads the design's inputs
        return self.design.inputs

    @property
    def hole_space(self):
        """Exact number of hole assignments: the product of 2^width."""
        return 1 << sum(w for _, w in self.holes)


def problem_from_sketch(design, sketch, library):
    exprs = templates.sketch_to_exprs(sketch, library)
    return SynthesisProblem(design, tuple(exprs), sketch.holes)


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


BRUTE_HOLE_SPACE = 1 << 20  # the most hole assignments enumeration tries


def solve_brute_force(problem):
    """Enumerate hole assignments in ascending order; first full match wins.

    Exhaustive and deterministic, hence the reference backend: when it
    raises Infeasible, no configuration of this sketch implements the
    design. BRUTE_HOLE_SPACE and `semantics.EXHAUSTIVE_INPUT_BITS` guard
    against accidentally unbounded runs.
    """
    started = time.perf_counter()
    space = problem.hole_space
    if space > BRUTE_HOLE_SPACE:
        raise LimitExceeded("hole space", space, BRUTE_HOLE_SPACE)
    try:
        rows = list(semantics.input_rows(problem.inputs))
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

    The executable is started once per query and gets one full script on
    stdin, with stdin then closed; it must print the check-sat status and
    get-value response on stdout before it exits. Known-good configurations:
        z3:    SolverConfig("z3", ("-in", "-smt2"))
        cvc5:  SolverConfig("cvc5", ("--lang", "smt2"))
        bundled fallback: BUNDLED_SOLVER
    A config equal to BUNDLED_SOLVER is live instead: one process answers
    a sequence of scripts (see `_Solver`), two per CEGIS run, and any
    process of it imports this copy of `techmap`.
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


QUERY_TIMEOUT_S = 600.0  # wall-clock bound on the answer to one query


def run_solver(solver, script):
    """Send one script; returns the solver's stdout text.

    `solver` is an open `_Solver`, or a SolverConfig, which gets a
    `_Solver` for this script alone. A solver that has not answered within
    QUERY_TIMEOUT_S is killed, and SolverUnknown raised.
    """
    if isinstance(solver, _Solver):
        return solver.ask(script)
    with _Solver(solver) as one:
        return one.ask(script)


def _spawn(config):
    command = [config.path, *config.args]
    env = None
    if config == BUNDLED_SOLVER:
        # `-S` skips importing `site`, most of a bare interpreter's start-up;
        # the child still finds this copy of techmap through PYTHONPATH.
        command.insert(1, "-S")
        path = (_PACKAGE_ROOT, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    pipe = subprocess.PIPE
    try:
        return subprocess.Popen(command, stdin=pipe, stdout=pipe, stderr=pipe, env=env)
    except (FileNotFoundError, PermissionError, NotADirectoryError) as exc:
        raise SolverSpawnError(f"cannot run solver '{config.path}': {exc}")


_ECHO_END = b'(echo "techmap-reply-end")\n'
_REPLY_END = b"techmap-reply-end\n"


class _Solver:
    """One config's solver processes, each started by a query that finds none running.

    A config equal to BUNDLED_SOLVER is live: its process answers a
    sequence of scripts. A script's head is its text before
    `(check-sat)\n`. When the head last sent to the process is a prefix of
    the new script's head, only the rest of the script is written:
    `minismt` never changes its formula by searching it, so the process
    then holds what a fresh one would after reading the new head.
    Otherwise a running process first gets `(reset)` and the whole script.
    Every script is followed by `_ECHO_END`, and the reply is every line
    before the echoed line, or before end of file when the process exits,
    as `minismt` does after printing `(error ...)`. Any other solver gets
    a fresh process for each script, with stdin closed after it, and its
    reply is everything it prints before end of file.

    As a context manager it closes its process on exit, or kills it when
    the block raises, so none outlives the block.
    """

    def __init__(self, config):
        self.config = config
        self.live = config == BUNDLED_SOLVER
        self.proc = None
        self.head = None  # of the last script sent to `proc`

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        self.close(kill=kind is not None)

    def ask(self, script):
        head = script.partition("(check-sat)\n")[0]
        if self.proc is not None and self.proc.poll() is not None:
            self.close()
        if self.proc is None:
            self.proc = _spawn(self.config)
            sent = script
        elif head.startswith(self.head):
            sent = script[len(self.head):]
        else:
            sent = "(reset)\n" + script
        self.head = head
        proc = self.proc
        exchanged = _exchange(proc, sent.encode(), self.live)
        if exchanged is None:
            self.close(kill=True)
            raise SolverUnknown(f"solver gave no answer within {QUERY_TIMEOUT_S:g} s")
        out, err, answered = exchanged
        if not answered:
            self.close()
        if not out.strip():
            # Had it answered, a fresh process would have read its script to
            # the end and exited 0.
            raise SolverProtocolError(
                f"solver produced no output (exit {0 if answered else proc.returncode})",
                err.decode(errors="replace"),
            )
        return out.decode(errors="replace")

    def close(self, kill=False):
        """End the process, if one is running, and wait for it."""
        proc, self.proc, self.head = self.proc, None, None
        if proc is None:
            return
        if kill:
            proc.kill()
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def _exchange(proc, data, live):
    """Write `data` to `proc` and read what it prints, within QUERY_TIMEOUT_S.

    Returns (stdout, stderr, answered), or None once the time is up. A
    `live` process is sent `_ECHO_END` after `data` and has answered at
    its first `_REPLY_END` line, which is cut from stdout; any other has
    stdin closed once `data` is written. Unanswered, the exchange ends when
    the process has closed stdout and stderr. Stderr is read as it comes,
    so a child that fills its pipe is never left blocked.
    """
    deadline = time.monotonic() + QUERY_TIMEOUT_S
    pending = memoryview(data + _ECHO_END if live else data)
    out = err = b""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        selector.register(proc.stderr, selectors.EVENT_READ)
        selector.register(proc.stdin, selectors.EVENT_WRITE)
        while selector.get_map():
            ready = selector.select(deadline - time.monotonic())
            if not ready:
                return None
            for key, _ in ready:
                if key.fileobj is proc.stdin:
                    try:
                        # A pipe that selects as writable takes PIPE_BUF
                        # bytes without blocking.
                        pending = pending[os.write(key.fd, pending[:select.PIPE_BUF]):]
                    except BrokenPipeError:
                        pending = pending[:0]  # the process has exited; its output is still read
                    if not pending:
                        selector.unregister(proc.stdin)
                        if not live:
                            proc.stdin.close()
                    continue
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    selector.unregister(key.fileobj)
                elif key.fileobj is proc.stderr:
                    err += chunk
                else:
                    out += chunk
                    if live and (out == _REPLY_END or out.endswith(b"\n" + _REPLY_END)):
                        return out[: -len(_REPLY_END)], err, True
    return out, err, False


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
    """A `width`-bit value: a literal of that width, or `#x` with ceil(width / 4) digits."""
    try:
        value, size = minismt.literal(val) or (None, None)
    except minismt.SmtInputError:
        value = None
    if value is None or value >> width or (
        size != width and not (isinstance(val, str) and val[:2] == "#x" and size - 4 < width < size)
    ):
        raise SolverProtocolError(f"bad value {val!r} for width {width}", transcript)
    return value


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
    only ever constrain the hole space. With the bundled solver, the
    run's synth queries go to one process and its verify queries to
    another; both are closed on return and killed when the run raises.
    """
    started = time.perf_counter()
    table = symbol_table(problem)
    hole_syms = {table[n]: (n, w) for n, w in problem.holes}
    calls = 0

    def finish(assignment, iterations):
        wall_ms = (time.perf_counter() - started) * 1000.0
        return Solution(dict(assignment), "cegis", SolveStats(iterations, calls, wall_ms))

    with _Solver(solver) as synth, _Solver(solver) as verify:
        if not problem.holes:
            calls += 1
            if solver_counterexample(problem, {}, verify) is not None:
                raise TemplateInfeasible("sketch (with no holes) differs from the design")
            return finish({}, 0)

        examples = initial_examples(problem, seed, init_examples)
        for iteration in range(1, max_iters + 1):
            calls += 1
            model = query(synth, emit_synth_query(problem, examples), hole_syms)
            if model is None:
                raise TemplateInfeasible(
                    f"no hole assignment matches {len(examples)} example(s)"
                )
            # Unconstrained holes may be absent from the model; any value
            # verifies, zero is the canonical pick.
            assignment = {name: model.get(name, 0) for name, _ in problem.holes}

            calls += 1
            cex = solver_counterexample(problem, assignment, verify)
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


def exhaustive_counterexample(problem, assignment):
    """Check a candidate assignment on every input row; None when sound.

    More than `semantics.EXHAUSTIVE_INPUT_BITS` input bits raise
    TooManyInputBits.
    """
    rows = semantics.input_rows(problem.inputs)
    try:
        values = [assignment[name] for name, _ in problem.holes]
    except KeyError as exc:
        raise HolePresent(exc.args[0]) from None
    design, sketch = _compile(problem)
    row = semantics.first_mismatch(sketch, rows, design, args=values)
    return None if row is None else semantics.row_env(problem.inputs, row)
