"""Hole solving: exhaustive enumeration and solver-backed CEGIS.

Both backends decide the same question: does some assignment to the
sketch's holes make every output agree with the design on every input?
Enumeration is the trustworthy oracle for small hole spaces; CEGIS asks an
external SMT-LIB solver and scales to spaces enumeration cannot touch.
Enumeration and the exhaustive re-check of a solution compile the design
once into a table of every row's outputs, and the sketch once into a scan
against that table (`semantics.compile_exprs`). For enumeration, the
scan's generated code tries a block of hole assignments per row step, as
bit planes, and walks rows in ascending order, so the first match is the
lowest assignment; the re-check puts the candidate's values into the
sketch as constants, so its scan walks rows alone, and its counterexample
is the lowest mismatching row.
A query lowers the design and the sketch, unchanged, under a symbol
binding: the synth query binds each example's inputs to literals, the
verify query binds the holes to the candidate's. Each binding is lowered in
one pass, and a node that more than one parent reads
(`SynthesisProblem.shared`) is written once, as a zero-arity `define-fun`,
and read by its name, so a query grows with the number of distinct nodes,
not with the number of paths to them. A CEGIS run lowers each example once.
Every query is one whole QF_BV script, so any SMT-LIB v2 solver works.
A solver is reached in one of two ways. A session that keeps its formula
between queries lives in a child process: a `_Solver` starts each of its
processes with one `subprocess.Popen` call and talks to it only through
`_exchange`. A stateless query to the bundled `minismt` (`BUNDLED_SOLVER`)
is answered in this process instead, by a fresh `minismt.Interpreter`
(`query` hands it to `run_solver` as IN_PROCESS). So with the bundled
solver, `solve_cegis` starts one process, the synth session, which is
live: started with `python -S` at the run's first synth query, it answers
every synth query of the run. Each synth script is the last one with the
new example's definitions and assertions added, so the process is sent
only those and the script's closing commands. Since `minismt`'s
check-sat does not depend on an earlier one (it rewinds a searched
formula before extending it), the replies are the bytes a fresh process
would print for each whole script. Every verify query, and so
`emit.check_equivalence` in solver mode, is answered in-process. A script
given to `run_solver` with a config gets a process of its own, with the
script on stdin, the bundled solver too. A query unanswered after QUERY_TIMEOUT_S raises
SolverUnknown: a process is killed, and an in-process answer stops at
that deadline, which `minismt` checks while it blasts and searches.
Every question goes through `query`, the one place a solver's answer is
read: unsat gives None, sat gives the model, read with `minismt`'s
s-expression reader, and unknown or anything else raises.
There is one counterexample search per check mode, `solver_counterexample`
and `exhaustive_counterexample`: CEGIS verifies with the first, and
`emit.check_equivalence` runs either on a problem without holes.
"""

from __future__ import annotations

import contextlib
import functools
import io
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

    @functools.cached_property
    def roots(self):
        """The design's outputs and then the sketch's, as the queries lower them."""
        return tuple(e for _, e in self.design.outputs + self.sketch_exprs)

    @functools.cached_property
    def shared(self):
        """`semantics.shared_nodes` of `roots`: the nodes a query names once."""
        return semantics.shared_nodes(self.roots)

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
        design = _design_table(problem)
        sketch = semantics.compile_exprs(
            [e for _, e in problem.sketch_exprs], problem.inputs, problem.holes, form="scan"
        )
    except TooManyInputBits as exc:
        raise LimitExceeded("input bits", exc.total, exc.limit) from None
    index, _ = sketch(design(0))
    if index is None:
        raise Infeasible(f"no assignment among {space} implements '{problem.design.name}'")
    wall_ms = (time.perf_counter() - started) * 1000.0
    assignment = semantics.row_env(problem.holes, index)
    return Solution(assignment, "brute", SolveStats(index + 1, 0, wall_ms))


def _design_table(problem):
    """The design's table form, from `semantics.compile_exprs`."""
    return semantics.compile_exprs([e for _, e in problem.design.outputs], problem.inputs, form="table")


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
    a sequence of scripts (see `_Solver`), one per CEGIS run, and it
    imports this copy of `techmap`; `query` answers a one-shot script to
    it in this process (see `run_solver`).
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


def emit_synth_query(problem, examples, memo=None):
    """Script asking for hole values consistent with every example env.

    `memo` is a list that a caller keeps for one problem across calls, such
    as a CEGIS run: it holds each example's env and lowered lines, so an
    example that a later script repeats at the same place is lowered once.
    """
    table = symbol_table(problem)
    memo = [] if memo is None else memo
    lines = []
    for k, env in enumerate(examples):
        if k == len(memo) or memo[k][0] != env:
            del memo[k:]
            defines, equalities = _lower(problem, _bind(table, problem.inputs, env), f"$e{k}.")
            memo.append((dict(env), defines + [f"(assert {e})" for e in equalities]))
        lines += memo[k][1]
    return _script(table, problem.holes, lines)


def emit_verify_query(problem, assignment):
    """Script searching for an input where the filled sketch disagrees."""
    table = symbol_table(problem)
    defines, equalities = _lower(problem, _bind(table, problem.holes, assignment), "$v.")
    agree = equalities[0] if len(equalities) == 1 else f"(and {' '.join(equalities)})"
    return _script(table, problem.inputs, defines + [f"(assert (not {agree}))"])


def _bind(table, symbols, values):
    """`table` with each (name, width) in `symbols` mapped to the literal of its value."""
    bound = dict(table)
    for name, width in symbols:
        bound[name] = semantics.lower_to_smt(ir.Const(width, values[name]), table)
    return bound


def _lower(problem, symbols, prefix):
    """`(define-fun ...)` lines for the problem's shared nodes and `(= design sketch)`
    for each output, lowered under `symbols` in one pass.

    Each shared node is named `prefix` and its index, which no symbol
    table name can be: those hold only letters, digits and `_`.
    """
    names = {key: f"{prefix}{k}" for key, k in problem.shared.items()}
    defines = []
    terms = semantics.lower_to_smt(problem.roots, symbols, names, defines)
    outputs = len(problem.design.outputs)
    return defines, [f"(= {d} {s})" for d, s in zip(terms[:outputs], terms[outputs:])]


def _script(table, unknowns, lines):
    """Declare the (name, width) `unknowns`, then `lines`, then ask for the unknowns."""
    head = ["(set-option :produce-models true)", "(set-logic QF_BV)"]
    head += (f"(declare-const {table[name]} (_ BitVec {width}))" for name, width in unknowns)
    tail = ["(check-sat)"]
    if unknowns:
        tail.append("(get-value (" + " ".join(table[n] for n, _ in unknowns) + "))")
    return "\n".join(head + lines + tail) + "\n"


QUERY_TIMEOUT_S = 600.0  # wall-clock bound on the answer to one query
IN_PROCESS = object()  # the bundled solver, run in this process (see `run_solver`)


def run_solver(solver, script):
    """Send one script; returns the solver's stdout text.

    `solver` is an open `_Solver`; a SolverConfig, BUNDLED_SOLVER too,
    which gets a `_Solver`, and so a process, for this script alone; or
    IN_PROCESS, which the bundled solver answers in this process
    (`_answer`). A process that has not answered within QUERY_TIMEOUT_S is
    killed, an in-process answer stops at that deadline, and either way
    SolverUnknown is raised.
    """
    if solver is IN_PROCESS:
        return _answer(script)
    if isinstance(solver, _Solver):
        return solver.ask(script)
    with _Solver(solver) as one:
        return one.ask(script)


def _answer(script):
    """What a fresh bundled-solver process prints for `script`, from a fresh
    `minismt.Interpreter` in this process, with the deadline QUERY_TIMEOUT_S
    from now.

    One difference remains: this process's frames share Python's recursion
    limit with the interpreter's, so a term nested close to the depth a
    fresh process can read (about 490 levels) may get `(error "term nested
    too deeply")` a few levels sooner here.
    """
    out = io.StringIO()
    interp = minismt.Interpreter(out, time.monotonic() + QUERY_TIMEOUT_S)
    code = minismt.answer(interp, lambda: minismt.serve(io.StringIO(script), interp))
    if interp.expired:
        raise SolverUnknown(_NO_ANSWER % QUERY_TIMEOUT_S)
    return _reply(out.getvalue(), code, "")


_NO_ANSWER = "solver gave no answer within %g s"


def _reply(out, code, err):
    """`out`, unless it is blank: a solver that has read its script to the
    end prints at least its status, or an error."""
    if not out.strip():
        raise SolverProtocolError(f"solver produced no output (exit {code})", err)
    return out


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
    """A session: one config's solver processes, each started by a query that
    finds none running.

    A session always runs its solver in a child process, the bundled one
    too. A config equal to BUNDLED_SOLVER is live: its process answers a
    sequence of scripts. A script's head is its text before
    `(check-sat)\n`. When the head last sent to the process is a prefix of
    the new script's head, only the rest of the script is written:
    `minismt` rewinds a searched formula before extending it, so the
    process then holds what a fresh one would after reading the new head.
    Otherwise the process is closed, and a new one gets the whole script.
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
        if self.proc is not None and (
            self.proc.poll() is not None or not head.startswith(self.head)
        ):
            self.close()
        if self.proc is None:
            self.proc = _spawn(self.config)
            sent = script
        else:
            sent = script[len(self.head):]
        self.head = head
        proc = self.proc
        exchanged = _exchange(proc, sent.encode(), self.live)
        if exchanged is None:
            self.close(kill=True)
            raise SolverUnknown(_NO_ANSWER % QUERY_TIMEOUT_S)
        out, err, answered = exchanged
        if not answered:
            self.close()
        # Had it answered, a fresh process would have read its script to the
        # end and exited 0.
        code = 0 if answered else proc.returncode
        return _reply(out.decode(errors="replace"), code, err.decode(errors="replace"))

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
    sat/unsat/unknown raises SolverProtocolError. A config equal to
    BUNDLED_SOLVER is answered in this process: such a one-shot script
    holds no state worth a process.
    """
    out = run_solver(IN_PROCESS if solver == BUNDLED_SOLVER else solver, script)
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
    only ever constrain the hole space. The run's synth queries go to one
    `_Solver` session, closed on return and killed when the run raises;
    each verify query is asked on its own, in-process with the bundled
    solver (see `query`).
    """
    started = time.perf_counter()
    table = symbol_table(problem)
    hole_syms = {table[n]: (n, w) for n, w in problem.holes}
    calls = 0

    def finish(assignment, iterations):
        wall_ms = (time.perf_counter() - started) * 1000.0
        return Solution(dict(assignment), "cegis", SolveStats(iterations, calls, wall_ms))

    with _Solver(solver) as synth:
        if not problem.holes:
            calls += 1
            if solver_counterexample(problem, {}, solver) is not None:
                raise TemplateInfeasible("sketch (with no holes) differs from the design")
            return finish({}, 0)

        examples = initial_examples(problem, seed, init_examples)
        memo = []  # each example's lines, lowered once for the run
        for iteration in range(1, max_iters + 1):
            calls += 1
            model = query(synth, emit_synth_query(problem, examples, memo), hole_syms)
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


def exhaustive_counterexample(problem, assignment):
    """Check a candidate assignment on every input row; None when sound.

    More than `semantics.EXHAUSTIVE_INPUT_BITS` input bits raise
    TooManyInputBits. The assignment's values are checked once, before any
    row, by `semantics.hole_index`, and then go into the sketch as
    constants, so the scan walks one hole-free index.
    """
    design = _design_table(problem)
    semantics.hole_index(problem.holes, assignment)
    sketch = [e for _, e in problem.sketch_exprs]
    if problem.holes:  # else `substitute` would rewrite nothing
        values = {name: ir.Const(width, assignment[name]) for name, width in problem.holes}
        sketch = [ir.substitute(e, {}, values) for e in sketch]
    _, row = semantics.compile_exprs(sketch, problem.inputs, form="scan")(design(0))
    return None if row is None else semantics.row_env(problem.inputs, row)
