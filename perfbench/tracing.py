"""Traced runs: spans recorded from outside the program, and solver replay.

`Tracer.install` replaces public functions of the `techmap` modules by
wrappers that record a span (name, start, end, parent span, design) per
call. Spans stay in memory and are written out when the run ends. Hot
per-row evaluator calls are not given a span each: they are summed per
parent span instead, which keeps their cost attributed without storing a
million records. A layer's self time is its span time minus the time of
its child spans and summed hot calls.

The bundled solver runs in a child process, which spans cannot see into.
`replay` therefore runs every captured solver script again in-process
through `minismt` and times its parse, bit-blast and CDCL phases.
"""

from __future__ import annotations

import functools
import io
import json
import statistics
import time
from collections import defaultdict

# (module, function, metric of its self time). Every wrapped function has
# a metric, so the layers' self times and the untimed runner code add up
# to the traced wall time.
SPANNED = (
    ("cli", "main", "cli.main_ms"),
    ("cli", "cmd_map", "cli.map_ms"),
    ("cli", "cmd_verify", "cli.verify_ms"),
    ("library", "load_library", "library.load_ms"),
    ("verilog", "parse", "verilog.parse_ms"),
    ("verilog", "elaborate", "verilog.elaborate_ms"),
    ("templates", "instantiate", "templates.instantiate_ms"),
    ("templates", "sketch_to_exprs", "templates.sketch_to_exprs_ms"),
    ("synthesis", "problem_from_sketch", "synthesis.problem_ms"),
    ("synthesis", "solve_brute_force", "synthesis.brute_ms"),
    ("synthesis", "solve_cegis", "synthesis.cegis_ms"),
    ("synthesis", "emit_synth_query", "synthesis.emit_query_ms"),
    ("synthesis", "emit_verify_query", "synthesis.emit_query_ms"),
    ("synthesis", "run_solver", "synthesis.run_solver_ms"),
    ("synthesis", "parse_model", "synthesis.parse_model_ms"),
    ("ir", "substitute", "ir.substitute_ms"),
    ("semantics", "lower_to_smt", "semantics.lower_to_smt_ms"),
    ("emit", "resolve", "emit.resolve_ms"),
    ("emit", "print_verilog", "emit.print_verilog_ms"),
    ("emit", "check_equivalence", "emit.check_equivalence_ms"),
)
HOT = (
    ("semantics", "eval_concrete", "semantics.eval_ms"),
    ("semantics", "eval_many", "semantics.eval_ms"),
)
SELF_TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric in SPANNED + HOT))

TRIVIAL_SCRIPT = "(set-logic QF_BV)\n(check-sat)\n"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, design]
        self.hot = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, seconds]
        self.stack = []  # indices of open spans
        self.design = None
        self.scripts = []  # (design, script, solver stdout) per run_solver call
        self.counts = defaultdict(int)
        self._originals = []
        # Called with (args, result) after a successful call.
        self._observers = {
            "synthesis.run_solver": self._count_query,
            "synthesis.emit_synth_query": self._count_synth,
            "synthesis.emit_verify_query": self._count_verify,
            "synthesis.problem_from_sketch": self._count_holes,
            "synthesis.solve_brute_force": self._count_assignments,
            "synthesis.solve_cegis": self._count_iterations,
        }

    # -- installing ----------------------------------------------------------
    def install(self, techmap_modules):
        """Wrap the functions in SPANNED and HOT on the given modules."""
        for module, attr, _ in SPANNED:
            self._patch(techmap_modules[module], attr, self._spanned)
        for module, attr, _ in HOT:
            self._patch(techmap_modules[module], attr, self._hot)

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _patch(self, module, attr, make):
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, make(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", original))

    def _spanned(self, name, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, time.perf_counter(), None, parent, self.design]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _hot(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = self.hot[(name, self.stack[-1] if self.stack else None)]
                entry[0] += 1
                entry[1] += time.perf_counter() - started

        return traced

    # -- counts taken at layer boundaries --------------------------------------
    def _count_query(self, args, out):
        self.scripts.append((self.design, args[1], out))
        self.counts["synthesis.query_bytes"] += len(args[1].encode())
        self.counts["minismt.error_replies"] += sum(
            1 for line in out.splitlines() if line.lstrip().startswith("(error")
        )

    def _count_synth(self, args, script):
        self.counts["synthesis.synth_queries"] += 1

    def _count_verify(self, args, script):
        self.counts["synthesis.verify_queries"] += 1

    def _count_holes(self, args, problem):
        self.counts["templates.hole_bits"] += sum(width for _, width in problem.holes)

    def _count_assignments(self, args, solution):
        self.counts["synthesis.brute_assignments"] += solution.stats.iterations

    def _count_iterations(self, args, solution):
        self.counts["synthesis.cegis_iterations"] += solution.stats.iterations

    # -- results ---------------------------------------------------------------
    def self_times(self):
        """Self seconds per metric, and the summed duration of root spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (_, parent), (_, seconds) in self.hot.items():
            if parent is not None:
                child[parent] += seconds
        metric_of = {f"{m}.{a}": metric for m, a, metric in SPANNED + HOT}
        totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        roots = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            totals[metric_of[name]] += end - start - child[index]
            if parent is None:
                roots += end - start
        for (name, parent), (_, seconds) in self.hot.items():
            totals[metric_of[name]] += seconds
            if parent is None:
                roots += seconds
        return totals, roots

    def eval_calls(self):
        return sum(calls for calls, _ in self.hot.values())

    def dump(self, path):
        records = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "design": d}
                for n, s, e, p, d in self.spans
            ],
            "hot": [
                {"name": n, "parent": p, "calls": c, "seconds": t}
                for (n, p), (c, t) in self.hot.items()
            ],
        }
        path.write_text(json.dumps(records) + "\n", encoding="utf-8")


def status_line(stdout):
    for line in stdout.splitlines():
        if line.strip():
            return line.strip()
    return ""


def replay(minismt, scripts):
    """Re-solve captured scripts in-process; returns (metrics, mismatches).

    Each script is tokenized and read (parse), run up to its first
    check-sat (bit-blast), and then decided (CDCL). A mismatch is a
    (design, message) pair for a script whose in-process answer differs
    from the solver child's.
    """
    metrics = dict.fromkeys(
        ("minismt.parse_ms", "minismt.blast_ms", "minismt.cdcl_ms"), 0.0
    )
    metrics.update(dict.fromkeys(
        ("minismt.vars", "minismt.clauses", "minismt.learnt_clauses"), 0
    ))
    mismatches = []
    for design, script, out in scripts:
        t0 = time.perf_counter()
        forms = minismt.parse_forms(minismt.tokenize(script))
        t1 = time.perf_counter()
        at = next(i for i, form in enumerate(forms) if form == ("check-sat",))
        interp = minismt.Interpreter(io.StringIO())
        interp.run(forms[:at])
        sat = interp.blaster.sat
        clauses = len(sat.clauses)
        t2 = time.perf_counter()
        model = sat.solve()
        t3 = time.perf_counter()
        metrics["minismt.parse_ms"] += (t1 - t0) * 1000.0
        metrics["minismt.blast_ms"] += (t2 - t1) * 1000.0
        metrics["minismt.cdcl_ms"] += (t3 - t2) * 1000.0
        metrics["minismt.vars"] += sat.nvars
        metrics["minismt.clauses"] += clauses
        metrics["minismt.learnt_clauses"] += len(sat.clauses) - clauses
        answer = "sat" if model is not None else "unsat"
        if answer != status_line(out):
            mismatches.append(
                (design, f"replay says {answer}, solver said {status_line(out)!r}")
            )
    return metrics, mismatches


def spawn_ms(synthesis, solver, samples=5):
    """Median wall time of a trivial query through run_solver, in ms."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        out = synthesis.run_solver(solver, TRIVIAL_SCRIPT)
        times.append((time.perf_counter() - started) * 1000.0)
        if status_line(out) != "sat":
            raise RuntimeError(f"solver probe answered {out!r}")
    return statistics.median(times)
