"""techmap benchmark: time from design file to verified netlist.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lut4_cegis --seed 1 --seconds 40 --trace 0

One closed-loop client maps and verifies the workload's designs one at a
time through `techmap.cli.main`, in this process, so at most one solver
child runs at a time. With `--trace 0` it repeats passes over the designs
while the next design fits in `--seconds` and prints the end-to-end metrics.
With `--trace 1` it makes one untraced and one traced pass and prints the
per-layer metrics (see tracing.py). Every verdict and netlist digest is
checked against golden.json. The last line of standard output is the result
object; the line before it carries run details (solver, host speed, sample
count, failures).
"""

import time

STARTED = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 5  # this process, then fresh processes after the passes
SPIN_ITERATIONS = 3_000_000
SOLVER = (sys.executable, ("-m", "techmap.minismt"))

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "design_s_p50": "s",
    "design_s_max": "s",
    "peak_rss_mb": "MB",
    "solver_peak_rss_mb": "MB",
    "netlist_bytes": "bytes",
}
COUNTS = (
    "synthesis.synth_queries",
    "synthesis.verify_queries",
    "synthesis.cegis_iterations",
    "synthesis.brute_assignments",
    "templates.hole_bits",
    "minismt.error_replies",
)
PER_LAYER_UNITS = {
    "solver.spawn_ms": "ms",
    "solver.calls": "count",
    **{name: "ms" for name in tracing.SELF_TIME_METRICS},
    **{name: "count" for name in COUNTS},
    "synthesis.query_bytes": "bytes",
    "semantics.eval_calls": "count",
    "minismt.parse_ms": "ms",
    "minismt.blast_ms": "ms",
    "minismt.cdcl_ms": "ms",
    "minismt.vars": "count",
    "minismt.clauses": "count",
    "minismt.learnt_clauses": "count",
    "trace.wall_s": "s",
    "trace.untimed_s": "s",
    "trace.overhead_s": "s",
    "host.spin_s": "s",
    "design_n": "count",
    "fail_ratio": "ratio",
}


@dataclass
class Context:
    workload: str
    modules: dict  # name -> imported techmap module
    solver: object
    solver_args: list
    golden: dict
    designs: list
    workdir: Path


def import_techmap():
    """Import techmap from this checkout's sources; returns name -> module."""
    if not (SRC / "techmap" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no techmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # Solver children run `python -m techmap.minismt` and must import it too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    from techmap import cli, emit, ir, library, minismt, semantics, synthesis, templates, verilog

    return {
        "cli": cli, "emit": emit, "ir": ir, "library": library, "minismt": minismt,
        "semantics": semantics, "synthesis": synthesis, "templates": templates,
        "verilog": verilog,
    }


def pinned_solver(cli):
    """The bundled solver, named explicitly so that no z3 on PATH is used."""
    solver = cli.resolve_solver(SOLVER[0], SOLVER[1])
    return solver, ["--solver", solver.path, *(f"--solver-arg={a}" for a in solver.args)]


def setup(workload, seed, workdir):
    """Import techmap, write the run's design files, probe the solver."""
    modules = import_techmap()
    golden = workloads.load_golden()[workload]
    designs = workloads.select(workload, seed, golden)
    workdir.mkdir(parents=True)
    workloads.write_designs(designs, workdir)
    solver, solver_args = pinned_solver(modules["cli"])
    out = modules["synthesis"].run_solver(solver, tracing.TRIVIAL_SCRIPT)
    if tracing.status_line(out) != "sat":
        raise SystemExit(f"perfbench: solver probe answered {out!r}")
    return Context(workload, modules, solver, solver_args, golden, designs, workdir)


def host_spin():
    """A fixed pure-Python loop; its time tracks the host's speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - started


def run_pass(ctx, tracer=None):
    """Map and verify every design once; returns (seconds, outcomes)."""
    started = time.perf_counter()
    outcomes = []
    for design in ctx.designs:
        if tracer is not None:
            tracer.design = design.name
        outcomes.append(
            workloads.run_design(ctx.modules["cli"], design, ctx.workdir, ctx.solver_args)
        )
    return time.perf_counter() - started, outcomes


def failures(outcomes, golden, mismatches=()):
    """(design, reason) for every failed attempt.

    An attempt fails when its verdict or netlist differs from the golden
    one, or when a replayed solver script of it (`mismatches`, from
    tracing.replay) got another answer in-process than from the child.
    """
    replay_reasons = {}
    for design, reason in mismatches:
        replay_reasons.setdefault(design, reason)
    found = []
    for outcome in outcomes:
        reason = workloads.check(outcome, golden)
        if reason is not None:
            found.append((outcome.design, f"{reason}: {outcome.message.strip()[-300:]}"))
        elif outcome.design in replay_reasons:
            found.append((outcome.design, replay_reasons[outcome.design]))
    return found


def setup_sample(workload, seed):
    """setup_s of one fresh process, as measured by that process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def untraced(ctx, seed, seconds, setup_first, smoke):
    """Designs in pass order while the next one fits in `seconds`; the end-to-end metrics.

    Every design runs at least once. After that a design runs only if its
    last time still fits, so a run fills `seconds` and its last pass may be
    partial. Each design's time is the median of its attempts.
    """
    count = len(ctx.designs)
    attempts = [[] for _ in ctx.designs]  # per design, its Outcomes in order
    pass_times = []
    started = pass_started = time.perf_counter()
    done = 0
    while True:
        design = ctx.designs[done % count]
        attempts[done % count].append(
            workloads.run_design(ctx.modules["cli"], design, ctx.workdir, ctx.solver_args)
        )
        done += 1
        now = time.perf_counter()
        if done % count == 0:
            pass_times.append(now - pass_started)
            pass_started = now
            if smoke:
                break
        if done >= count and now - started + attempts[done % count][-1].seconds > seconds:
            break
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    # Fresh processes only after the passes, so that RUSAGE_CHILDREN above
    # saw solver children alone.
    setups = [setup_first] + [
        setup_sample(ctx.workload, seed) for _ in range((2 if smoke else SETUP_SAMPLES) - 1)
    ]

    per_design = [statistics.median(o.seconds for o in tried) for tried in attempts]
    outcomes = [o for tried in attempts for o in tried]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_times),
        "design_s_p50": statistics.median(per_design),
        "design_s_max": max(per_design),
        "peak_rss_mb": rss_self,
        "solver_peak_rss_mb": rss_children,
        "netlist_bytes": sum(tried[0].netlist_bytes for tried in attempts),
    }
    details = {
        "passes": len(pass_times),
        "pass_s": pass_times,
        "attempts_per_design": [len(tried) for tried in attempts],
        "setup_samples_s": setups,
    }
    return metrics, outcomes, failures(outcomes, ctx.golden), details


def traced(ctx, seed):
    """One untraced and one traced pass; the per-layer metrics."""
    wall, first = run_pass(ctx)
    tracer = tracing.Tracer()
    tracer.install(ctx.modules)
    try:
        traced_wall, second = run_pass(ctx, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{ctx.workload}-{seed}.json"
    tracer.dump(trace_path)

    self_times, roots = tracer.self_times()
    replayed, mismatches = tracing.replay(ctx.modules["minismt"], tracer.scripts)
    calls = len(tracer.scripts)
    metrics = {
        "solver.spawn_ms": tracing.spawn_ms(ctx.modules["synthesis"], ctx.solver) * calls,
        "solver.calls": calls,
        **{name: seconds * 1000.0 for name, seconds in self_times.items()},
        **{name: tracer.counts[name] for name in COUNTS},
        "synthesis.query_bytes": tracer.counts["synthesis.query_bytes"],
        "semantics.eval_calls": tracer.eval_calls(),
        **replayed,
        "trace.wall_s": traced_wall,
        "trace.untimed_s": traced_wall - roots,
        "trace.overhead_s": traced_wall - wall,
    }
    failed = failures(first, ctx.golden) + failures(second, ctx.golden, mismatches)
    return metrics, first + second, failed, {
        "trace_file": str(trace_path.relative_to(ROOT)),
        "untraced_wall_s": wall,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two designs, one pass, two setup samples (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ctx = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.smoke:
            ctx.designs = ctx.designs[:2]
        spin_s = host_spin()
        if args.trace:
            metrics, outcomes, failed, details = traced(ctx, args.seed)
            units = PER_LAYER_UNITS
        else:
            metrics, outcomes, failed, details = untraced(
                ctx, args.seed, args.seconds, setup_s, args.smoke
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics.update({"host.spin_s": spin_s, "design_n": len(ctx.designs),
                    "fail_ratio": len(failed) / len(outcomes)})
    for design, reason in failed:
        print(f"perfbench: {design}: {reason}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "solver": [ctx.solver.path, *ctx.solver.args],
        "host.spin_s": spin_s,
        "design_n": len(ctx.designs),
        "designs": [d.name for d in ctx.designs],
        "fail_ratio": metrics["fail_ratio"],
        "failures": failed,
        **details,
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
