"""Command-line front end: import, map, verify, simulate.

Exit codes are part of the contract so scripts can tell outcomes apart:
0 success, 1 user error (bad input, unsupported construct, limits),
2 internal or solver failure, 3 no mapping exists / netlist inequivalent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

from . import emit, ir, library, semantics, synthesis, templates, verilog
from .errors import (
    BudgetExceeded,
    Infeasible,
    LimitExceeded,
    NoCompatiblePrimitive,
    ParseError,
    SignatureMismatch,
    SolverError,
    TechmapError,
)
from .templates import TemplateKind, TemplateOptions

SOLVER_ENV_VAR = "TECHMAP_SOLVER"

# Default argument lists for solvers we know how to talk to; anything else
# is invoked bare and must read SMT-LIB v2 from stdin.
KNOWN_SOLVER_ARGS = {
    "z3": ("-in", "-smt2"),
    "cvc5": ("--lang", "smt2"),
    "cvc4": ("--lang", "smt2"),
}


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def resolve_solver(path=None, args=None):
    """Pick a solver: explicit flag, TECHMAP_SOLVER, a known solver on
    PATH, then the bundled techmap-smt fallback."""
    if path is None:
        path = os.environ.get(SOLVER_ENV_VAR) or None
    if path is None:
        for name in ("z3", "cvc5"):
            found = shutil.which(name)
            if found:
                path = found
                break
    if path is None:
        return synthesis.BUNDLED_SOLVER
    if args is None:
        args = KNOWN_SOLVER_ARGS.get(Path(path).name, ())
    return synthesis.SolverConfig(path, tuple(args))


def load_design(path):
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".json"):
        obj = ir.from_json(text)
        if not isinstance(obj, ir.Design) or obj.params:
            raise TechmapError(f"{path} does not contain a design")
        return obj
    ast = verilog.parse(text, filename=str(path))
    return verilog.elaborate(ast).bind({})


def load_library_arg(path):
    if path is None:
        return library.default_library()
    return library.load_library(path)


def _report_path(out_path):
    base, ext = os.path.splitext(str(out_path))
    return (base if ext else str(out_path)) + ".report.json"


def cmd_import(args):
    source = Path(args.model).read_text(encoding="utf-8")
    primitive = verilog.import_primitive(source, filename=str(args.model))
    if args.name is not None:
        primitive = dataclasses.replace(primitive, name=args.name)
    try:
        text = ir.to_json(primitive)
    except RecursionError:
        raise ParseError("expression nested too deeply", str(args.model)) from None
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def _solve(problem, args):
    if args.backend == "brute":
        return synthesis.solve_brute_force(problem)
    solver = resolve_solver(args.solver, tuple(args.solver_arg) if args.solver_arg else None)
    return synthesis.solve_cegis(
        problem, solver, max_iters=args.max_iters, seed=args.seed
    )


def cmd_map(args):
    design = load_design(args.design)
    verilog.check_identifiers(design, str(args.design))
    lib = load_library_arg(args.library)
    kinds = []
    for chunk in args.template:
        for name in chunk.split(","):
            try:
                kinds.append(TemplateKind(name.strip()))
            except ValueError:
                raise _UsageError(f"unknown template kind '{name.strip()}'")
    options = TemplateOptions(pin_mode=args.pin_mode)

    failures = []
    for kind in kinds:
        try:
            sketch = templates.instantiate(kind, design, lib, options)
            problem = synthesis.problem_from_sketch(design, sketch, lib)
            solution = _solve(problem, args)
        except (NoCompatiblePrimitive, SignatureMismatch, Infeasible,
                BudgetExceeded, LimitExceeded) as exc:
            failures.append((kind.value, exc))
            continue
        netlist = emit.resolve(sketch, solution)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit.print_verilog(netlist))
        report = {
            "template": kind.value,
            "backend": solution.backend,
            "holes": {name: value for name, value in sorted(solution.assignment.items())},
            "stats": {
                "iterations": solution.stats.iterations,
                "solver_calls": solution.stats.solver_calls,
            },
        }
        with open(_report_path(args.output), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
        print(
            f"mapped '{design.name}' with {kind.value} ({solution.backend}, "
            f"{solution.stats.wall_ms:.0f} ms)",
            file=sys.stderr,
        )
        return 0
    for kind, exc in failures:
        print(f"{kind}: {exc}", file=sys.stderr)
    print("no template produced a mapping", file=sys.stderr)
    return 3


def cmd_verify(args):
    design = load_design(args.design)
    lib = load_library_arg(args.library)
    netlist = Path(args.netlist).read_text(encoding="utf-8")
    solver = None
    if args.mode == "solver":
        solver = resolve_solver(args.solver, tuple(args.solver_arg) if args.solver_arg else None)
    report = emit.check_equivalence(design, netlist, lib, mode=args.mode, solver=solver)
    if report.equivalent:
        print("equivalent")
        return 0
    cex = " ".join(
        f"{name}=0x{report.counterexample[name]:X}" for name, _ in design.inputs
    )
    print(f"counterexample: {cex}")
    return 3


def cmd_simulate(args):
    design = load_design(args.design)
    widths = design.input_widths
    env = {}
    for item in args.inputs.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, raw = item.partition("=")
        name = name.strip()
        if name not in widths:
            raise TechmapError(f"design has no input '{name}'")
        try:
            value = int(raw.strip(), 0)
        except ValueError:
            raise TechmapError(f"bad value for '{name}': {raw.strip()!r}")
        if not 0 <= value < (1 << widths[name]):
            raise TechmapError(f"value {raw.strip()} does not fit input '{name}' ({widths[name]} bits)")
        env[name] = value
    missing = [n for n, _ in design.inputs if n not in env]
    if missing:
        raise TechmapError(f"missing input value(s): {', '.join(missing)}")
    values = semantics.eval_design(design, env)
    print(" ".join(f"{name}=0x{values[name]:X}" for name, _ in design.outputs))
    return 0


def build_parser():
    parser = _ArgumentParser(prog="techmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", help="extract a primitive's semantics from a Verilog model")
    p.add_argument("model", help="Verilog source in the supported combinational subset")
    p.add_argument("--name", help="store the primitive under this name (default: module name)")
    p.add_argument("-o", "--output", required=True, help="semantics JSON to write")
    p.set_defaults(fn=cmd_import)

    p = sub.add_parser("map", help="configure primitives to implement a design")
    p.add_argument("--design", required=True, help="design as .json or combinational .v")
    p.add_argument("--library", help="library directory (default: bundled library)")
    p.add_argument("--template", action="append", required=True,
                   help="template kind(s), comma separated; tried in order")
    p.add_argument("--backend", choices=("brute", "cegis"), default="brute")
    p.add_argument("--solver", help=f"SMT solver executable (default: ${SOLVER_ENV_VAR}, "
                                    "then z3/cvc5 on PATH, then bundled techmap-smt)")
    p.add_argument("--solver-arg", action="append", default=[],
                   help="argument passed to the solver (repeatable)")
    p.add_argument("--seed", type=int, default=0, help="seed for the cegis example generator")
    p.add_argument("--max-iters", type=int, default=64, help="cegis refinement budget")
    p.add_argument("--pin-mode", choices=("holes", "pinned"), default="holes",
                   help="leave pin bindings to the solver, or bind positionally")
    p.add_argument("-o", "--output", required=True, help="netlist .v to write")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("verify", help="check a netlist against a design")
    p.add_argument("--design", required=True)
    p.add_argument("--netlist", required=True)
    p.add_argument("--library", help="library directory (default: bundled library)")
    p.add_argument("--mode", choices=("exhaustive", "solver"), default="exhaustive")
    p.add_argument("--solver")
    p.add_argument("--solver-arg", action="append", default=[])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="evaluate a design on concrete inputs")
    p.add_argument("--design", required=True)
    p.add_argument("--inputs", required=True, help="comma-separated name=value (0x.. or decimal)")
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except TechmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
