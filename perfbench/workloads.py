"""Benchmark workloads: design pools, seeded selection, and one design's run.

Every design a workload can select is in a fixed pool whose golden verdict
and netlist digest are stored in `golden.json`, so a run on any seed checks
every netlist against a known answer. The seed picks designs of the pool
(see `select`) and shuffles the order: the inputs change with the seed, but
each run keeps the same mix of easy and hard designs, so run-to-run spread
measures the program and the host rather than the draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Acceptance criterion 3 draws its 32 LUT4 tables from this seed; the
# pools below extend the same stream.
POOL_SEED = 2024
EXHAUSTIVE_VERIFY_BITS = 16  # emit.check_equivalence's exhaustive limit


@dataclass(frozen=True)
class Design:
    name: str
    verilog: str
    input_bits: int
    map_args: tuple  # template and backend arguments to `techmap map`


@dataclass(frozen=True)
class Outcome:
    """One design taken from its file to a verified netlist (or a verdict)."""

    design: str
    seconds: float
    map_rc: int
    verify_rc: int | None
    sha256: str | None
    netlist_bytes: int
    solver_calls: int
    message: str


# brute_eval: pinned enumeration tries INIT = 0, 1, ... up to the table, so
# a table's cost is its value. Every pool table is BRUTE_BASE plus random
# low bits: the seed picks which tables a run maps, and each costs the same.
# A design's time is then a sample of one cost, so the median over a run's
# tables pools all of their attempts.
BRUTE_BASE = 0x4800
BRUTE_LOW_BITS = 8
BRUTE_POOL = 64
BRUTE_TABLES = 8


def pool_tables(count):
    rng = random.Random(POOL_SEED)
    return [rng.getrandbits(16) for _ in range(count)]


def brute_tables():
    rng = random.Random(POOL_SEED)
    return [BRUTE_BASE | low for low in rng.sample(range(1 << BRUTE_LOW_BITS), BRUTE_POOL)]


def lut4_verilog(name, table):
    return (
        f"module {name} (input i0, input i1, input i2, input i3, output y);\n"
        f"  wire [15:0] tt;\n"
        f"  assign tt = 16'h{table:04X};\n"
        f"  assign y = tt[{{i3, i2, i1, i0}}];\n"
        f"endmodule\n"
    )


def adder_verilog(n):
    return (
        f"module adder{n} (input [{n - 1}:0] a, input [{n - 1}:0] b, input cin,"
        f" output [{n - 1}:0] s, output cout);\n"
        f"  wire [{n}:0] total;\n"
        f"  assign total = a + b + cin;\n"
        f"  assign s = total[{n - 1}:0];\n"
        f"  assign cout = total[{n}];\n"
        f"endmodule\n"
    )


SUB4 = (
    "module sub4 (input [3:0] a, input [3:0] b, output [3:0] d);\n"
    "  assign d = a - b;\n"
    "endmodule\n"
)

MUL8 = (
    "module mul8 (input [7:0] a, input [7:0] b, output [15:0] p);\n"
    "  assign p = a * b;\n"
    "endmodule\n"
)

CEGIS_LUT = ("--template", "lut_single", "--backend", "cegis")
BRUTE_LUT = ("--template", "lut_single", "--backend", "brute", "--pin-mode", "pinned")
CEGIS_CARRY = ("--template", "carry_chain", "--backend", "cegis")


def _lut4(name, table, map_args):
    return Design(name, lut4_verilog(name, table), 4, map_args)


def lut4_cegis_pool():
    return [_lut4(f"t4_{k:02d}", table, CEGIS_LUT) for k, table in enumerate(pool_tables(32))]


def carry_cegis_pool():
    # No adder16: at about 8 s a design, a run could time it only once or twice.
    adders = [Design(f"adder{n}", adder_verilog(n), 2 * n + 1, CEGIS_CARRY) for n in (4, 8, 12)]
    return adders + [Design("sub4", SUB4, 8, CEGIS_CARRY)]


def brute_eval_pool():
    tables = [_lut4(f"b4_{k:02d}", table, BRUTE_LUT) for k, table in enumerate(brute_tables())]
    return tables + [Design("mul8", MUL8, 16, ("--template", "multiplier", "--backend", "brute"))]


def _stratified(rng, designs, key, strata):
    """One design from each of `strata` equal slices of `designs` sorted by key."""
    ordered = sorted(designs, key=lambda d: (key(d), d.name))
    size, extra = divmod(len(ordered), strata)
    if extra:
        raise ValueError(f"{len(ordered)} designs do not split into {strata} strata")
    return [rng.choice(ordered[i * size:(i + 1) * size]) for i in range(strata)]


def select(workload, seed, golden):
    """The designs one run of `workload` maps, in order, for `seed`."""
    rng = random.Random(seed)
    if workload == "lut4_cegis":
        # Strata by the time each table took when golden.json was made: how
        # hard a table is for CEGIS shows in no simpler property of it.
        cost = {name: entry["seconds"] for name, entry in golden.items()}
        chosen = _stratified(rng, lut4_cegis_pool(), lambda d: cost[d.name], 8)
    elif workload == "carry_cegis":
        chosen = carry_cegis_pool()
    elif workload == "brute_eval":
        pool = brute_eval_pool()
        chosen = rng.sample(pool[:-1], BRUTE_TABLES) + pool[-1:]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(chosen)
    return chosen


POOLS = {
    "lut4_cegis": lut4_cegis_pool,
    "carry_cegis": carry_cegis_pool,
    "brute_eval": brute_eval_pool,
}


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_designs(designs, workdir):
    for design in designs:
        (workdir / f"{design.name}.v").write_text(design.verilog, encoding="utf-8")


def run_design(cli, design, workdir, solver_args):
    """Map one design file through `techmap map`, then `techmap verify` it.

    `cli` is the imported `techmap.cli`; its `main` is looked up on every
    call so that a traced run sees the wrapped entry point.
    """
    source = str(workdir / f"{design.name}.v")
    netlist = workdir / f"{design.name}.out.v"
    map_argv = ["map", "--design", source, *design.map_args]
    if "cegis" in design.map_args:
        map_argv += solver_args
    map_argv += ["-o", str(netlist)]
    verify_argv = ["verify", "--design", source, "--netlist", str(netlist)]
    if design.input_bits > EXHAUSTIVE_VERIFY_BITS:
        verify_argv += ["--mode", "solver", *solver_args]

    captured = io.StringIO()
    verify_rc = None
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        map_rc = cli.main(map_argv)
        if map_rc == 0:
            verify_rc = cli.main(verify_argv)
    seconds = time.perf_counter() - started

    digest, size, calls = None, 0, 0
    if map_rc == 0:
        data = netlist.read_bytes()
        digest, size = hashlib.sha256(data).hexdigest(), len(data)
        report = workdir / f"{design.name}.out.report.json"
        calls = json.loads(report.read_text(encoding="utf-8"))["stats"]["solver_calls"]
        netlist.unlink()
        report.unlink()
    return Outcome(
        design.name, seconds, map_rc, verify_rc, digest, size, calls, captured.getvalue()
    )


def check(outcome, golden):
    """Why the outcome differs from the golden verdict and netlist, or None."""
    want = golden.get(outcome.design)
    if want is None:
        return "no golden entry"
    if outcome.map_rc != want["verdict"]:
        return f"map exited {outcome.map_rc}, expected {want['verdict']}"
    if outcome.map_rc == 0 and outcome.verify_rc != 0:
        return f"verify exited {outcome.verify_rc}"
    if outcome.sha256 != want["sha256"]:
        return f"netlist sha256 {outcome.sha256} differs from golden {want['sha256']}"
    return None
