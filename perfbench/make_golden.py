"""Write golden.json: the verdict and netlist digest of every pool design.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Maps and verifies each design of each named workload's pool (all by
default; the entries of other workloads are kept), with the same path
and solver as run.py, in ROUNDS round-robin passes. A design is recorded
only when its verdict is the one known by construction (every design maps
except `sub4`, which a carry chain cannot implement), `techmap verify`
accepts its netlist, and every round printed the same netlist. Its median
time is recorded as `seconds`, which `workloads.select` uses to form
strata of similar cost. Rerun only when a change to the program is meant
to change netlists, and say so in that change.
"""

import json
import shutil
import statistics
import sys

import run
import workloads

INFEASIBLE = {"sub4"}  # a - b needs an inverted operand, which no pin can select
ROUNDS = 3  # round-robin, so that host-speed drift touches every design alike


def main(names):
    unknown = set(names) - set(workloads.POOLS)
    if unknown:
        sys.exit(f"unknown workloads: {sorted(unknown)}")
    modules = run.import_techmap()
    _, solver_args = run.pinned_solver(modules["cli"])
    workdir = run.OUT / "golden-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    golden = workloads.load_golden() if names else {}
    try:
        for workload, pool in workloads.POOLS.items():
            if names and workload not in names:
                continue
            designs = pool()
            workloads.write_designs(designs, workdir)
            rounds = [
                [workloads.run_design(modules["cli"], d, workdir, solver_args) for d in designs]
                for _ in range(ROUNDS)
            ]
            entries = golden[workload] = {}
            for design, outcomes in zip(designs, zip(*rounds)):
                verdict = 3 if design.name in INFEASIBLE else 0
                for outcome in outcomes:
                    if (outcome.map_rc, outcome.sha256) != (verdict, outcomes[0].sha256) or (
                        verdict == 0 and outcome.verify_rc != 0
                    ):
                        sys.exit(f"{workload}/{design.name}: {outcome}")
                entries[design.name] = {
                    "verdict": verdict,
                    "sha256": outcomes[0].sha256,
                    "solver_calls": outcomes[0].solver_calls,
                    "seconds": statistics.median(o.seconds for o in outcomes),
                }
                print(workload, design.name, [round(o.seconds, 3) for o in outcomes],
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
