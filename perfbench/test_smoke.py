"""Self-test of the benchmark: a short run of every workload, both modes.

    python3 -m pytest perfbench -q

Checks the result contract (keys, units, every named metric present) and
that a traced run's layer self times and untimed remainder add up to its
traced wall time. Takes about two minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def bench(root, *args):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]

    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(values[name] for name in tracing.SELF_TIME_METRICS) / 1000.0
        assert math.isclose(
            layers + values["trace.untimed_s"], values["trace.wall_s"], rel_tol=1e-6
        )
        assert values["trace.untimed_s"] >= 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = bench(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
