"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at n=8 with a handful of queries, untraced and traced,
and checks that every metric BENCHMARK.json names is emitted with its unit
and that the correctness gates ran and passed. It also checks that the
benchmark refuses to report a result when the romkit sources are absent.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATES = {
    "offline_exit_0", "greedy_stops_on_tolerance", "checksummed_reload",
    "validate_exit_0", "validate_rigor_ok", "validate_rows",
    "validate_counts_agree", "validate_repeatable", "sweep_exit_0",
    "sweep_rows_equal_points", "sweep_finite", "sweep_matches_library",
    "certificate_finite",
    "online_exit_0", "online_skips_basis", "online_matches_library",
    "online_finite",
}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_gates(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in emitted.items()}
    for metric in emitted.values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])

    prefix = "perfbench: gate "
    ran = {line[len(prefix):].split(":")[0] for line in report
           if line.startswith(prefix)}
    assert GATES <= ran


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
