"""Smoke test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that every name is well formed, that the per-step counts of the traced
run repeat exactly, and that the benchmark refuses to run without the
program's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def assert_declared(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_declared(workload):
    assert_declared(result(workload, 0), DECLARED["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert_declared(first, DECLARED["per_layer"])
    counts = [name for name in first
              if name.endswith(".calls_per_step") or name == "problems.rows_passes_per_step"]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
