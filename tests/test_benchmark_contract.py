"""The benchmark's own output check, run on a copy of the benchmark and the package.

perfbench/run.py validates every bundle it times (the trace columns, the
running minimum against the bound, the summary's last row), so an output
format change that the benchmark cannot read fails here rather than only
when the benchmark runs.  The traced run wraps the package's layer
functions in spans and must write the untraced bundle byte for byte, so a
change to a function the tracer wraps fails here too; the traced fig1 and
worst_case runs pin that for both sweeps.  Each run works in a
temporary copy, so the checkout stays clean.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [
    pytest.param("fig1", 0, id="fig1"),
    pytest.param("fig1", 1, id="fig1-traced"),
    pytest.param("wide", 0, id="wide"),
    pytest.param("worst_case", 0, id="worst_case"),
    pytest.param("worst_case", 1, id="worst_case-traced"),
])
def test_benchmark_accepts_the_bundles(workload, trace, tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0, out
