"""proxiq benchmark: end-to-end sweep timings and a traced per-layer split.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 40 --trace 0

Workloads, all on the logsum family with an l1 ball, so the same layers run
under a different mix each time:

* fig1: the reproduce-fig1 grid (n=64, N=128, 3 degrees x 3 noise bounds x
  5 repeats = 45 cells) at 300 steps a cell instead of the preset's 5000,
  run through `proxiq run` so the problem seed can follow --seed.  Per-call
  Python overhead and trace CSV writing dominate.
* wide: `proxiq run` at n=1024, N=2048 on 3 cells.  The 16 MiB rows matrix
  outgrows L2, so passes over it dominate.
* worst_case: `proxiq worst-case` on the fig1 grid with 4 noise directions
  per step.  It bypasses `oracle.evaluate` and `prox_gradient`, so noise and
  projection dominate and an oracle-wrapper change should show nothing.

The loop is closed: one repetition at a time, each a fresh child process
(perfbench/child.py) with BLAS pinned to one thread.  Repetitions run until
--seconds are used up and the timings are reported as medians; each
workload is sized so one repetition takes 1 to 1.5 s.  With --trace 1 the
run alternates untraced and traced repetitions and reports the per-layer
metrics; the traced bundle must be byte-identical to the untraced one.
--seed sets both the problem seed and the master seed.

The times are normalized to a steady machine speed.  A shared host runs
the same code up to 1.6 times slower at some moments than at others: it
switches between a fast and a slow state every few seconds, and the share
of time in each drifts over minutes, which no run length averages out.  So
each untraced repetition also times a fixed reference kernel just before
and just after the sweep (child.py): `interp`, a pure-Python loop and small
numpy calls, for the interpreter-bound fig1 and worst_case; `stream`,
passes over a 16 MiB matrix, for the memory-bound wide.  wall_s is scaled
by the workload's kernel and setup_s, mostly imports, by `interp`: each
repetition's t * REFERENCE_S[kernel] / kernel time, and the median of those
over the run, so they read as seconds on a machine where the kernel takes
REFERENCE_S; steps_per_s follows wall_s.  The kernels run no proxiq code,
so a change to the program moves these metrics as much as it moves the raw
times, which are printed too.

Every repetition's output is checked: exit code 0, a complete bundle, every
summary row `ok` and dominated, each trace's running minimum consistent and
below its bound, and one sha256 for every bundle of the run.  The last line
of standard output is the JSON result; the lines before it give each metric
with its unit, the bundle digest and the environment.

Per-layer spans wrap public functions from outside the program (see
child.py).  Per-step counts divide by cells x steps, so they include the
per-cell calls that compute F(x0).  harness.self_s is the self time of
run_experiment/run_worst_case and of the cell functions; cli.self_s that of
cli.main.  trace.unattributed_s is traced wall time not covered by any
layer's self time: mostly the wrappers' own cost.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

FIG1_GRID = {"degrees": [0.0, 0.5, 1.0], "noise_bounds": [0.1, 1.0, 3.0], "repeats": 5}

WORKLOADS = {
    "fig1": {"command": "run", "n": 64, "N": 128, "grid": FIG1_GRID,
             "iterations": 300, "directions": 0, "reference": "interp"},
    "wide": {"command": "run", "n": 1024, "N": 2048,
             "grid": {"degrees": [0.0, 0.5, 1.0], "noise_bounds": [1.0], "repeats": 1},
             "iterations": 150, "directions": 0, "reference": "stream"},
    "worst_case": {"command": "worst-case", "n": 64, "N": 128, "grid": FIG1_GRID,
                   "iterations": 250, "directions": 4, "reference": "interp"},
}
# seconds each reference kernel takes at the speed the times are scaled to:
# about its median on a 2-vCPU Xeon at 2.1 GHz
REFERENCE_S = {"interp": 0.1, "stream": 0.06}
TINY_ITERATIONS = {"fig1": 20, "wide": 5, "worst_case": 10}
RADIUS = 4.0

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 120.0
MIN_REPS = 3          # per kind (untraced, traced) before the clock may stop a run

PER_LAYER_UNITS = {
    "problems.value.calls_per_step": "count",
    "problems.value.us_per_call": "us",
    "problems.gradient.calls_per_step": "count",
    "problems.gradient.us_per_call": "us",
    "problems.rows_passes_per_step": "count",
    "problems.bytes_per_step": "bytes",
    "oracle.evaluate.calls_per_step": "count",
    "oracle.evaluate.self_us": "us",
    "oracle.noise.calls_per_step": "count",
    "oracle.noise.us_per_call": "us",
    "prox.apply.calls_per_step": "count",
    "prox.apply.us_per_call": "us",
    "prox.outside_ratio": "ratio",
    "prox.value.us_per_call": "us",
    "solver.self_us_per_step": "us",
    "rates.bound.us_per_call": "us",
    "harness.self_s": "s",
    "harness.cell_s.p50": "s",
    "harness.cell_s.max": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


class CheckFailed(Exception):
    """An output check failed."""


def workload_spec(name, seed, tiny):
    w = WORKLOADS[name]
    iterations = TINY_ITERATIONS[name] if tiny else w["iterations"]
    config = {
        "version": 1,
        "output_dir": "",  # filled per repetition
        "problem": {"family": "logsum", "n": w["n"], "N": w["N"], "radius": RADIUS,
                    "seed": seed},
        "oracle": {"degrees": w["grid"]["degrees"],
                   "noise_bounds": w["grid"]["noise_bounds"]},
        "solver": {"iterations": iterations, "step_scale": 0.5},
        "repeats": w["grid"]["repeats"],
        "master_seed": seed,
    }
    if w["directions"]:
        config["worst_case_directions"] = w["directions"]
    cells = (len(w["grid"]["degrees"]) * len(w["grid"]["noise_bounds"])
             * w["grid"]["repeats"])
    return {"command": w["command"], "n": w["n"], "N": w["N"], "radius": RADIUS,
            "seed": seed, "config": config, "iterations": iterations, "cells": cells,
            "prefix": "worst_" if w["directions"] else "",
            "wall_reference": w["reference"],
            "reference": sorted({"interp", w["reference"]})}


def child_env():
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(spec, rep_dir, trace):
    """Run one repetition in a fresh interpreter; return its measurements."""
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    bundle = rep_dir / "bundle"
    bundle.mkdir(parents=True)
    config = dict(spec["config"], output_dir=str(bundle))
    payload = dict(spec, config=config, bundle=str(bundle), src=str(SRC), trace=trace)
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(payload)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise CheckFailed(f"child exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["exit_code"] != 0:
        raise CheckFailed(f"proxiq exited with {result['exit_code']}")
    return result, bundle


def bundle_digest(bundle):
    """sha256 over every file's relative name and bytes; total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in bundle.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.relative_to(bundle).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest(), total


def check_trace(path, iterations, summary_row):
    """Rows k = 0..K-1, finite, running minimum consistent and under the bound."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != iterations:
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {iterations}")
    running = math.inf
    for k, row in enumerate(rows):
        values = {name: float(v) for name, v in row.items() if name != "k"}
        if int(row["k"]) != k or not all(math.isfinite(v) for v in values.values()):
            raise CheckFailed(f"{path.name}: bad row {k}")
        running = min(running, values["gm_sq"])
        if values["min_gm_sq"] != running or running > values["bound"]:
            raise CheckFailed(f"{path.name}: row {k} running minimum wrong or above bound")
    if rows[-1]["min_gm_sq"] != summary_row["final_min_gm_sq"]:
        raise CheckFailed(f"{path.name}: summary final_min_gm_sq disagrees with the trace")


def check_bundle(bundle, spec):
    """Validate one bundle; return (cells attempted, cells failed)."""
    prefix = spec["prefix"]
    with open(bundle / f"{prefix}summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    if len(summary) != spec["cells"]:
        raise CheckFailed(f"summary has {len(summary)} cells, expected {spec['cells']}")
    failed = 0
    for row in summary:
        if row["status"] != "ok" or row["dominated"] != "true":
            failed += 1
            continue
        name = (f"{prefix}trace_q{float(row['q']):g}_delta{float(row['delta']):g}"
                f"_rep{row['repeat']}.csv")
        check_trace(bundle / name, spec["iterations"], row)
    if not prefix and not (bundle / "bound_q_delta.csv").is_file():
        raise CheckFailed("bound_q_delta.csv is missing")
    return len(summary), failed


def layer_metrics(result, spec, untraced_wall_s):
    """Per-layer metrics of one traced repetition."""
    stats = result["stats"]
    steps = spec["cells"] * spec["iterations"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def per_call_us(name, index):  # index 1: total time, 2: self time
        entry = stats.get(name, [0, 0.0, 0.0])
        return entry[index] / entry[0] * 1e6 if entry[0] else 0.0

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    # value is one pass over the rows matrix, gradient two (A x, then A^T r)
    passes = (calls("problems.value") + 2 * calls("problems.gradient")) / steps
    cell_s = sorted(result["durations"].get("harness.cell", [0.0]))
    layer_self = sum(entry[2] for entry in stats.values())
    return {
        "problems.value.calls_per_step": calls("problems.value") / steps,
        "problems.value.us_per_call": per_call_us("problems.value", 1),
        "problems.gradient.calls_per_step": calls("problems.gradient") / steps,
        "problems.gradient.us_per_call": per_call_us("problems.gradient", 1),
        "problems.rows_passes_per_step": passes,
        "problems.bytes_per_step": passes * spec["N"] * spec["n"] * 8,
        "oracle.evaluate.calls_per_step": calls("oracle.evaluate") / steps,
        "oracle.evaluate.self_us": per_call_us("oracle.evaluate", 2),
        "oracle.noise.calls_per_step": calls("oracle.noise") / steps,
        "oracle.noise.us_per_call": per_call_us("oracle.noise", 1),
        "prox.apply.calls_per_step": calls("prox.apply") / steps,
        "prox.apply.us_per_call": per_call_us("prox.apply", 1),
        "prox.outside_ratio": (result["counters"].get("prox.sort_path", 0)
                               / max(calls("prox.apply"), 1)),
        "prox.value.us_per_call": per_call_us("prox.value", 1),
        "solver.self_us_per_step": self_s("solver.prox_gradient") / steps * 1e6,
        "rates.bound.us_per_call": per_call_us("rates.bound", 1),
        "harness.self_s": self_s("harness.sweep") + self_s("harness.cell"),
        "harness.cell_s.p50": statistics.median(cell_s),
        "harness.cell_s.max": cell_s[-1],
        "cli.self_s": self_s("cli.main"),
        "trace.overhead": result["wall_s"] / untraced_wall_s,
        "trace.unattributed_s": result["wall_s"] - layer_self,
    }


def read_first(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = read_first(git / "HEAD", "")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    return read_first(git / head[5:])


def environment():
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    numpy_version, blas, blas_version = (json.loads(out.stdout) if out.returncode == 0
                                         else ["unknown"] * 3)
    cpu = "unknown"
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read_first(index / "level"), read_first(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = read_first(index / "size")
    return {"python": platform.python_version(), "numpy": numpy_version,
            "blas": f"{blas} {blas_version}", "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "git_commit": git_commit()}


def measure(workload, seed, seconds, trace, tiny):
    spec = workload_spec(workload, seed, tiny)
    kinds = [False, True] if trace else [False]
    reps = {kind: [] for kind in kinds}
    digests = {kind: set() for kind in kinds}
    attempted = failed = 0
    problems = []
    # compile bytecode and warm the file cache before anything is timed
    subprocess.run([sys.executable, "-c", "import proxiq.cli"], cwd=ROOT, env=dict(
        child_env(), PYTHONPATH=str(SRC)), check=True, timeout=CHILD_TIMEOUT_S)
    start = time.perf_counter()
    rep_s = []
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        rep_start = time.perf_counter()
        try:
            result, bundle = run_child(spec, WORK / f"{workload}-{i}", kind)
            cells, bad = check_bundle(bundle, spec)
            digest, size = bundle_digest(bundle)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, csv.Error,
                subprocess.TimeoutExpired) as exc:
            problems.append(f"repetition {i}: {type(exc).__name__}: {exc}")
            attempted += spec["cells"]
            failed += spec["cells"]
            break
        finally:
            shutil.rmtree(WORK / f"{workload}-{i}", ignore_errors=True)
        attempted += cells
        failed += bad
        digests[kind].add(digest)
        result["output_bytes"] = size
        reps[kind].append(result)
        rep_s.append(time.perf_counter() - rep_start)
        i += 1
        elapsed = time.perf_counter() - start
        enough = all(len(r) >= MIN_REPS for r in reps.values())
        if enough and elapsed + statistics.median(rep_s) > seconds:
            break
    if len(digests[False]) > 1:
        problems.append(f"untraced bundle digests differ: {sorted(digests[False])}")
    if trace and digests[True] != digests[False]:
        problems.append(f"traced bundle digests {sorted(digests[True])} differ from the "
                        f"untraced {sorted(digests[False])}")
    if failed:
        problems.append(f"{failed} of {attempted} cells failed (not ok or not dominated)")
    return spec, reps, digests, attempted, failed, problems


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def scaled_median(rows, key, kernel):
    """Median of `key` scaled to the speed at which `kernel` takes REFERENCE_S."""
    return statistics.median(row[key] * REFERENCE_S[kernel] / row["reference_s"][kernel]
                             for row in rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="problem seed and master seed of the sweep")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few iterations per cell, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "proxiq" / "__init__.py").is_file():
        print(f"error: no proxiq sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec, reps, digests, attempted, failed, problems = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    untraced = reps[False]
    if not all(reps.values()):
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        return 1

    steps = spec["cells"] * spec["iterations"]
    raw_wall_s = median_of(untraced, "wall_s")
    if args.trace:
        per_rep = [layer_metrics(r, spec, raw_wall_s) for r in reps[True]]
        metrics = {name: (statistics.median(m[name] for m in per_rep), unit)
                   for name, unit in PER_LAYER_UNITS.items()}
        counted = len(per_rep)
    else:
        wall_s = scaled_median(untraced, "wall_s", spec["wall_reference"])
        metrics = {
            "setup_s": (scaled_median(untraced, "setup_s", "interp"), "s"),
            "wall_s": (wall_s, "s"),
            "steps_per_s": (steps / wall_s, "1/s"),
            "output_bytes": (float(median_of(untraced, "output_bytes")), "bytes"),
            "peak_rss_mb": (median_of(untraced, "peak_rss_kib") / 1024.0, "MiB"),
        }
        counted = len(untraced)

    walls = sorted(r["wall_s"] for r in untraced)
    print(f"workload {args.workload}: seed {args.seed}, {spec['cells']} cells x "
          f"{spec['iterations']} steps at n={spec['n']}, N={spec['N']}; "
          f"{counted} repetitions measured, medians reported")
    print(f"raw untraced wall_s over {len(walls)} repetitions: min {walls[0]:.6f} s, "
          f"median {raw_wall_s:.6f} s, max {walls[-1]:.6f} s; raw setup_s median "
          f"{median_of(untraced, 'setup_s'):.6f} s")
    for kernel in spec["reference"]:
        print(f"reference kernel {kernel}: median "
              f"{statistics.median(r['reference_s'][kernel] for r in untraced):.6f} s, "
              f"scaled to {REFERENCE_S[kernel]} s")
    for name, (value, unit) in metrics.items():
        note = " (computed from the pass count)" if name == "problems.bytes_per_step" else ""
        print(f"{name} = {value!r} {unit}{note}")
    print(f"fail_ratio = {failed / attempted!r} ratio ({failed} of {attempted} cells)")
    print(f"bundle sha256 = {', '.join(sorted(digests[False]))}")
    if args.trace:
        print("trace fidelity: traced bundles "
              + ("are byte-identical to" if digests[True] == digests[False] else "differ from")
              + " untraced ones")
    print("environment = " + json.dumps(environment(), sort_keys=True))
    for line in problems:
        print(f"check failed: {line}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
