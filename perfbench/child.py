"""One benchmark repetition, run in a fresh interpreter by run.py.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON names the workload's proxiq arguments, the bundle directory and
whether to trace.  The child times set-up (`import proxiq` plus building
the instance and its Lipschitz constant), writes the config, optionally
wraps the public layer functions in spans, times the `proxiq.cli.main`
call, and prints one JSON line with what it measured.  It checks no
outputs: run.py does that, outside the timed region.

An untraced child also times the reference kernels the spec names, once
just before and once just after the timed call, and reports the mean of
the two.  They run fixed work that depends on nothing in proxiq, so their
times gauge how fast the machine is running around the call; run.py
divides by them (see its docstring).

Nothing here imports numpy before the set-up clock starts, because that
import is part of what a user pays for `import proxiq`.
"""

import functools
import json
import resource
import sys
import time
from pathlib import Path


class Tracer:
    """Aggregating span recorder.

    Each wrapped call is a span; a span's self time is its duration minus
    the time its child spans cover.  The wrapper's own bookkeeping is
    charged to the parent as child time and summed in `bookkeeping_s`, so
    it does not inflate any layer's self time.  Spans are aggregated per
    name as they close: [calls, total seconds, self seconds].
    """

    def __init__(self):
        self.stats = {}
        self.durations = {}
        self.counters = {}
        self.bookkeeping_s = 0.0
        self._stack = [0.0]

    def wrap(self, name, fn, after=None, keep_durations=False):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.setdefault(name, []) if keep_durations else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            t1 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = clock()
                duration = t2 - t1
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - stack.pop()
                if durations is not None:
                    durations.append(duration)
                if after is not None:
                    after(args)
                t3 = clock()
                stack[-1] += t3 - t0
                self.bookkeeping_s += (t3 - t0) - duration

        return wrapper

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount


def _replace_everywhere(original, replacement):
    """Rebind every proxiq module global that refers to `original`.

    The package binds names with `from .x import y`, so a function is looked
    up in several module namespaces; each one is replaced.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "proxiq" or name.startswith("proxiq.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install_tracer(proxiq, np):
    """Wrap the public layer functions of proxiq; return the Tracer.

    A function the package no longer has is skipped, so its layer reads as
    zero calls instead of failing the run.
    """
    tracer = Tracer()

    def count_sort_path(args):
        h, _gamma, x = args[:3]
        if h.kind == "l1_ball" and float(np.abs(np.asarray(x, dtype=float)).sum()) > h.radius:
            tracer.count("prox.sort_path")

    methods = [
        (proxiq.problems.LogSumProblem, "value", "problems.value"),
        (proxiq.problems.LogSumProblem, "gradient", "problems.gradient"),
        (proxiq.oracle.NoisyGradientOracle, "evaluate", "oracle.evaluate"),
        (proxiq.prox.ProxFunction, "value", "prox.value"),
    ]
    for cls, attr, span in methods:
        if hasattr(cls, attr):
            setattr(cls, attr, tracer.wrap(span, getattr(cls, attr)))

    functions = [
        (proxiq.oracle, "bounded_noise", "oracle.noise", {}),
        (proxiq.prox, "prox_apply", "prox.apply", {"after": count_sort_path}),
        (proxiq.solver, "prox_gradient", "solver.prox_gradient", {}),
        (proxiq.rates, "bound_nonconvex_const", "rates.bound", {}),
        (proxiq.problems, "generate_logsum_instance", "problems.generate", {}),
        (proxiq.harness, "run_experiment", "harness.sweep", {}),
        (proxiq.harness, "run_worst_case", "harness.sweep", {}),
        (proxiq.harness, "run_cell", "harness.cell", {"keep_durations": True}),
        (proxiq.harness, "run_worst_case_cell", "harness.cell", {"keep_durations": True}),
    ]
    for module, attr, span, options in functions:
        if hasattr(module, attr):
            fn = getattr(module, attr)
            _replace_everywhere(fn, tracer.wrap(span, fn, **options))
    return tracer


def interp_kernel(np):
    """Interpreter-bound reference: a pure-Python loop and small numpy calls."""
    rng = np.random.default_rng(0)
    a, x = rng.standard_normal((128, 64)), rng.standard_normal(64)
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    acc = 0.0
    for _ in range(9_000):
        acc += float(np.abs(a @ x).sum())
    return time.perf_counter() - start


def stream_kernel(np):
    """Memory-bound reference: passes over a 16 MiB matrix, as in A x and A^T r."""
    b = np.random.default_rng(0).standard_normal((2048, 1024))
    v = np.ones(1024)
    start = time.perf_counter()
    for _ in range(40):
        v = b.T @ (b @ v) / 1e4
    return time.perf_counter() - start


REFERENCE_KERNELS = {"interp": interp_kernel, "stream": stream_kernel}


def main(spec):
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy as np
    import proxiq
    import proxiq.cli
    problem = proxiq.generate_logsum_instance(spec["n"], spec["N"], spec["radius"], None,
                                              spec["seed"])
    problem.lipschitz
    setup_s = time.perf_counter() - start
    if Path(proxiq.__file__).resolve().parent != (src / "proxiq").resolve():
        raise SystemExit(f"imported proxiq from {proxiq.__file__}, not from {src}")

    bundle = Path(spec["bundle"])
    config_path = bundle.parent / "config.json"
    config_path.write_text(json.dumps(spec["config"], indent=2) + "\n")

    tracer = install_tracer(proxiq, np) if spec["trace"] else None
    kernels = [] if tracer is not None else spec["reference"]
    # the stream kernel's matrix is freed before the call, which builds a rows
    # matrix of the same size, so the kernel does not set peak_rss_kib
    before = {name: REFERENCE_KERNELS[name](np) for name in kernels}
    entry = proxiq.cli.main if tracer is None else tracer.wrap("cli.main", proxiq.cli.main)
    start = time.perf_counter()
    exit_code = entry([spec["command"], str(config_path)])
    wall_s = time.perf_counter() - start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference_s = {name: (before[name] + REFERENCE_KERNELS[name](np)) / 2
                   for name in kernels}

    result = {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_kib": peak_rss_kib,
        "reference_s": reference_s,
    }
    if tracer is not None:
        result.update(stats=tracer.stats, durations=tracer.durations,
                      counters=tracer.counters, bookkeeping_s=tracer.bookkeeping_s)
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
