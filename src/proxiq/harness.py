"""Experiment driver: config parsing, grid sweeps, adversarial runs and
certificate checks.

Every output is reproducible from the config file alone.  Per-cell
randomness is seeded by the cell's own coordinates (degree, noise level,
repeat index), so editing the grid never reshuffles the randomness of
cells that were already there.  A sweep splits its grid into contiguous
chunks, one per CPU the process may use, or one per cell when the grid has
fewer than two cells per CPU and the rows matrix is large enough that an
idle CPU costs more than an extra process's step overhead (_chunks).  It
runs each chunk as one batch in its own forked process, the first in the
calling one: one prox_gradient call advances every cell of the chunk in
lockstep as one (C, n) state, each with its own oracle and generator, and
gives each cell bitwise the run it would have alone, so no byte depends on
the split.  Each process writes its chunk's traces; the calling one
collects every chunk's results and writes the summary and the bound curves
in grid order.  This module alone decides the bundle's format, and every
table goes through rates.write_csv: %.17g floats and forced newlines.
Numbers that several files share are formatted once per sweep, before any
worker forks, and handed to write_csv as text: the step counter k, the
same in every trace, and one table of bound curves, one per (q, delta),
each the same in the traces of its repeats and in the bound file.  Workers
inherit both through the fork and send back only their cells' results.  A
trace's min_gm_sq text is taken from its gm_sq text, as each new running
minimum is bitwise an entry of gm_sq.  A trace holds only what varies by
step; the step size alpha and the certificate's delta, fixed for a run,
are summary columns, and the summary's final_f is F(x_K).

The plain and the worst-case sweep share one body and one step kernel,
prox_gradient.  The worst case is an oracle that offers m candidate noise
draws per answer (worst_case_directions); the solver steps along the one
that moves the iterate farthest.  The config holds only run inputs: each
cell's oracle builds its certificate, and certify can only refute it.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import rates
from .oracle import NoisyGradientOracle, _positive, certify_oracle
from .problems import generate_logsum_instance, sample_l1_ball
from .prox import ProxFunction, project_l1_ball
from .solver import DivergenceError, RunTrace, ScheduleConfig, prox_gradient


class ConfigError(ValueError):
    """Bad experiment configuration."""


CONFIG_VERSION = 1


@dataclass(frozen=True)
class ProblemSpec:
    family: str = "logsum"
    n: int = 64
    N: int = 128
    radius: float = 4.0
    seed: int = 0


@dataclass(frozen=True)
class OracleSpec:
    """The grid's axes; each cell's oracle builds its certificate from its own two values."""

    degrees: Tuple[float, ...] = (0.0, 0.5, 1.0)
    noise_bounds: Tuple[float, ...] = (0.1, 1.0, 3.0)


@dataclass(frozen=True)
class SolverSpec:
    iterations: int = 5000
    step_scale: float = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    version: int
    output_dir: str
    problem: ProblemSpec = ProblemSpec()
    oracle: OracleSpec = OracleSpec()
    solver: SolverSpec = SolverSpec()
    repeats: int = 1
    master_seed: int = 0
    worst_case_directions: int = 0


def _reject_unknown(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")


def _integer(value, key):
    if type(value) is not int:  # JSON true is a bool, not a count
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _real(value, key):
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _reals(values, key):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers")
    return tuple(_real(value, key) for value in values)


def _text(value, key):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _section(spec, data, context):
    """data checked field by field into the spec dataclass; absent fields keep its defaults."""
    kinds = {field.name: field.type for field in fields(spec)}
    _reject_unknown(data, kinds, context)
    return spec(**{key: _CHECKS[kinds[key]](value, key) for key, value in data.items()})


# the check of a config value, keyed by its spec field's annotation string
_CHECKS = {
    "int": _integer,
    "float": _real,
    "str": _text,
    "Tuple[float, ...]": _reals,
    "ProblemSpec": lambda value, key: _section(ProblemSpec, value, key),
    "OracleSpec": lambda value, key: _section(OracleSpec, value, key),
    "SolverSpec": lambda value, key: _section(SolverSpec, value, key),
}


def _distinct_cells(values, key):
    """Reject grid values that would share a cell seed or a trace file name,
    or whose seed key, the value times 10^6, overflows."""
    if not all(math.isfinite(v * 1e6) for v in values):
        raise ConfigError(f"{key} values are too large to key a cell seed: {list(values)}")
    seeds = {round(v * 1e6) for v in values}
    names = {f"{v:g}" for v in values}
    if len(seeds) < len(values) or len(names) < len(values):
        raise ConfigError(f"{key} values must differ in cell seed and file name: {list(values)}")


def parse_config(data):
    """Validate a JSON-shaped mapping into an ExperimentConfig, strictly.

    Unknown keys anywhere are an error: silently ignoring a typo like
    'iteratons' would produce a run that looks fine and answers the wrong
    question.  For the same reason every value is checked against the type
    of its spec field: integer fields take JSON integers only, and real
    fields reject the NaN and Infinity that Python's json accepts, and no
    two grid values may key one cell seed or trace file name.  Absent
    fields take the spec dataclasses' defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if data.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    if not data.get("output_dir"):
        raise ConfigError("output_dir is required")
    config = _section(ExperimentConfig, data, "config")

    problem = config.problem
    if problem.family != "logsum":
        raise ConfigError(f"unsupported problem family {problem.family!r}")
    if problem.n < 1 or problem.N < 1 or problem.radius <= 0.0:
        raise ConfigError("problem dimensions and radius must be positive")
    if problem.seed < 0:
        raise ConfigError("problem.seed must be nonnegative")

    oracle = config.oracle
    if not oracle.degrees or not oracle.noise_bounds:
        raise ConfigError("degrees and noise_bounds must be nonempty")
    for q in oracle.degrees:
        if not 0.0 <= q <= 1.0:
            raise ConfigError("noisy-gradient degrees must lie in [0, 1]")
    for bound in oracle.noise_bounds:
        if bound < 0.0:
            raise ConfigError("noise_bounds must be nonnegative")
    _distinct_cells(oracle.degrees, "degrees")
    _distinct_cells(oracle.noise_bounds, "noise_bounds")

    solver = config.solver
    if solver.iterations < 1:
        raise ConfigError("iterations must be positive")
    if not 0.0 < solver.step_scale <= 1.0:
        raise ConfigError("step_scale must lie in (0, 1]")

    if config.repeats < 1:
        raise ConfigError("repeats must be positive")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    if config.worst_case_directions < 0:
        raise ConfigError("worst_case_directions must be nonnegative")
    return config


def load_config(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def fig1_config(output_dir, iterations=5000, repeats=5, master_seed=0):
    """The bundled benchmark preset, checked by parse_config: canonical instance, full grid."""
    return parse_config({"version": CONFIG_VERSION, "output_dir": str(output_dir),
                         "solver": {"iterations": iterations}, "repeats": repeats,
                         "master_seed": master_seed})


def cell_seed(master_seed, degree, noise_bound, repeat):
    """Content-addressed seed for one grid cell.

    Keyed by the cell's own coordinates (scaled to integers) rather than by
    its position in the grid, so inserting or removing sibling cells never
    changes the randomness of existing ones.
    """
    return np.random.SeedSequence([int(master_seed), int(round(float(degree) * 1e6)),
                                   int(round(float(noise_bound) * 1e6)), int(repeat)])


def plateau_estimate(values, fraction=0.1):
    """Mean of the trailing fraction of a series; the empirical noise floor."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values must be nonempty")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    tail = max(1, int(round(fraction * values.size)))
    return float(values[-tail:].mean())


@dataclass
class CellResult:
    """Outcome of one (degree, noise, repeat) cell.

    trace is the cell's RunTrace without its iterates, or None for a
    diverged cell; its objective holds F at x_0 .. x_K.  status is read off
    trace, "ok" or "diverged".  wall_time is the elapsed time of the batch
    the cell ran in, the same for every cell of that batch; a sweep runs
    one batch per chunk, each on its own clock.
    """

    degree: float
    noise_bound: float
    repeat: int
    seed_label: str
    f0: float
    bound: np.ndarray
    wall_time: float
    trace: Optional[RunTrace] = None

    @property
    def status(self):
        return "diverged" if self.trace is None else "ok"

    @property
    def plateau(self):
        return plateau_estimate(self.trace.min_gm_sq) if self.status == "ok" else float("nan")

    @property
    def bound_plateau(self):
        return plateau_estimate(self.bound)

    @property
    def dominated(self):
        if self.status != "ok":
            return False
        return bool(np.all(self.trace.min_gm_sq <= self.bound))

    @property
    def trace_filename(self):
        return f"trace_q{self.degree:g}_delta{self.noise_bound:g}_rep{self.repeat}.csv"


def _instance(config):
    spec = config.problem
    return generate_logsum_instance(spec.n, spec.N, spec.radius, seed=spec.seed)


def _cell_oracle(problem, degree, noise_bound, directions=1):
    """A grid cell's oracle; the l1 ball of radius R has diameter 2R."""
    return NoisyGradientOracle(problem, float(noise_bound), degree=float(degree),
                               diameter=2.0 * problem.radius, directions=directions)


def _bound_curves(problem, config, keys, f0):
    """The bound curve of each distinct (degree, noise bound) of keys, in
    first-seen order; it depends on neither the repeat nor the directions."""
    ks = np.arange(config.solver.iterations, dtype=float)
    return {(q, d): rates.bound_nonconvex_const(problem.lipschitz, float(q),
                                                _cell_oracle(problem, q, d).certificate.delta,
                                                f0 - problem.f_lower, ks)
            for q, d in dict.fromkeys(keys)}


def run_cells(problem, config, cells, directions=1):
    """Sweep cells as one batch: seeded runs plus their theoretical bound curves.

    cells lists (degree, noise bound, repeat) triples.  Every cell gets its
    own oracle, generator and schedule, and one prox_gradient call advances
    them all in lockstep from x0 = 0.  A cell's run is bitwise the same in
    any batch, alone included, and a diverged cell leaves its siblings
    untouched.  With directions = m > 1 each oracle offers m noise draws
    per step, one block of m directions and one of 2m uniforms, and the run
    follows the one that moves farthest.  m = 1 draws one vector as the
    plain run does, so it is the plain cell.  Repeats share their one bound
    curve, from _bound_curves as in the sweep's table.  Every CellResult
    carries the batch's wall time.  A sweep calls this once per chunk of its
    grid, each chunk in its own process.
    """
    h = ProxFunction.l1_ball(problem.radius)
    seeds = [cell_seed(config.master_seed, q, d, r) for q, d, r in cells]
    oracles = [_cell_oracle(problem, q, d, directions) for q, d, _ in cells]
    # exact cells get rho = 0 so the step is 1/L regardless of the degree
    schedules = [ScheduleConfig(rho=0.0 if d == 0.0 else problem.lipschitz,
                                max_iters=config.solver.iterations,
                                step_scale=config.solver.step_scale) for _, d, _ in cells]
    x0 = np.zeros(problem.dim)
    f0 = problem.value(x0)
    curves = _bound_curves(problem, config, ((q, d) for q, d, _ in cells), f0)
    start = time.perf_counter()
    runs = prox_gradient(problem.value, oracles, h, schedules, x0,
                         [np.random.default_rng(seed) for seed in seeds])
    wall_time = time.perf_counter() - start
    results = []
    for (q, d, r), seed, run in zip(cells, seeds, runs):
        results.append(CellResult(
            degree=float(q), noise_bound=float(d), repeat=r,
            seed_label="-".join(map(str, seed.entropy)), f0=f0, bound=curves[q, d],
            wall_time=wall_time, trace=None if isinstance(run, DivergenceError) else run))
    return results


def _write_bounds_csv(path, steps, curves):
    """The bound curves, one per (q, delta), since a curve does not depend
    on the repeat; steps is the text of k, and curves maps each (q, delta)
    to the text of its curve.  Each curve's q and delta are formatted once."""
    q, delta, ks, values = [], [], [], []
    for key, text in curves.items():
        degree, noise_bound = rates.format_numbers(key)
        q += [degree] * len(steps)
        delta += [noise_bound] * len(steps)
        ks += steps
        values += text
    rates.write_csv(path, ("q", "delta", "k", "bound"), (q, delta, ks, values))


def _write_summary_csv(path, cells):
    header = ("q", "delta", "repeat", "seed", "status", "f0", "final_f", "final_min_gm_sq",
              "plateau", "bound_plateau", "dominated", "alpha", "delta_k")
    rows = []
    for cell in cells:
        if cell.trace is None:
            final_f = final_min = alpha = delta = float("nan")
            dominated = ""
        else:
            final_f, final_min = cell.trace.objective[-1], cell.trace.min_gm_sq[-1]
            alpha, delta = cell.trace.alpha[0], cell.trace.delta
            dominated = str(cell.dominated).lower()
        rows.append((cell.degree, cell.noise_bound, cell.repeat, cell.seed_label, cell.status,
                     cell.f0, final_f, final_min, cell.plateau, cell.bound_plateau, dominated,
                     alpha, delta))
    rates.write_csv(path, header, list(zip(*rows)))


def _grid(config):
    return [(q, d, r) for q in config.oracle.degrees
            for d in config.oracle.noise_bounds
            for r in range(config.repeats)]


# Below this many bytes of the instance's rows matrix a sweep forks no more
# processes than CPUs: each extra process pays solver._lockstep's fixed step
# cost again.  On 3-cell grids at 2 CPUs, one process per cell against two
# chunks measured +20% wall time at 64 x 128 (64 KiB of rows), +11% at
# 256 x 512 (1 MiB), -9% at 512 x 1024 (4 MiB) and -13% at 1024 x 2048
# (16 MiB), medians of 11 pairs (BENCH_34.json).
_PER_CELL_ROWS_BYTES = 4 * 2 ** 20


def _cpus():
    """The CPUs this process may run on; 1 where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _chunks(count, cpus, rows_bytes):
    """Contiguous (start, stop) slices of a grid of count cells on cpus CPUs.

    A grid of fewer than two cells per CPU on a rows matrix of at least
    _PER_CELL_ROWS_BYTES gets one slice per cell, so the scheduler shares
    the CPUs among the cells instead of leaving one idle while another runs
    two (3 cells on 2 CPUs: 1.5 cells per CPU, not 2).  Every other grid
    gets one slice per CPU and at most one per cell: a small step costs
    about as much in lockstep overhead as in work, so an extra process
    costs more than the idle CPU.  One CPU gives one slice.
    """
    if count < 2 * cpus and rows_bytes >= _PER_CELL_ROWS_BYTES:
        parts = count
    else:
        parts = min(cpus, count)
    bounds = [count * i // parts for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


# a worker's first bytes on its pipe: its pid, before its pickled result
_PID_BYTES = 8


def _kill_and_reap(pid):
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _fork_worker(work, chunk, workers):
    """Fork a process that calls work() and pipes back its pid and then its
    pickled result, or the exception it raised; append (pid, the pipe's
    read end, chunk) to workers.

    From the moment it exists the worker is in workers, or killed and
    reaped.  os.fork can raise after the child exists, as Python 3.12's
    warning on a fork with threads does under an "error" filter; the pid,
    lost with it, comes off the pipe then.  With no child, as under EAGAIN,
    that read meets the end of the pipe at once.
    """
    read_fd, write_fd = os.pipe()
    # unbuffered, so that after the pid read() returns the payload without a second copy
    pipe = os.fdopen(read_fd, "rb", buffering=0)
    try:
        pid = os.fork()
    except BaseException:
        os.close(write_fd)
        with pipe:
            header = pipe.read(_PID_BYTES)
        if len(header) == _PID_BYTES:
            _kill_and_reap(int.from_bytes(header, "little"))
        raise
    if pid == 0:  # the worker: every path out of this block is os._exit
        status = 1
        try:
            pipe.close()
            os.write(write_fd, os.getpid().to_bytes(_PID_BYTES, "little"))
            try:
                payload = pickle.dumps((True, work(), ""), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:
                payload = _failure_payload(exc)
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            status = 0
        finally:
            os._exit(status)
    workers.append((pid, pipe, chunk))
    os.close(write_fd)


def _failure_payload(exc):
    """(False, exc, its traceback text) pickled, or (False, None, the text)
    when exc cannot cross the pipe."""
    text = traceback.format_exc()
    try:
        payload = pickle.dumps((False, exc, text), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)  # an exception may pickle and still not load
    except Exception:
        payload = pickle.dumps((False, None, text), pickle.HIGHEST_PROTOCOL)
    return payload


def _worker_result(payload, status, chunk):
    """The result a worker for cells chunk = (start, stop) piped back, or its
    exception raised again; RuntimeError if it died or cut its payload short."""
    where = f"sweep worker for cells {chunk[0]}..{chunk[1] - 1}"
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise RuntimeError(f"{where} was killed by {signal.Signals(-code).name}")
    if code != 0:
        raise RuntimeError(f"{where} exited with status {code}")
    try:
        ok, value, text = pickle.loads(payload)
    except Exception as exc:
        raise RuntimeError(f"{where} sent a truncated result ({len(payload)} bytes)") from exc
    if ok:
        return value
    remote = RuntimeError(f"{where} raised:\n{text}")
    if value is None:
        raise remote
    raise value from remote


def _sweep(config, directions, prefix, write_bounds):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem, grid = _instance(config), _grid(config)
    # text that several files share, formatted once before any worker forks:
    # the step counter and the (q, delta) bound curves
    steps = rates.format_numbers(range(config.solver.iterations))
    f0 = problem.value(np.zeros(problem.dim))
    curves = {key: rates.format_numbers(curve) for key, curve
              in _bound_curves(problem, config, ((q, d) for q, d, _ in grid), f0).items()}

    def run_chunk(start, stop):
        results = run_cells(problem, config, grid[start:stop], directions)
        for cell in results:
            trace = cell.trace
            if trace is not None:
                gm_sq = rates.format_numbers(trace.gm_sq)
                rates.write_csv(out / (prefix + cell.trace_filename),
                                ("k", "f", "gm_sq", "min_gm_sq", "bound"),
                                (steps, trace.objective[:-1], gm_sq,
                                 rates.running_min_text(trace.gm_sq, gm_sq),
                                 curves[cell.degree, cell.noise_bound]))
        return results

    first, *rest = _chunks(len(grid), _cpus(), problem.rows.nbytes)
    workers = []  # (pid, pipe, chunk) of every worker not yet reaped, in grid order
    try:
        for chunk in rest:
            _fork_worker(partial(run_chunk, *chunk), chunk, workers)
        results = run_chunk(*first)
        while workers:
            pid, pipe, chunk = workers[0]
            with pipe:
                pipe.read(_PID_BYTES)  # the pid, known here
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            results += _worker_result(payload, status, chunk)
    finally:  # on any failure, no worker outlives the sweep
        for pid, pipe, _ in workers:
            pipe.close()
            _kill_and_reap(pid)
    if write_bounds:
        _write_bounds_csv(out / "bound_q_delta.csv", steps, curves)
    _write_summary_csv(out / (prefix + "summary.csv"), results)
    return results


def run_experiment(config):
    """Run the full (degree, noise, repeat) grid and write the result bundle.

    Writes one trace CSV per successful cell, the bound curves, and a
    summary with each cell's plateau, domination flag, step size and
    delta.  A diverged cell is reported in the summary and skipped in the
    trace output; its siblings are unaffected.  The grid runs as one batch
    per chunk, each chunk after the first in a forked worker: one chunk per
    CPU, or one per cell for a grid of fewer than two cells per CPU on a
    large rows matrix (_chunks); the bytes do not depend on the split.  A
    worker's exception is raised again here, and a worker that dies is a
    RuntimeError; no worker outlives the call.  Returns the CellResults in
    grid order.
    """
    return _sweep(config, 1, "", write_bounds=True)


def run_worst_case(config):
    """Adversarial counterpart of run_experiment; outputs carry a worst_ prefix.

    Each step follows the farthest-moving of worst_case_directions noise
    draws.  The bound curves are the plain run's and are not written again.
    """
    if config.worst_case_directions < 1:
        raise ConfigError("worst_case_directions must be at least 1 for a worst-case run")
    return _sweep(config, config.worst_case_directions, "worst_", write_bounds=False)


def ball_pair_sampler(radius, dim):
    """Pairs in the l1 ball mixing global and near-collocated scales.

    Half the pairs are independent uniform draws; the other half place x a
    log-uniform distance from y, because certificate violations with a
    small claimed delta only show up at short range where the quadratic
    term cannot mask them.
    """
    _positive(radius=radius)
    log_lo, log_hi = -4.0, float(np.log10(2.0 * radius))

    def sample(rng):
        y = sample_l1_ball(rng, dim, radius)
        if rng.random() < 0.5:
            x = sample_l1_ball(rng, dim, radius)
        else:
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            r = 10.0 ** rng.uniform(log_lo, log_hi)
            x = project_l1_ball(y + r * direction, radius)
        return x, y

    return sample


def certify_command(config, pairs=1000, tolerance=1e-7):
    """Check every grid cell's oracle certificate on sampled pairs.

    Writes certification.txt into the output directory, one line per
    (degree, noise) cell plus a verdict line.  Returns True when every cell
    certified.  Each cell's oracle offers max(1, worst_case_directions)
    candidates, as in the worst-case run, and every one is audited against
    the certificate that oracle built, which a sample can only refute.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = _instance(config)
    sampler = ball_pair_sampler(problem.radius, problem.dim)
    lines = []
    all_ok = True
    for degree in config.oracle.degrees:
        for noise_bound in config.oracle.noise_bounds:
            oracle = _cell_oracle(problem, degree, noise_bound,
                                  max(1, config.worst_case_directions))
            rng = np.random.default_rng(cell_seed(config.master_seed, degree,
                                                  noise_bound, 7878787))
            report = certify_oracle(oracle, problem.value, sampler, pairs=pairs,
                                    tolerance=tolerance, rng=rng)
            all_ok = all_ok and report.certified
            lines.append(f"q={degree:g} delta={noise_bound:g} {report.summary()}")
            if not report.certified:
                x_bad, y_bad = report.worst_pair
                lines.append(f"  worst pair: x={np.array2string(x_bad, precision=6)}"
                             f" y={np.array2string(y_bad, precision=6)}")
    lines.append("all certified" if all_ok else "REFUTED")
    with open(out / "certification.txt", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return all_ok
