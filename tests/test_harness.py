"""Experiment driver tests: strict config parsing, content-addressed
seeding, grid sweeps and their output files, adversarial reruns,
certificate checks, curve export, and the CLI exit codes."""

import contextlib
import copy
import errno
import json
import os
import signal
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxiq import ProxFunction, ScheduleConfig, cli, harness, prox_gradient, rates
from proxiq.harness import ConfigError
from proxiq.oracle import NoisyGradientOracle, sq_norm
from proxiq.problems import generate_logsum_instance
from proxiq.prox import project_l1_rows

# Small grid that finishes in milliseconds but still exercises exact and
# noisy cells at two degrees with two repeats.
BASE_GRID = {
    "version": 1,
    "problem": {"n": 8, "N": 12, "radius": 2.0, "seed": 3},
    "oracle": {"degrees": [0.0, 1.0], "noise_bounds": [0.0, 0.5]},
    "solver": {"iterations": 60},
    "repeats": 2,
    "master_seed": 5,
}


def make_config(out_dir, **overrides):
    data = copy.deepcopy(BASE_GRID)  # tests tweak nested sections in place
    data["output_dir"] = str(out_dir)
    data.update(overrides)
    return data


def write_config(path, data):
    path.write_text(json.dumps(data))
    return path


@pytest.fixture(scope="module")
def small_problem():
    return generate_logsum_instance(8, 12, 2.0, None, 3)


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    config = harness.parse_config(make_config(out))
    results = harness.run_experiment(config)
    return config, results, out


def test_parse_config_defaults():
    config = harness.parse_config({"version": 1, "output_dir": "out"})
    assert config.output_dir == "out"
    assert config.problem == harness.ProblemSpec()
    assert config.oracle == harness.OracleSpec()
    assert config.solver == harness.SolverSpec()
    assert config.repeats == 1
    assert config.master_seed == 0
    assert config.worst_case_directions == 0


def test_parse_config_reads_every_field(tmp_path):
    data = make_config(tmp_path, master_seed=11, repeats=3, worst_case_directions=4)
    data["solver"]["step_scale"] = 0.75
    config = harness.parse_config(data)
    assert config.problem == harness.ProblemSpec(n=8, N=12, radius=2.0, seed=3)
    assert config.oracle == harness.OracleSpec(degrees=(0.0, 1.0), noise_bounds=(0.0, 0.5))
    assert config.solver == harness.SolverSpec(iterations=60, step_scale=0.75)
    assert (config.repeats, config.master_seed, config.worst_case_directions) == (3, 11, 4)


def test_parse_config_rejects_bad_input():
    def bad(message, **overrides):
        data = make_config("out")
        for key, value in overrides.items():
            if isinstance(value, dict):
                data[key] = {**data.get(key, {}), **value}
            else:
                data[key] = value
        with pytest.raises(ConfigError, match=message):
            harness.parse_config(data)

    with pytest.raises(ConfigError, match="JSON object"):
        harness.parse_config([1, 2])
    bad("unknown keys in config", iterations=10)
    bad("unknown keys in problem", problem={"size": 8})
    bad("unknown keys in oracle", oracle={"delta": 0.1})
    bad("unknown keys in solver", solver={"iteratons": 10})
    # the decaying accuracy and step schedules are gone
    bad("unknown keys in solver", solver={"beta": 0.5})
    bad("unknown keys in solver", solver={"zeta": 0.25})
    bad("version must be 1", version=2)
    bad("output_dir is required", output_dir="")
    bad("output_dir must be a string", output_dir=5)
    bad("unsupported problem family", problem={"family": "quadratic"})
    bad("must be positive", problem={"n": 0})
    bad("must be positive", problem={"radius": 0.0})
    bad("unknown keys in oracle", oracle={"family": "noisy_gradient"})
    bad("nonempty", oracle={"degrees": []})
    bad("degrees must lie", oracle={"degrees": [0.0, 1.5]})
    bad("degrees must lie", oracle={"degrees": [-0.1]})
    bad("nonnegative", oracle={"noise_bounds": [-1.0]})
    # a certificate is its oracle's own, and the instance's noise is fixed
    bad("unknown keys in oracle", oracle={"claimed_delta_scale": 0.5})
    bad("unknown keys in problem", problem={"noise_level": 0.25})
    bad("unknown keys in solver", solver={"algorithm": "prox_gradient"})
    bad("iterations", solver={"iterations": 0})
    bad("step_scale", solver={"step_scale": 0.0})
    bad("step_scale", solver={"step_scale": 1.5})
    bad("repeats", repeats=0)
    bad("worst_case_directions", worst_case_directions=-1)
    bad("master_seed must be nonnegative", master_seed=-1)
    bad("problem.seed must be nonnegative", problem={"seed": -1})
    # grid values that key two cells alike: one seed, or one trace file name
    bad("noise_bounds values must differ", oracle={"noise_bounds": [1e-7, 2e-7]})
    bad("noise_bounds values must differ", oracle={"noise_bounds": [1.0, 1.0]})
    bad("noise_bounds values must differ", oracle={"noise_bounds": [1234567.0, 1234568.0]})
    bad("degrees values must differ", oracle={"degrees": [0.5, 0.5000001]})
    bad("noise_bounds values are too large to key a cell seed", oracle={"noise_bounds": [1e303]})
    # Python's json module accepts NaN and Infinity, and int() truncates
    bad("noise_bounds must be a finite number", oracle={"noise_bounds": [float("inf")]})
    bad("radius must be a finite number", problem={"radius": float("nan")})
    bad("step_scale must be a finite number", solver={"step_scale": float("inf")})
    bad("iterations must be an integer", solver={"iterations": 20.9})
    bad("n must be an integer", problem={"n": "8"})
    bad("repeats must be an integer", repeats=True)
    bad("version must be an integer", version=True)
    bad("problem must be a JSON object", problem=[8, 12])
    bad("degrees must be a list", oracle={"degrees": 0.5})


def test_load_config_roundtrip_and_bad_json(tmp_path):
    data = make_config(tmp_path / "out")
    path = write_config(tmp_path / "config.json", data)
    assert harness.load_config(path) == harness.parse_config(data)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        harness.load_config(broken)


def test_cell_seed_is_content_addressed():
    seq = harness.cell_seed(5, 1.0, 0.5, 2)
    assert list(seq.entropy) == [5, 1000000, 500000, 2]
    a = np.random.default_rng(harness.cell_seed(5, 1.0, 0.5, 2)).standard_normal(6)
    b = np.random.default_rng(harness.cell_seed(5, 1.0, 0.5, 2)).standard_normal(6)
    c = np.random.default_rng(harness.cell_seed(5, 1.0, 0.5, 3)).standard_normal(6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_plateau_estimate():
    values = np.arange(1.0, 11.0)
    assert harness.plateau_estimate(values) == 10.0          # trailing 10% of 10 = last value
    assert harness.plateau_estimate(values, 0.3) == 9.0      # mean of 8, 9, 10
    assert harness.plateau_estimate(values, 1.0) == 5.5
    with pytest.raises(ValueError):
        harness.plateau_estimate([])
    with pytest.raises(ValueError):
        harness.plateau_estimate(values, 0.0)
    with pytest.raises(ValueError):
        harness.plateau_estimate(values, 1.5)


def test_fig1_config_preset(tmp_path):
    config = harness.fig1_config(tmp_path, iterations=100, repeats=2, master_seed=9)
    assert config.problem == harness.ProblemSpec()
    assert config.oracle == harness.OracleSpec()
    assert config.solver == harness.SolverSpec(iterations=100)
    assert (config.repeats, config.master_seed) == (2, 9)
    assert config.output_dir == str(tmp_path)
    # the preset goes through parse_config like a config file
    with pytest.raises(ConfigError, match="repeats must be positive"):
        harness.fig1_config(tmp_path, repeats=0)


def test_run_experiment_grid_order_and_files(grid_run):
    config, results, out = grid_run
    expected = [(q, d, r) for q in (0.0, 1.0) for d in (0.0, 0.5) for r in (0, 1)]
    assert [(c.degree, c.noise_bound, c.repeat) for c in results] == expected
    assert all(c.status == "ok" for c in results)
    assert all(c.trace.iterates is None for c in results)  # a cell drops its (K+1, n) iterates
    names = sorted(p.name for p in out.iterdir())
    traces = [f"trace_q{q:g}_delta{d:g}_rep{r}.csv" for (q, d, r) in expected]
    assert names == sorted(traces + ["bound_q_delta.csv", "summary.csv"])
    for cell in results:
        lines = (out / cell.trace_filename).read_text().splitlines()
        assert lines[0] == "k,f,gm_sq,min_gm_sq,bound"
        assert len(lines) == 1 + config.solver.iterations
        assert lines[1].startswith("0,")


def test_trace_csv_preserves_arrays_bitwise(grid_run):
    config, results, out = grid_run
    cell = results[3]  # q=0, delta=0.5, rep 1
    rows = (out / cell.trace_filename).read_text().splitlines()[1:]
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(table[:, 0], np.arange(config.solver.iterations))
    assert np.array_equal(table[:, 1], cell.trace.objective[:-1])
    assert np.array_equal(table[:, 2], cell.trace.gm_sq)
    assert np.array_equal(table[:, 3], cell.trace.min_gm_sq)
    assert np.array_equal(table[:, 4], cell.bound)


def test_summary_rows_match_results(grid_run):
    config, results, out = grid_run
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == ("q,delta,repeat,seed,status,f0,final_f,final_min_gm_sq,"
                        "plateau,bound_plateau,dominated,alpha,delta_k")
    assert len(lines) == 1 + len(results)
    for line, cell in zip(lines[1:], results):
        fields = line.split(",")
        assert float(fields[0]) == cell.degree
        assert float(fields[1]) == cell.noise_bound
        assert int(fields[2]) == cell.repeat
        assert fields[3] == cell.seed_label
        assert fields[4] == "ok"
        assert float(fields[5]) == cell.f0
        assert float(fields[6]) == cell.trace.objective[-1]  # F(x_K)
        assert float(fields[7]) == cell.trace.min_gm_sq[-1]
        assert float(fields[8]) == cell.plateau
        assert float(fields[9]) == cell.bound_plateau
        assert fields[10] == str(cell.dominated).lower()
        # a cell's step size and delta are fixed for its run, so one cell each holds them
        assert np.all(cell.trace.alpha == float(fields[11]))
        assert float(fields[12]) == cell.trace.delta
    label = [c.seed_label for c in results if (c.degree, c.noise_bound, c.repeat)
             == (1.0, 0.5, 0)][0]
    assert label == "5-1000000-500000-0"


def test_bound_csv_dedupes_repeats(grid_run):
    config, results, out = grid_run
    lines = (out / "bound_q_delta.csv").read_text().splitlines()
    assert lines[0] == "q,delta,k,bound"
    K = config.solver.iterations
    assert len(lines) == 1 + 4 * K  # 4 distinct (q, delta) cells, repeats collapsed
    seen = {}
    for line in lines[1:]:
        q, d, k, b = line.split(",")
        seen.setdefault((q, d), []).append((int(k), float(b)))
    assert len(seen) == 4
    cell = results[2]  # q=0, delta=0.5, rep 0
    ks, bounds = zip(*seen[(f"{0.0:.17g}", f"{0.5:.17g}")])
    assert list(ks) == list(range(K))
    assert np.array_equal(np.array(bounds), cell.bound)


def test_exact_cells_ignore_the_degree(grid_run):
    # with zero noise the oracle is exact and rho = 0, so the trajectory
    # cannot depend on q; only the theoretical bound curve does
    config, results, out = grid_run
    by = {(c.degree, c.noise_bound, c.repeat): c for c in results}
    for r in (0, 1):
        low, high = by[(0.0, 0.0, r)], by[(1.0, 0.0, r)]
        assert np.array_equal(low.trace.objective, high.trace.objective)
        assert np.array_equal(low.trace.gm_sq, high.trace.gm_sq)
        assert np.array_equal(low.trace.alpha, high.trace.alpha)
        assert not np.array_equal(low.bound, high.bound)


def test_fig1_degree_acts_only_through_the_step(tmp_path):
    # a fig1 cell's noisy oracle draws the same noise at every degree; only
    # its certificate changes.  With rho = L and step scale (1 + q)/2 every
    # degree steps alpha = 1/(2L), and one generator seed then gives one
    # run, bitwise, at q = 0, 0.5 and 1
    problem = harness._instance(harness.fig1_config(tmp_path))
    lip = problem.lipschitz
    runs = [prox_gradient(problem.value, harness._cell_oracle(problem, q, 1.0),
                          ProxFunction.l1_ball(problem.radius),
                          ScheduleConfig(rho=lip, max_iters=500, step_scale=(1.0 + q) / 2.0),
                          np.zeros(problem.dim), rng=np.random.default_rng(7))
            for q in (0.0, 0.5, 1.0)]
    assert [run.delta for run in runs] == [8.0, 8.0 ** 0.5, 1.0]
    for run in runs:
        assert np.all(run.alpha == 1.0 / (2.0 * lip))
        for name in ("iterates", "objective", "alpha", "gm_sq"):
            assert getattr(run, name).tobytes() == getattr(runs[0], name).tobytes(), name


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the sweep's q acts only through the step, so the sigma = 0.1"
                          " plateau order of gate test_06 is a step-size effect that the"
                          " noise of these master seeds flips")
@pytest.mark.parametrize("master_seed", [3, 6])
def test_fig1_plateau_order_at_low_noise_survives_the_seed(tmp_path, master_seed):
    # test_06's sigma = 0.1 medians, from those cells alone: a cell's run is
    # the same in any batch.  The preset's seed 0 keeps the order by a
    # relative 1.5e-4 (q = 0.5: 2.35015e-5, q = 1: 2.34979e-5); seed 3 gives
    # 2.23725e-5 against 2.56882e-5 and seed 6 2.26055e-5 against 2.32368e-5
    config = harness.fig1_config(tmp_path, iterations=5000, repeats=5, master_seed=master_seed)
    cells = [(q, 0.1, r) for q in (0.0, 0.5, 1.0) for r in range(5)]
    results = harness.run_cells(harness._instance(config), config, cells)
    q0, q05, q1 = (float(np.median([c.plateau for c in results if c.degree == q]))
                   for q in (0.0, 0.5, 1.0))
    assert q1 <= q05 <= q0


class _FaultyOracle(NoisyGradientOracle):
    """Noisy oracle that answers badly from a given query on.

    faults maps a cell's (degree, noise bound) to (query, kind): from that
    query on, "blow-up" answers a finite value far above any blow-up
    ceiling, and "nan" a NaN gradient, which evaluate_rows' finiteness
    check marks.  The cells of a sweep each build their own oracle, so every
    oracle counts its own queries.
    """

    faults = {}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queries = 0

    @staticmethod
    def answers(oracles, points, rngs):
        values, candidates = NoisyGradientOracle.answers(oracles, points, rngs)
        for i, oracle in enumerate(oracles):
            oracle.queries += 1
            query, kind = oracle.faults.get((oracle.certificate.degree, oracle.noise_bound),
                                            (0, None))
            if kind is None or oracle.queries < query:
                continue
            if kind == "blow-up":
                values[i] = 1e300
            else:
                candidates[i] *= np.nan
        return values, candidates


def _faulty(faults):
    """An oracle class for harness.NoisyGradientOracle with the given faults."""
    return type("_Faulty", (_FaultyOracle,), {"faults": faults})


def _check_diverged_cells_are_isolated(honest_out, out, results, diverged):
    statuses = {(c.degree, c.noise_bound, c.repeat): c.status for c in results}
    assert {cell for cell, status in statuses.items() if status == "diverged"} == diverged
    assert sum(s == "ok" for s in statuses.values()) == len(results) - len(diverged)
    for cell in results:
        # status is read off the trace, so the two cannot disagree
        assert (cell.status == "diverged") == (cell.trace is None)
        if cell.status == "diverged":  # no trace, so nothing is dominated
            assert cell.dominated is False
        exists = (out / cell.trace_filename).exists()
        assert exists == (cell.status == "ok")
        if cell.status == "ok":  # siblings are untouched by the failure
            want = (honest_out / cell.trace_filename).read_bytes()
            assert (out / cell.trace_filename).read_bytes() == want


def test_diverged_cell_is_isolated(grid_run, tmp_path, monkeypatch):
    _, honest, honest_out = grid_run
    assert "status" not in harness.CellResult.__dataclass_fields__
    # the (degree 1, noise 0.5) cells blow up at their second answer
    monkeypatch.setattr(harness, "NoisyGradientOracle", _faulty({(1.0, 0.5): (2, "blow-up")}))
    out = tmp_path / "out"
    results = harness.run_experiment(harness.parse_config(make_config(out)))
    _check_diverged_cells_are_isolated(honest_out, out, results,
                                       {(1.0, 0.5, 0), (1.0, 0.5, 1)})
    lines = (out / "summary.csv").read_text().splitlines()
    diverged = [l for l in lines[1:] if ",diverged," in l]
    assert len(diverged) == 2
    for line in diverged:
        fields = line.split(",")
        assert fields[6] == fields[7] == fields[8] == fields[11] == fields[12] == "nan"
        assert fields[10] == ""
        assert np.isfinite(float(fields[9]))  # the bound curve never fails
    bound_cells = {tuple(l.split(",")[:2]) for l in
                   (out / "bound_q_delta.csv").read_text().splitlines()[1:]}
    assert (f"{1.0:.17g}", f"{0.5:.17g}") in bound_cells


def test_non_finite_oracle_answer_isolates_its_cell(grid_run, tmp_path, monkeypatch):
    _, _, honest_out = grid_run
    # a NaN gradient at the third query of the (degree 1, noise 0.5) cells
    monkeypatch.setattr(harness, "NoisyGradientOracle", _faulty({(1.0, 0.5): (3, "nan")}))
    out = tmp_path / "out"
    results = harness.run_experiment(harness.parse_config(make_config(out)))
    statuses = {(c.degree, c.noise_bound, c.repeat): c.status for c in results}
    assert statuses[(1.0, 0.5, 0)] == statuses[(1.0, 0.5, 1)] == "diverged"
    assert sum(s == "ok" for s in statuses.values()) == 6
    for cell in results:
        if cell.status == "ok":
            want = (honest_out / cell.trace_filename).read_bytes()
            assert (out / cell.trace_filename).read_bytes() == want
        else:
            assert not (out / cell.trace_filename).exists()
    path = write_config(tmp_path / "config.json", make_config(tmp_path / "cli"))
    assert cli.main(["run", str(path)]) == 3
    assert (tmp_path / "cli" / "summary.csv").exists()


def test_cells_diverging_at_different_steps_leave_siblings_alone(grid_run, tmp_path,
                                                                 monkeypatch):
    _, _, honest_out = grid_run
    # two cell groups fail at different steps, so the batch shrinks twice
    # while its other cells keep going: the degree-0 noisy cells blow up at
    # step 3 and the degree-1 ones answer NaN at step 40
    faults = {(0.0, 0.5): (4, "blow-up"), (1.0, 0.5): (41, "nan")}
    monkeypatch.setattr(harness, "NoisyGradientOracle", _faulty(faults))
    out = tmp_path / "out"
    results = harness.run_experiment(harness.parse_config(make_config(out)))
    _check_diverged_cells_are_isolated(
        honest_out, out, results,
        {(0.0, 0.5, 0), (0.0, 0.5, 1), (1.0, 0.5, 0), (1.0, 0.5, 1)})


@pytest.fixture(scope="module")
def tight_grid():
    """The test grid on a ball of radius 0.1, where about one step in ten
    leaves the ball, so the batched projection is exercised; its plain and
    worst-case (m = 3) cells as full-grid batches."""
    data = make_config("unused", worst_case_directions=3)
    data["problem"]["radius"] = 0.1
    config = harness.parse_config(data)
    problem = harness._instance(config)
    grid = harness._grid(config)
    full = {m: harness.run_cells(problem, config, grid, directions=m) for m in (1, 3)}
    return problem, config, grid, full


def _assert_same_cell(got, want):
    assert (got.degree, got.noise_bound, got.repeat, got.seed_label, got.status) == \
        (want.degree, want.noise_bound, want.repeat, want.seed_label, want.status)
    assert got.f0 == want.f0
    assert np.array_equal(got.bound, want.bound)
    for name in ("objective", "alpha", "gm_sq", "min_gm_sq"):
        assert getattr(got.trace, name).tobytes() == getattr(want.trace, name).tobytes(), name
    assert got.trace.delta == want.trace.delta


@settings(database=None, deadline=None, max_examples=20)
@given(directions=st.sampled_from([1, 3]), cuts=st.sets(st.integers(1, 7)))
def test_any_chunking_of_a_grid_gives_the_full_batch_bytes(tight_grid, directions, cuts):
    problem, config, grid, full = tight_grid
    bounds = [0, *sorted(cuts), len(grid)]
    chunked = [cell for a, b in zip(bounds[:-1], bounds[1:])
               for cell in harness.run_cells(problem, config, grid[a:b], directions)]
    assert len(chunked) == len(full[directions])
    for got, want in zip(chunked, full[directions]):
        _assert_same_cell(got, want)


@pytest.mark.parametrize("directions", [1, 3])
def test_every_cell_alone_gives_the_full_batch_bytes(tight_grid, directions):
    problem, config, grid, full = tight_grid
    assert all(cell.status == "ok" for cell in full[directions])
    for cell, want in zip(grid, full[directions]):
        alone, = harness.run_cells(problem, config, [cell], directions)
        _assert_same_cell(alone, want)
    # the batch shares one wall clock
    assert len({cell.wall_time for cell in full[directions]}) == 1


# ------------------------------------------------ sweeps over forked chunks


def _cpus(monkeypatch, count):
    """Make a sweep see count CPUs, so a small instance's grid splits into
    min(count, cells) chunks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


LARGE = harness._PER_CELL_ROWS_BYTES


@pytest.mark.parametrize("cells, cpus, rows_bytes, parts", [
    (45, 2, LARGE, 2),      # the fig1 grid: one chunk per CPU, whatever the size
    (45, 64, LARGE, 45),    # at most one chunk per cell
    (3, 2, LARGE - 1, 2),   # small steps: an extra process costs more than an idle CPU
    (3, 2, LARGE, 3),       # large steps: one process per cell
    (8, 5, LARGE, 8),
    (10, 5, LARGE, 5),      # two cells per CPU: one chunk per CPU
    (3, 1, LARGE, 1),       # one CPU never forks
    (1, 1, LARGE, 1),
])
def test_chunks_split_the_grid(cells, cpus, rows_bytes, parts):
    chunks = harness._chunks(cells, cpus, rows_bytes)
    assert len(chunks) == parts <= 2 * cpus - 1
    # contiguous, in grid order, each nonempty, and sizes differ by at most one
    assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
    assert chunks[-1][1] == cells
    assert {stop - start for start, stop in chunks} <= {cells // parts, -(-cells // parts)}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test if its body is still running after seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _bundle(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("cpus", [3, 64, 5])
@pytest.mark.parametrize("directions", [0, 3])
def test_forked_chunks_give_the_one_chunk_bytes(tmp_path, monkeypatch, cpus, directions):
    # the (degree 1, noise 0.5) cells are the grid's last two, so they fall
    # in a worker's chunk, and blow up there at their second answer
    monkeypatch.setattr(harness, "NoisyGradientOracle", _faulty({(1.0, 0.5): (2, "blow-up")}))
    # the grid's 12 x 8 rows count as large, so 8 cells on 5 CPUs fork one
    # process per cell; 3 CPUs still get 3 chunks, and 1 CPU one
    monkeypatch.setattr(harness, "_PER_CELL_ROWS_BYTES", 12 * 8 * 8)
    sweep = harness.run_worst_case if directions else harness.run_experiment
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = {}
    for count in (1, cpus):
        _cpus(monkeypatch, count)
        out = tmp_path / f"cpus{count}"
        config = harness.parse_config(make_config(out, worst_case_directions=directions))
        runs[count] = sweep(config), _bundle(out)
        _assert_no_child_left()
    assert len(forks) == {3: 2, 5: 7, 64: 7}[cpus]
    (one, one_files), (split, split_files) = runs[1], runs[cpus]
    assert [c.status for c in split].count("diverged") == 2
    assert split_files == one_files
    for got, want in zip(split, one, strict=True):
        if want.trace is None:
            assert (got.seed_label, got.status, got.trace) == (want.seed_label, "diverged", None)
        else:
            _assert_same_cell(got, want)
    path = write_config(tmp_path / "config.json",
                        make_config(tmp_path / "cli", worst_case_directions=directions))
    assert cli.main(["worst-case" if directions else "run", str(path)]) == 3
    _assert_no_child_left()


def _rendered(header, columns):
    """A table's bytes as one str.format per row renders it, %.17g numbers."""
    fmt = ",".join(["{:.17g}"] * len(columns)) + "\n"
    return (",".join(header) + "\n" + "".join(fmt.format(*row) for row in zip(*columns))).encode()


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("directions", [0, 3])
def test_shared_texts_give_every_file_its_cells_numbers(tmp_path, monkeypatch, cpus, directions):
    # a sweep formats the step counter and each (q, delta) bound curve once,
    # in the calling process before any worker forks; the grid's two
    # degrees, two noise bounds and two repeats would catch a curve text
    # handed to the wrong cell, and three chunks make the calling process
    # format curves its own chunk never meets
    _cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    config = harness.parse_config(make_config(out, worst_case_directions=directions))
    sweep = harness.run_worst_case if directions else harness.run_experiment
    formatted, real = [], rates.format_numbers  # the calling process's calls only

    def format_numbers(values):
        formatted.append(np.array(values, dtype=float))
        return real(values)

    monkeypatch.setattr(rates, "format_numbers", format_numbers)
    with _deadline(60):
        results = sweep(config)
    _assert_no_child_left()
    # the caller formats each distinct curve of the whole grid exactly once
    curves = {(cell.degree, cell.noise_bound): cell.bound for cell in results}
    assert len(curves) == 4
    assert [sum(np.array_equal(v, curve) for v in formatted)
            for curve in curves.values()] == [1] * 4
    prefix = "worst_" if directions else ""
    assert [cell.status for cell in results] == ["ok"] * 8
    for cell in results:
        trace = cell.trace
        want = _rendered(("k", "f", "gm_sq", "min_gm_sq", "bound"),
                         (range(len(trace.gm_sq)), trace.objective[:-1].tolist(),
                          trace.gm_sq.tolist(), trace.min_gm_sq.tolist(), cell.bound.tolist()))
        assert (out / (prefix + cell.trace_filename)).read_bytes() == want, cell.trace_filename
    if not directions:
        rows = [(q, d, k, b) for (q, d), curve in curves.items()
                for k, b in enumerate(curve.tolist())]
        want = _rendered(("q", "delta", "k", "bound"), list(zip(*rows)))
        assert (out / "bound_q_delta.csv").read_bytes() == want
    else:
        assert not (out / "bound_q_delta.csv").exists()


@pytest.mark.parametrize("cpus", [1, None])
def test_one_cpu_never_forks(tmp_path, monkeypatch, cpus):
    if cpus is None:  # a platform without sched_getaffinity runs one chunk
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        _cpus(monkeypatch, cpus)
    monkeypatch.setattr(harness, "_PER_CELL_ROWS_BYTES", 0)  # even on a large instance

    def no_fork():
        raise AssertionError("a one-chunk sweep forked")

    monkeypatch.setattr(os, "fork", no_fork)
    results = harness.run_experiment(harness.parse_config(make_config(tmp_path / "out")))
    assert len(results) == 8
    assert all(cell.status == "ok" for cell in results)
    assert len({cell.wall_time for cell in results}) == 1


def _unpicklable(message):
    """An exception that cannot cross the pipe: pickle refuses a class that
    is local to a function."""
    class Local(Exception):
        pass
    return Local(message)


def _in_workers(monkeypatch, action):
    """Make harness.run_cells call action() in every worker process and run
    as usual in the sweep's own process."""
    parent, real = os.getpid(), harness.run_cells

    def run_cells(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_cells", run_cells)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("exc, expected, match", [
    (ValueError("bad cells"), ValueError, "^bad cells$"),
    (harness.ConfigError("bad config"), harness.ConfigError, "^bad config$"),
    (_unpicklable("lost class"), RuntimeError, r"(?s)cells 4\.\.7 raised:.*lost class"),
], ids=["ValueError", "ConfigError", "unpicklable"])
def test_worker_exception_reaches_the_caller(tmp_path, monkeypatch, exc, expected, match):
    _cpus(monkeypatch, 2)
    _in_workers(monkeypatch, lambda: _raise(exc))
    config = harness.parse_config(make_config(tmp_path / "out"))
    with _deadline(60), pytest.raises(expected, match=match) as info:
        harness.run_experiment(config)
    assert type(info.value) is expected
    _assert_no_child_left()
    # the CLI reports a worker's validation error as its own
    if expected is not RuntimeError:
        path = write_config(tmp_path / "config.json", make_config(tmp_path / "cli"))
        assert cli.main(["run", str(path)]) == 1
        _assert_no_child_left()


@pytest.mark.parametrize("action, match", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), r"cells 4\.\.7 was killed by SIGKILL"),
    (lambda: os._exit(5), r"cells 4\.\.7 exited with status 5"),
    (lambda: os._exit(0), r"cells 4\.\.7 sent a truncated result \(0 bytes\)"),
], ids=["SIGKILL", "exit_5", "no_payload"])
def test_worker_death_is_a_runtime_error(tmp_path, monkeypatch, action, match):
    _cpus(monkeypatch, 2)
    _in_workers(monkeypatch, action)
    config = harness.parse_config(make_config(tmp_path / "out"))
    with _deadline(60), pytest.raises(RuntimeError, match=match):
        harness.run_experiment(config)
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [KeyboardInterrupt(), ValueError("parent chunk")],
                         ids=["KeyboardInterrupt", "ValueError"])
def test_failing_own_chunk_kills_and_reaps_every_worker(tmp_path, monkeypatch, exc):
    _cpus(monkeypatch, 4)
    parent, real = os.getpid(), harness.run_cells

    def run_cells(*args, **kwargs):
        if os.getpid() == parent:
            raise exc
        time.sleep(60)  # still running when the sweep gives up
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_cells", run_cells)
    config = harness.parse_config(make_config(tmp_path / "out"))
    with _deadline(30), pytest.raises(type(exc)):
        harness.run_experiment(config)
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
@pytest.mark.parametrize("fail", ["EAGAIN", "DeprecationWarning"])
def test_failed_fork_kills_the_started_worker_and_leaks_no_descriptor(tmp_path, monkeypatch,
                                                                       capsys, fail):
    # the second fork of a three-chunk sweep fails, before its child exists,
    # as with EAGAIN under a process limit, or after: the sweep raises that
    # error, kills and reaps every worker it started and closes both ends of
    # every pipe it opened
    _cpus(monkeypatch, 3)
    fork, kill, forked, killed = os.fork, os.kill, [], []

    def fork_once_of_two():
        if len(forked) % 2 and fail == "EAGAIN":
            forked.append(None)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        forked.append(fork())
        if len(forked) % 2 == 0 and forked[-1]:
            # Python 3.12 warns when a process that holds threads forks; under
            # an "error" filter the parent's fork raises and the pid is lost
            raise DeprecationWarning(f"This process (pid={os.getpid()}) is multi-threaded,"
                                     " use of fork() may lead to deadlocks in the child.")
        return forked[-1]

    monkeypatch.setattr(os, "fork", fork_once_of_two)
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append((pid, sig)) or kill(pid, sig))
    config = harness.parse_config(make_config(tmp_path / "out"))
    descriptors = len(os.listdir("/proc/self/fd"))
    with _deadline(60), pytest.raises(OSError if fail == "EAGAIN" else DeprecationWarning):
        harness.run_experiment(config)
    # the failed fork's child, if any, dies first, then the started worker
    assert killed == [(pid, signal.SIGKILL) for pid in reversed(forked) if pid]
    assert len(forked) == 2 and forked[0] and (forked[1] is None) == (fail == "EAGAIN")
    _assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == descriptors
    path = write_config(tmp_path / "config.json", make_config(tmp_path / "cli"))
    with _deadline(60):
        if fail == "EAGAIN":  # the CLI reports it as one error line
            assert cli.main(["run", str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"error: [Errno {errno.EAGAIN}]")
        else:  # not a validation error: it propagates
            with pytest.raises(DeprecationWarning):
                cli.main(["run", str(path)])
    _assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == descriptors


def test_worst_case_single_direction_is_bitwise(small_problem, grid_run, tmp_path):
    config = harness.parse_config(make_config(tmp_path / "out", worst_case_directions=1))
    plain, = harness.run_cells(small_problem, config, [(1.0, 0.5, 0)])
    worst, = harness.run_cells(small_problem, config, [(1.0, 0.5, 0)],
                               directions=config.worst_case_directions)
    assert worst.status == "ok"
    assert np.array_equal(plain.trace.objective, worst.trace.objective)
    assert np.array_equal(plain.trace.gm_sq, worst.trace.gm_sq)
    assert np.array_equal(plain.trace.min_gm_sq, worst.trace.min_gm_sq)
    assert np.array_equal(plain.trace.alpha, worst.trace.alpha)
    assert np.array_equal(plain.trace.delta, worst.trace.delta)
    results = harness.run_worst_case(config)
    assert all(c.status == "ok" for c in results)
    _, _, honest_out = grid_run
    for cell in results:
        want = (honest_out / cell.trace_filename).read_bytes()
        got = (tmp_path / "out" / ("worst_" + cell.trace_filename)).read_bytes()
        assert got == want
    assert (tmp_path / "out" / "worst_summary.csv").exists()


def test_worst_case_needs_directions_and_picks_the_biggest(small_problem, tmp_path):
    plain_cfg = harness.parse_config(make_config(tmp_path / "a"))
    with pytest.raises(ConfigError, match="worst_case_directions"):
        harness.run_worst_case(plain_cfg)
    cfg3 = harness.parse_config(make_config(tmp_path / "b", worst_case_directions=3))
    worst, = harness.run_cells(small_problem, cfg3, [(1.0, 0.5, 0)],
                               directions=cfg3.worst_case_directions)
    # the first step, from x0 = 0, moves along the farthest of the three
    # candidates the cell's oracle gives there with a fresh copy of its generator
    oracle = harness._cell_oracle(small_problem, 1.0, 0.5, 3)
    rng = np.random.default_rng(harness.cell_seed(cfg3.master_seed, 1.0, 0.5, 0))
    x0 = np.zeros(small_problem.dim)
    _, candidates = oracle.evaluate(x0, rng=rng)
    lip = small_problem.lipschitz
    alpha = cfg3.solver.step_scale / (lip + 1.0 * lip)
    moves = project_l1_rows(x0 - alpha * candidates, small_problem.radius) - x0
    gm_sq = sq_norm(moves) / alpha ** 2
    assert len(set(gm_sq.tolist())) == 3
    assert worst.trace.gm_sq[0] == gm_sq.max()


def test_scaled_claim_wrapper_only_touches_delta(small_problem, understate_claims):
    # the tests' planted lie replaces the delta of each cell oracle's
    # certificate; the noise, and so every answer, stays as it was
    honest = {m: harness._cell_oracle(small_problem, 1.0, 0.3, m) for m in (1, 3)}
    understate_claims(0.25)
    for directions in (1, 3):
        liar = harness._cell_oracle(small_problem, 1.0, 0.3, directions)
        assert liar.certificate == replace(honest[directions].certificate, delta=0.25 * 0.3)
        value, candidates = liar.evaluate(np.zeros(8), rng=np.random.default_rng(0))
        want_value, want = honest[directions].evaluate(np.zeros(8),
                                                       rng=np.random.default_rng(0))
        assert value == want_value
        assert len(candidates) == len(want) == directions
        for grad, want_grad in zip(candidates, want):
            assert np.array_equal(grad, want_grad)


def test_certify_command_accepts_honest_cells(tmp_path):
    config = harness.parse_config(make_config(tmp_path / "out"))
    assert harness.certify_command(config, pairs=200) is True
    lines = (tmp_path / "out" / "certification.txt").read_text().splitlines()
    assert len(lines) == 5  # four cells plus the verdict
    assert lines[0].startswith("q=0 delta=0 certified")
    assert lines[3].startswith("q=1 delta=0.5 certified")
    assert lines[-1] == "all certified"


def test_certify_command_audits_the_worst_case_oracle(tmp_path, monkeypatch,
                                                      understate_claims):
    # with worst_case_directions = m each cell's audited oracle offers the m
    # candidates the worst-case run steps along
    audited = []
    real = harness.certify_oracle

    def recording(oracle, *args, **kwargs):
        audited.append(oracle)
        return real(oracle, *args, **kwargs)

    monkeypatch.setattr(harness, "certify_oracle", recording)
    honest = harness.parse_config(make_config(tmp_path / "honest", worst_case_directions=3))
    assert harness.certify_command(honest, pairs=200) is True
    assert len(audited) == 4 and all(oracle.directions == 3 for oracle in audited)
    understate_claims(0.25)
    liar = harness.parse_config(make_config(tmp_path / "liar", worst_case_directions=3))
    assert harness.certify_command(liar, pairs=400) is False
    assert len(audited) == 8 and all(oracle.directions == 3 for oracle in audited)
    assert "REFUTED" in (tmp_path / "liar" / "certification.txt").read_text()


def test_certify_command_refutes_understated_claim(tmp_path, understate_claims):
    understate_claims(0.05)
    config = harness.parse_config(make_config(tmp_path / "out"))
    assert harness.certify_command(config, pairs=400) is False
    text = (tmp_path / "out" / "certification.txt").read_text()
    assert "q=1 delta=0.5 REFUTED" in text
    assert "worst pair:" in text
    assert text.rstrip().endswith("REFUTED")


def test_rates_command_writes_the_requested_curve(tmp_path):
    path = tmp_path / "curve.csv"
    ks = np.array([1.0, 10.0, 100.0])
    params = {"lipschitz": 2.0, "degree": 0.5, "delta": 0.1, "gap": 1.0}
    values = rates.sample_curve("nonconvex_const", params, ks)
    rates.write_csv(path, ("k", "bound"), (ks, values))
    want = rates.bound_nonconvex_const(2.0, 0.5, 0.1, 1.0, ks)
    assert np.array_equal(values, want)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,bound"
    got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(got[:, 0], ks)
    assert np.array_equal(got[:, 1], want)


def test_cli_run_and_validation_exit_codes(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path / "config.json", make_config(tmp_path / "out"))
    assert cli.main(["run", str(path)]) == 0
    assert (tmp_path / "out" / "summary.csv").exists()

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["run", str(broken)]) == 1
    assert "error:" in capsys.readouterr().err

    # a config that cannot be read, or a bundle that cannot be written, is
    # one error line too, also when a worker's write fails and the sweep
    # raises the worker's error again
    capsys.readouterr()
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")
    (tmp_path / "file").write_text("")
    under_file = write_config(tmp_path / "under_file.json", make_config(tmp_path / "file" / "out"))
    assert cli.main(["run", str(under_file)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory")
    _cpus(monkeypatch, 2)  # the grid's last cell falls in the worker's chunk
    blocked = tmp_path / "blocked"
    (blocked / "trace_q1_delta0.5_rep1.csv").mkdir(parents=True)
    path = write_config(tmp_path / "blocked.json", make_config(blocked))
    with _deadline(60):
        assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    _assert_no_child_left()

    typo = write_config(tmp_path / "typo.json",
                        make_config(tmp_path / "out2", iterations=10))
    assert cli.main(["run", str(typo)]) == 1

    infinite = make_config(tmp_path / "out3")
    infinite["oracle"]["noise_bounds"] = [float("inf")]
    path = write_config(tmp_path / "infinite.json", infinite)
    assert "Infinity" in path.read_text()
    capsys.readouterr()
    assert cli.main(["run", str(path)]) == 1
    assert "error: noise_bounds must be a finite number" in capsys.readouterr().err


def test_cli_worst_case_exit_codes(tmp_path):
    path = write_config(tmp_path / "config.json",
                        make_config(tmp_path / "out", worst_case_directions=2))
    assert cli.main(["worst-case", str(path)]) == 0
    assert (tmp_path / "out" / "worst_summary.csv").exists()
    plain = write_config(tmp_path / "plain.json", make_config(tmp_path / "out2"))
    assert cli.main(["worst-case", str(plain)]) == 1


def test_cli_certify_exit_codes(tmp_path, capsys, understate_claims):
    path = write_config(tmp_path / "config.json", make_config(tmp_path / "ok"))
    assert cli.main(["certify", str(path), "--pairs", "200"]) == 0
    assert "all certified" in capsys.readouterr().out
    understate_claims(0.05)
    liar = write_config(tmp_path / "liar.json", make_config(tmp_path / "bad"))
    assert cli.main(["certify", str(liar), "--pairs", "400"]) == 2
    assert "REFUTED" in capsys.readouterr().out
    # a tolerance that is not finite and nonnegative is a usage error: inf
    # would certify the understated claim and NaN refute any claim
    understated = write_config(
        tmp_path / "understated.json",
        make_config(tmp_path / "under", problem={"n": 8, "N": 16, "radius": 2.0, "seed": 3},
                    oracle={"degrees": [1.0], "noise_bounds": [0.5]}))
    certify = ["certify", str(understated), "--pairs", "200", "--tolerance"]
    assert cli.main(certify + ["1e-7"]) == 2
    assert "REFUTED" in capsys.readouterr().out
    for tolerance in ("inf", "nan", "-1"):
        assert cli.main(certify + [tolerance]) == 1
        assert "tolerance must be finite and nonnegative" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, monkeypatch):
    # every cell blows up at its second answer
    faults = {(q, d): (2, "blow-up") for q in (0.0, 1.0) for d in (0.0, 0.5)}
    monkeypatch.setattr(harness, "NoisyGradientOracle", _faulty(faults))
    path = write_config(tmp_path / "config.json", make_config(tmp_path / "out"))
    assert cli.main(["run", str(path)]) == 3


def test_cli_rates_subcommand(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = ["rates", "nonconvex_const", str(out),
            "--param", "lipschitz=2", "--param", "degree=0.5",
            "--param", "delta=0.1", "--param", "gap=1",
            "--k-min", "1", "--k-max", "100", "--points", "5"]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,bound"
    ks = np.array([float(line.split(",")[0]) for line in lines[1:]])
    vals = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.array_equal(vals, rates.bound_nonconvex_const(2.0, 0.5, 0.1, 1.0, ks))

    assert cli.main(["rates", "nonconvex_const", str(out), "--param", "lipschitz"]) == 1
    assert cli.main(["rates", "nonconvex_const", str(out),
                     "--param", "wrong=1"]) == 1
    assert cli.main(["rates", "nonconvex_const", str(out), "--param", "lipschitz=2",
                     "--k-min", "-5"]) == 1
    capsys.readouterr()
    # parameters and the k range must be finite, and each parameter is given once
    params = ["--param", "degree=0.5", "--param", "delta=0.1", "--param", "gap=1"]
    finite = "parameter lipschitz must be a finite number"
    for flags, message in [(["--param", "lipschitz=abc"], "parameter lipschitz is not a number"),
                           (["--param", "lipschitz=nan"], finite),
                           (["--param", "lipschitz=inf"], finite),
                           (["--param", "lipschitz=1", "--param", "lipschitz=5"],
                            "parameter lipschitz is given twice"),
                           (["--param", "lipschitz=2", "--k-min", "nan"], "need finite"),
                           (["--param", "lipschitz=2", "--k-max", "inf"], "need finite")]:
        out.unlink(missing_ok=True)
        assert cli.main(["rates", "nonconvex_const", str(out), *flags, *params]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["rates", "nonconvex_schedule", "curve.csv"],
     "proxiq rates: argument kind: invalid choice: 'nonconvex_schedule'"),
    (["certify"], "proxiq certify: the following arguments are required: config"),
    (["rates", "nonconvex_const", "curve.csv", "--points", "x"],
     "proxiq rates: argument --points: invalid int value: 'x'"),
], ids=["unknown-kind", "missing-argument", "non-integer-points"])
def test_cli_usage_error_is_a_validation_error(tmp_path, monkeypatch, capsys, argv, message):
    # argparse alone would exit 2, the code of a refuted certificate
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: proxiq {argv[0]} ") and f"\nerror: {message}" in err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(SystemExit) as info:
        cli.main([argv[0], "--help"])
    assert info.value.code == 0


# a parameter set per curve kind at which a power inside the curve
# overflows a Python float, and one at which a product of finite
# parameters overflows to inf instead
_OVERFLOWS = [pytest.param(kind, params, id=kind) for kind, params in [
    ("holder_rate", dict(holder_constant=1000, exponent=0, degree=0.999, gap=1)),
    ("nonconvex_const", dict(lipschitz=1e-10, degree=1.99, delta=1, gap=1)),
    ("nonconvex_horizon", dict(lipschitz=1, degree=1.5, delta=1e200, gap=1)),
    ("convex_ergodic", dict(lipschitz=1, degree=0.5, delta=1e300, radius=1, rho=1e-300)),
    ("fast_convex", dict(lipschitz=1, degree=0.5, delta=1e300, radius=1, rho=1e-300)),
    ("fast_convex_opt_rho", dict(lipschitz=1, degree=1.9, delta=1, radius=1e200)),
]] + [pytest.param("nonconvex_const", dict(lipschitz=1e300, degree=1, delta=1, gap=1e300),
                   id="nonconvex_const_product")]


@pytest.mark.parametrize("kind, params", _OVERFLOWS)
def test_cli_rates_reports_overflow_as_error(tmp_path, capsys, kind, params):
    argv = ["rates", kind, str(tmp_path / "curve.csv")]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "curve.csv").exists()


def test_cli_validates_the_preset_and_the_seeds(tmp_path, capsys):
    out = tmp_path / "fig"
    for flags, message in [(["--repeats", "0"], "repeats must be positive"),
                           (["--master-seed", "-1"], "master_seed must be nonnegative"),
                           (["--iterations", "0"], "iterations must be positive")]:
        assert cli.main(["reproduce-fig1", str(out), *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
    negative_master = make_config(tmp_path / "out", master_seed=-3)
    negative_problem = make_config(tmp_path / "out")
    negative_problem["problem"]["seed"] = -2
    for data, message in [(negative_master, "master_seed must be nonnegative"),
                          (negative_problem, "problem.seed must be nonnegative")]:
        path = write_config(tmp_path / "config.json", data)
        assert cli.main(["run", str(path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_preset_smoke(tmp_path):
    out = tmp_path / "fig"
    argv = ["reproduce-fig1", str(out), "--iterations", "5", "--repeats", "1",
            "--master-seed", "3"]
    assert cli.main(argv) == 0
    traces = list(out.glob("trace_q*_delta*_rep0.csv"))
    assert len(traces) == 9  # full three-by-three degree/noise grid
    assert (out / "summary.csv").exists()
    assert (out / "bound_q_delta.csv").exists()
