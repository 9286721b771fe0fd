"""Acceptance suite: thirteen end-to-end checks, one per shipped guarantee.

Each test prints a single [NN] PASS/FAIL line (visible with pytest -s or in
captured output).  The heavy benchmark bundle runs once and is shared by the
checks that read it.
"""

import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from proxiq import cli, harness, rates
from proxiq.oracle import (ExactOracle, HolderOracle, MinibatchOracle,
                           NoisyGradientOracle, SaddleOracle, SaddleProblem,
                           ShiftedPointOracle, certify_oracle,
                           holder_smoothing_constant, majorize_amgm)
from proxiq.problems import (generate_holder_instance, generate_logsum_instance,
                             generate_quadratic_instance)
from proxiq.prox import ProxFunction, project_l1_ball
from proxiq.solver import (ScheduleConfig, adaptive_prox_gradient,
                           fast_prox_gradient, prox_gradient)


def _report(num, label, ok):
    print(f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} failed: {label}"


@pytest.fixture(scope="module")
def canonical():
    return generate_logsum_instance(64, 128, 4.0, None, 0)


@pytest.fixture(scope="module")
def quad32():
    return generate_quadratic_instance(32, conditioning=3.0, seed=7)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    config = harness.fig1_config(out, iterations=5000, repeats=5, master_seed=0)
    results = harness.run_experiment(config)
    return config, results, out


def _box_pairs(lo, hi, dim):
    def sample(rng):
        return rng.uniform(lo, hi, dim), rng.uniform(lo, hi, dim)
    return sample


class _QuadComponent:
    """Half squared norm plus a linear tilt; the mean over tilts is known."""

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ x) + float(self.b @ x)

    def gradient(self, x):
        return np.asarray(x, dtype=float) + self.b


def test_01_every_oracle_family_certifies():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    reports = []

    small = generate_logsum_instance(16, 32, 2.0, None, 1)
    pairs = harness.ball_pair_sampler(small.radius, small.dim)
    reports.append(certify_oracle(
        NoisyGradientOracle(small, 0.5, degree=1.0, diameter=4.0),
        small.value, pairs, pairs=1000, rng=rng))
    reports.append(certify_oracle(
        ShiftedPointOracle(small, 0.05), small.value, pairs, pairs=1000, rng=rng))

    # subsampled finite sum with identical curvature: the worst deviation of
    # a batch-mean gradient from the full mean is a computable constant
    tilt_rng = np.random.default_rng(7)
    tilts = [tilt_rng.standard_normal(6) for _ in range(6)]
    mean_tilt = np.mean(tilts, axis=0)
    comps = [_QuadComponent(b) for b in tilts]
    worst_dev = max(np.linalg.norm(np.mean([tilts[j] for j in batch], axis=0) - mean_tilt)
                    for batch in combinations(range(6), 3))
    mean_value = lambda x: float(np.mean([c.value(x) for c in comps]))
    reports.append(certify_oracle(
        MinibatchOracle(comps, 3, claimed_delta=worst_dev, claimed_lipschitz=1.0),
        mean_value, _box_pairs(-2.0, 2.0, 6), pairs=1000, rng=rng))

    saddle = SaddleProblem(
        operator=np.random.default_rng(5).standard_normal((8, 5)) / 2.0,
        concave_center=np.random.default_rng(6).standard_normal(5),
        concavity=2.0)
    reports.append(certify_oracle(SaddleOracle(saddle, 0.02), saddle.value,
                                  _box_pairs(-1.5, 1.5, 8), pairs=1000, rng=rng))
    reports.append(certify_oracle(SaddleOracle(saddle, 0.0), saddle.value,
                                  _box_pairs(-1.5, 1.5, 8), pairs=1000, rng=rng))

    weak = generate_holder_instance(16, 0.5, seed=4)
    reports.append(certify_oracle(HolderOracle(weak.as_holder_function(), 0.5, 0.1),
                                  weak.value, _box_pairs(-4.0, 4.0, 16),
                                  pairs=1000, rng=rng))

    elapsed = time.perf_counter() - start
    ok = all(r.certified for r in reports) and elapsed < 10.0
    _report(1, f"all {len(reports)} oracle families certify in {elapsed:.1f}s", ok)


def test_02_power_term_majorization_dominates():
    rng = np.random.default_rng(20260818)
    n = 100000
    deltas = 10.0 ** rng.uniform(-3, 0.5, n)
    degrees = rng.uniform(0.0, 1.9, n)
    rhos = 10.0 ** rng.uniform(-2, 2, n)
    radii = 10.0 ** rng.uniform(-4, 1, n)
    worst = np.inf
    for d, q, p, r in zip(deltas, degrees, rhos, radii):
        quad_coeff, offset = majorize_amgm(d, q, p)
        worst = min(worst, quad_coeff * r * r + offset - d * r ** q)
    _report(2, f"quadratic-plus-offset dominates the power term (min slack {worst:.2e})",
            worst >= -1e-10)


def test_03_zero_accuracy_run_matches_reference(canonical):
    L = canonical.lipschitz
    config = ScheduleConfig(rho=0.0, delta0=0.0, max_iters=1000, step_scale=0.5)
    trace = prox_gradient(canonical.value, ExactOracle(canonical, degree=1.0),
                          ProxFunction.l1_ball(4.0), config, np.zeros(64))
    alpha = 0.5 / L
    x = np.zeros(64)
    reference = [x.copy()]
    for _ in range(1000):
        x = project_l1_ball(x - alpha * canonical.gradient(x), 4.0)
        reference.append(x.copy())
    diff = float(np.max(np.abs(trace.iterates - np.array(reference))))
    _report(3, f"exact-accuracy solver matches the bare loop (max diff {diff:.1e})",
            diff <= 1e-12)


def test_04_aggregate_decrease_inequality(canonical, bundle):
    # on the clean benchmark instance the infimum is 0, so the weighted sum
    # of squared gradient-mapping norms must stay below f(x0) plus the
    # accumulated accuracy offsets, at every step of every cell
    assert canonical.f_lower == 0.0
    L = canonical.lipschitz
    _, results, _ = bundle
    worst = np.inf
    for cell in results:
        lhs = np.cumsum(cell.trace.alpha * cell.trace.gm_sq)
        offset = majorize_amgm(cell.trace.delta[0], cell.degree, L)[1]
        rhs = cell.f0 + (np.arange(len(lhs)) + 1.0) * offset
        worst = min(worst, float((rhs - lhs).min()))
    _report(4, f"aggregate decrease inequality holds on all cells (min slack {worst:.2e})",
            worst >= -1e-9)


def test_05_benchmark_cells_stay_under_their_bound(bundle):
    _, results, _ = bundle
    dominated = all(cell.dominated for cell in results)
    fast_enough = all(cell.wall_time < 60.0 for cell in results)
    _report(5, f"all {len(results)} benchmark cells dominated within time budget",
            dominated and fast_enough)


def test_06_plateau_ordering_across_degrees(bundle, tmp_path_factory):
    _, results, _ = bundle
    plateaus = {}
    for cell in results:
        plateaus.setdefault((cell.degree, cell.noise_bound), []).append(cell.plateau)
    ok = True
    for noise in (0.1, 1.0):
        row = [float(np.median(plateaus[(q, noise)])) for q in (0.0, 0.5, 1.0)]
        ok = ok and row[2] <= row[1] <= row[0]
    # the largest noise level needs a longer run before the floors separate
    data = {
        "version": 1, "output_dir": str(tmp_path_factory.mktemp("long3")),
        "oracle": {"degrees": [0.0, 0.5, 1.0], "noise_bounds": [3.0]},
        "solver": {"iterations": 20000},
        "repeats": 5, "master_seed": 0,
    }
    long_run = harness.run_experiment(harness.parse_config(data))
    tails = {}
    for cell in long_run:
        tails.setdefault(cell.degree, []).append(
            harness.plateau_estimate(cell.trace.min_gm_sq, 0.2))
    row = [float(np.median(tails[q])) for q in (0.0, 0.5, 1.0)]
    ok = ok and row[2] <= row[1] <= row[0]
    _report(6, "plateau medians decrease with the degree at every noise level", ok)


def test_07_ergodic_gap_bound_on_convex_quadratic(quad32):
    L = quad32.lipschitz
    direction = np.random.default_rng(3).standard_normal(32)
    direction /= np.linalg.norm(direction)
    R = 5.0
    x0 = quad32.x_star + R * direction
    h = ProxFunction.zero()
    delta = 0.1
    worst = -np.inf
    for rho in (0.1, 1.0, 10.0):
        config = ScheduleConfig(rho=rho, delta0=delta, max_iters=2000, step_scale=1.0)
        oracle = NoisyGradientOracle(quad32, delta, degree=1.0)
        trace = prox_gradient(quad32.value, oracle, h, config, x0,
                              rng=np.random.default_rng(100 + int(rho * 10)))
        ks = np.arange(1, 2001)
        averages = np.cumsum(trace.iterates[1:], axis=0) / ks[:, None]
        gaps = np.array([quad32.value(a) for a in averages]) - quad32.f_star
        bound = (L + rho) * R * R / (2.0 * ks) + delta ** 2 / (2.0 * rho)
        worst = max(worst, float((gaps / bound).max()))
    _report(7, f"ergodic averages respect the convex gap bound (max ratio {worst:.3f})",
            worst <= 1.0 + 1e-9)


def test_08_fast_method_exact_rate(quad32):
    L = quad32.lipschitz
    direction = np.random.default_rng(3).standard_normal(32)
    direction /= np.linalg.norm(direction)
    R = 5.0
    x0 = quad32.x_star + R * direction
    h = ProxFunction.zero()
    rho = 1e-6
    worst = -np.inf
    for rule in ("equality_root", "half_linear"):
        config = ScheduleConfig(rho=rho, delta0=0.0, max_iters=2000, step_scale=1.0)
        trace = fast_prox_gradient(quad32.value, ExactOracle(quad32, degree=1.0),
                                   h, config, x0, theta_rule=rule)
        gaps = trace.objective_y - quad32.f_star
        ks = np.arange(len(gaps), dtype=float)
        bound = 4.0 * (L + rho) * R * R / ((ks + 1.0) * (ks + 2.0))
        worst = max(worst, float((gaps / bound).max()))
    _report(8, f"fast method meets the exact accelerated rate (max ratio {worst:.3f})",
            worst <= 1.0 + 1e-9)


def test_09_fast_method_noise_threshold(quad32):
    # at degree 1 a horizon-tuned weight keeps constant noise from
    # accumulating: windowed means of the prox-point gap keep shrinking
    direction = np.random.default_rng(1).standard_normal(32)
    direction /= np.linalg.norm(direction)
    R = 10.0
    x0 = quad32.x_star + R * direction
    rho = float(rates.rho_opt_fast(R, 1.0, 0.1, 5000))
    config = ScheduleConfig(rho=rho, delta0=0.1, max_iters=5000, step_scale=1.0)
    trace = fast_prox_gradient(quad32.value, NoisyGradientOracle(quad32, 0.1, degree=1.0),
                               ProxFunction.zero(), config, x0,
                               rng=np.random.default_rng(42))
    gaps = trace.objective_y - quad32.f_star
    edges = np.unique(np.geomspace(100, 5000, 9).round().astype(int))
    means = np.array([gaps[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    no_accumulation = bool(np.all(np.diff(means) <= 0.0))
    # at degree 0 the bound curve's accuracy term must grow linearly instead
    lead_free = lambda k: (rates.bound_fast_convex(quad32.lipschitz, 0.0, 0.1, R, k)
                           - rates.bound_fast_convex(quad32.lipschitz, 0.0, 0.0, R, k))
    slope = float(np.log(lead_free(1e6) / lead_free(1e2)) / np.log(1e4))
    _report(9, f"degree-1 gap windows shrink; degree-0 curve slope {slope:.3f}",
            no_accumulation and abs(slope - 1.0) <= 0.05)


def test_10_weakly_smooth_rate_slope():
    problem = generate_holder_instance(16, 0.5, seed=4)
    H, nu, q = problem.holder_constant, 0.5, 0.5
    x0 = np.full(16, 3.0)
    gap0 = problem.value(x0)
    h = ProxFunction.zero()
    horizons = [100, 316, 1000, 3162]
    floors = []
    for K in horizons:
        delta_opt, _ = rates.holder_delta_opt(H, nu, q, gap0, K)
        smooth = holder_smoothing_constant(H, nu, q, delta_opt)
        config = ScheduleConfig(rho=smooth, delta0=float(delta_opt), max_iters=K, step_scale=1.0)
        oracle = HolderOracle(problem.as_holder_function(), q, float(delta_opt))
        trace = prox_gradient(problem.value, oracle, h, config, x0)
        floors.append(trace.min_gm_sq[-1])
    slope = float(np.polyfit(np.log(np.array(horizons, dtype=float)),
                             np.log(np.array(floors)), 1)[0])
    _report(10, f"horizon-tuned weakly smooth runs decay with slope {slope:.3f}",
            slope <= -0.517)


def _kkt_projection(y, radius):
    """Exact projection by enumerating candidate supports of the shrinkage."""
    if np.abs(y).sum() <= radius + 1e-15:
        return y.copy()
    n = y.size
    best, best_val = None, np.inf
    for mask in range(1, 2 ** n):
        idx = [i for i in range(n) if mask >> i & 1]
        theta = (np.abs(y)[idx].sum() - radius) / len(idx)
        if theta <= 0.0:
            continue
        z = np.sign(y) * np.maximum(np.abs(y) - theta, 0.0)
        if abs(np.abs(z).sum() - radius) > 1e-9:
            continue
        val = float(((z - y) ** 2).sum())
        if val < best_val:
            best_val, best = val, z
    return best


def _refined_grid_value(y, radius):
    """Best feasible objective found by a shrinking dense grid search."""
    n = y.size
    center = np.zeros(n)
    width = radius
    best_val = np.inf
    for _ in range(4):
        axes = [np.linspace(c - width, c + width, 13) for c in center]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        feasible = points[np.abs(points).sum(axis=1) <= radius + 1e-12]
        values = ((feasible - y) ** 2).sum(axis=1)
        j = int(np.argmin(values))
        if values[j] < best_val:
            best_val = float(values[j])
            center = feasible[j]
        width *= 0.25
    return best_val


def test_11_projection_matches_brute_force():
    rng = np.random.default_rng(11)
    worst_coord = 0.0
    worst_grid = 0.0
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        y = rng.normal(0.0, 2.0, dim)
        radius = float(rng.uniform(0.2, 3.0))
        proj = project_l1_ball(y, radius)
        exact = _kkt_projection(y, radius)
        worst_coord = max(worst_coord, float(np.max(np.abs(proj - exact))))
        proj_val = float(((proj - y) ** 2).sum())
        worst_grid = max(worst_grid, proj_val - _refined_grid_value(y, radius))
    _report(11, f"projection matches enumeration (max coord diff {worst_coord:.1e})",
            worst_coord <= 1e-8 and worst_grid <= 1e-9)


def test_12_adaptive_slack_stays_calibrated(canonical):
    L = canonical.lipschitz
    h = ProxFunction.l1_ball(4.0)
    x0 = np.zeros(64)
    f0 = canonical.value(x0) + h.value(x0)
    config = ScheduleConfig(rho=L, delta0=1.0, max_iters=1000, step_scale=1.0)
    oracle = NoisyGradientOracle(canonical, 1.0, degree=1.0, diameter=8.0)
    trace, history = adaptive_prox_gradient(canonical.value, oracle, h, config, x0,
                                            epsilon0=f0, rng=np.random.default_rng(12),
                                            max_doublings=64)
    retries = max(state.retry_count for state in history)
    epsilons = np.array([state.epsilon for state in history])
    # with the infimum at 0 the optimistic slack can never exceed twice the
    # best value seen so far
    best_so_far = np.minimum.accumulate(trace.objective)[:-1]
    calibrated = bool(np.all(epsilons <= 2.0 * best_so_far + 1e-12))
    _report(12, f"adaptive slack stays calibrated (max retries {retries})",
            retries <= 64 and calibrated)


def test_13_preset_runs_are_byte_identical(bundle, tmp_path_factory):
    _, _, first = bundle
    second = tmp_path_factory.mktemp("bundle_again")
    code = cli.main(["reproduce-fig1", str(second), "--iterations", "5000",
                     "--repeats", "5", "--master-seed", "0"])
    assert code == 0
    names = sorted(p.name for p in first.iterdir())
    same_names = names == sorted(p.name for p in second.iterdir())
    same_bytes = all((first / n).read_bytes() == (second / n).read_bytes()
                     for n in names)
    _report(13, f"preset reruns reproduce all {len(names)} files byte for byte",
            same_names and same_bytes)
