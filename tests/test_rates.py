"""Rate evaluators: spot values, algebraic identities, curve sampling, and
each curve kind against a solver run that meets its hypotheses."""

import csv
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxiq import (
    CURVE_KINDS,
    HolderOracle,
    NoisyGradientOracle,
    ProxFunction,
    SaddleProblem,
    ScheduleConfig,
    bound_convex_ergodic,
    bound_fast_convex,
    bound_nonconvex_const,
    bound_nonconvex_horizon,
    fast_prox_gradient,
    generate_holder_instance,
    generate_logsum_instance,
    generate_quadratic_instance,
    holder_delta_opt,
    holder_smoothing_constant,
    prox_gradient,
    rho_opt_fast,
    rho_opt_horizon,
    sample_curve,
)
from proxiq.rates import format_numbers, running_min_text, write_csv


def _bound_nonconvex_schedule(lipschitz, rho, degree, delta, beta, zeta, gap, k):
    """The best gradient-mapping bound under decaying accuracy and step
    schedules, delta_j = delta/(j+1)**(beta*(2-q)/2) and
    alpha_j = 1/((L + q*rho)*(j+1)**zeta), with beta and zeta in [0, 1):

        2*(L+q*rho)*gap / ((1-zeta)*(k+1)**(1-zeta))
        + (2-q)*(L+q*rho)*delta**(2/(2-q))
          / ((1-zeta)*(1-beta)*rho**(q/(2-q))*(k+1)**(beta-zeta)).

    No solver runs such schedules, so no curve kind exports it; at
    beta = zeta = 0 it is the reference the flat-schedule bounds derive from.
    """
    q, k = degree, np.asarray(k, dtype=float)
    smooth = lipschitz + q * rho
    lead = 2.0 * smooth * gap / ((1.0 - zeta) * (k + 1.0) ** (1.0 - zeta))
    noise = ((2.0 - q) * smooth * delta ** (2.0 / (2.0 - q))
             / ((1.0 - zeta) * (1.0 - beta) * rho ** (q / (2.0 - q)) * (k + 1.0) ** (beta - zeta)))
    return lead + noise


# -------------------------------------------------------------- spot values


def test_nonconvex_spot_values():
    # q=0, unit constants, k=3: lead 2*1*1/4, noise (2-0)*1*0.5/2 = 0.5 + 1.0
    assert _bound_nonconvex_schedule(1.0, 1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 3) == 1.5
    # q=1, L=1, delta=0.1, gap=1, k=0: 2*2*1 + 2*0.01
    assert bound_nonconvex_const(1.0, 1.0, 0.1, 1.0, 0) == pytest.approx(4.02, abs=1e-15)
    # the plateau, the bound at gap = 0: 2*L*delta at q=0, 2*delta^2 at q=1 and L=1
    assert bound_nonconvex_const(1.0, 0.0, 0.3, 0.0, 0) == pytest.approx(0.6, abs=1e-15)
    assert bound_nonconvex_const(1.0, 1.0, 0.3, 0.0, 0) == pytest.approx(0.18, abs=1e-15)
    assert rho_opt_horizon(1.0, 1.0, 1.0, 0.5, 0) == 1.0


def test_convex_spot_values():
    # L=1, q=1, delta=0.2, R=1, k=4: 1/8 + 1.5*0.2/2
    assert bound_convex_ergodic(1.0, 1.0, 0.2, 1.0, 4) == pytest.approx(0.275, abs=1e-15)


# --------------------------------------------------------------- identities


def test_const_bound_is_schedule_at_canonical_weight():
    ks = np.array([0.0, 1.0, 7.0, 100.0, 1e5])
    for lip in (0.7, 1.0, 5.0):
        for q in (0.0, 0.5, 1.0, 1.7):
            for delta in (0.0, 0.3):
                a = _bound_nonconvex_schedule(lip, lip, q, delta, 0.0, 0.0, 2.0, ks)
                b = bound_nonconvex_const(lip, q, delta, 2.0, ks)
                assert np.allclose(a, b, rtol=1e-12)


def test_horizon_bound_is_schedule_at_optimal_weight():
    for q in (1.0, 1.3, 1.7):
        for k in (0, 3, 50, 999):
            rho = rho_opt_horizon(2.0, q, 0.25, 1.5, k)
            direct = _bound_nonconvex_schedule(2.0, rho, q, 0.25, 0.0, 0.0, 1.5, k)
            expanded = bound_nonconvex_horizon(2.0, q, 0.25, 1.5, k)
            assert expanded == pytest.approx(direct, rel=1e-12)


def test_horizon_weight_nearly_minimizes_flat_schedule():
    # the closed-form weight balances the lead and the delta-linear term;
    # the neglected delta^2 term makes it only near-optimal, with the excess
    # over the true grid minimum vanishing quadratically as delta shrinks
    q, k = 1.3, 50
    rhos = np.geomspace(1e-6, 1e4, 8001)
    ratios = []
    for delta in (0.25, 0.025):
        best = bound_nonconvex_horizon(2.0, q, delta, 1.5, k)
        grid_min = min(_bound_nonconvex_schedule(2.0, r, q, delta, 0.0, 0.0, 1.5, k)
                       for r in rhos)
        ratios.append(best / grid_min)
    assert 1.0 - 1e-12 <= ratios[0] <= 1.005
    assert 1.0 - 1e-12 <= ratios[1] <= 1.0001


def test_horizon_bound_exact_oracle_limit():
    assert rho_opt_horizon(2.0, 1.5, 0.0, 1.0, 10) == 0.0
    assert bound_nonconvex_horizon(2.0, 1.5, 0.0, 1.0, 9) == pytest.approx(0.4, abs=1e-15)


def test_ergodic_display_form_tracks_weight_minimum():
    # minimizing over the weight gives L R^2/(2k) + delta R^q k^(-q/2); the
    # displayed form carries (2+q)/2 instead of 1 on the accuracy term, so it
    # sits exactly q/2 * delta R^q / k^(q/2) above the true minimum
    lip, q, delta, radius, k = 1.3, 0.8, 0.15, 2.0, 50
    display = bound_convex_ergodic(lip, q, delta, radius, k)
    grid_min = min(bound_convex_ergodic(lip, q, delta, radius, k, rho=r)
                   for r in np.geomspace(1e-4, 1e4, 200001))
    slack = 0.5 * q * delta * radius ** q / k ** (q / 2.0)
    assert display >= grid_min * (1.0 - 1e-12)
    assert display - grid_min == pytest.approx(slack, rel=1e-6)
    # at q = 0 the display form and the minimum coincide
    assert bound_convex_ergodic(lip, 0.0, delta, radius, k) == pytest.approx(
        min(bound_convex_ergodic(lip, 0.0, delta, radius, k, rho=r)
            for r in np.geomspace(1e-6, 1e2, 101)), rel=1e-12)


def test_fast_optimal_form_is_weight_minimum():
    for q, k in [(0.5, 10), (1.0, 100), (1.7, 31)]:
        opt = bound_fast_convex(1.0, q, 0.2, 1.5, k)
        star = rho_opt_fast(1.5, q, 0.2, k)
        at_star = bound_fast_convex(1.0, q, 0.2, 1.5, k, rho=star)
        assert opt == pytest.approx(at_star, rel=1e-12)
        for rho in np.geomspace(1e-4, 1e5, 2001):
            assert bound_fast_convex(1.0, q, 0.2, 1.5, k, rho=rho) >= opt * (1.0 - 1e-9)


def test_fast_accuracy_term_growth_matches_exponent():
    # subtract the exact-oracle lead; what is left scales like k^(1 - 3q/2)
    for q in (0.0, 0.5, 1.0):
        k1, k2 = 1e4, 1e6
        noise = [bound_fast_convex(1.0, q, 0.1, 1.0, k) - bound_fast_convex(1.0, q, 0.0, 1.0, k)
                 for k in (k1, k2)]
        slope = np.log(noise[1] / noise[0]) / np.log(k2 / k1)
        assert slope == pytest.approx(1.0 - 1.5 * q, abs=5e-3)


# ------------------------------------------------------------- monotonicity


def test_plateau_decreases_with_degree_for_small_delta():
    qs = np.linspace(0.0, 1.9, 39)
    for lip in (1.0, 2.0, 5.0):
        for delta in (0.05, 0.3):
            floors = [bound_nonconvex_const(lip, q, delta, 0.0, 0) for q in qs]
            assert all(a > b for a, b in zip(floors[:-1], floors[1:]))


def test_schedule_noise_decays_only_when_beta_exceeds_zeta():
    lead_only = _bound_nonconvex_schedule(1.0, 1.0, 1.0, 0.0, 0.5, 0.0, 1.0, 1e6)
    decaying = _bound_nonconvex_schedule(1.0, 1.0, 1.0, 0.4, 0.5, 0.0, 1.0, 1e6)
    assert decaying - lead_only < 1e-2  # the accuracy term has washed out
    growing = _bound_nonconvex_schedule(1.0, 1.0, 1.0, 0.4, 0.0, 0.5, 1.0, np.array([100.0, 1e6]))
    assert growing[1] > growing[0]


def test_const_bound_decreases_to_plateau():
    ks = np.arange(0, 2000)
    vals = bound_nonconvex_const(2.0, 0.5, 0.2, 1.0, ks)
    assert np.all(np.diff(vals) < 0)
    plateau = bound_nonconvex_const(2.0, 0.5, 0.2, 0.0, ks)  # the bound at gap = 0
    assert np.all(plateau == plateau[0])
    assert vals[-1] > plateau[0]
    assert vals[-1] == pytest.approx(plateau[0], rel=1e-2)


# ----------------------------------------------------------------- holder


def test_holder_delta_opt_matches_grid_search():
    coeff = holder_smoothing_constant(1.0, 0.5, 0.5, 1.0)
    a = (1.0 - 0.5) / (1.0 + 0.5 - 0.5)
    b = 2.0 * 0.5 / (1.0 + 0.5 - 0.5)
    c1 = 2.0 * 1.5 * 1.0 * coeff
    c2 = 1.5 * 1.5 * coeff ** (1.0 / 1.5)
    grid = np.geomspace(1e-6, 10.0, 2000001)
    vals = c1 * grid ** (-a) / 101.0 + c2 * grid ** b
    i = int(vals.argmin())

    delta, bound = holder_delta_opt(1.0, 0.5, 0.5, 1.0, 100)
    assert bound == pytest.approx(float(vals[i]), rel=1e-9)
    assert delta == pytest.approx(float(grid[i]), rel=1e-4)
    # frozen from the grid search above
    assert delta == pytest.approx(0.02900315093473186, rel=1e-15)
    assert bound == pytest.approx(0.10962504112784052, rel=1e-15)


def test_holder_delta_opt_smooth_case():
    delta, bound = holder_delta_opt(2.0, 1.0, 0.7, 1.5, 9)
    assert delta == 0.0
    # C1/(k+1) with C1 = 2*(q+1)*gap*H
    assert bound == pytest.approx(2.0 * 1.7 * 1.5 * 2.0 / 10.0, rel=1e-15)


def test_holder_rate_slope_in_k():
    # at the per-horizon optimal accuracy the bound decays like k^(-2nu/(1+nu))
    for nu, q in [(0.5, 0.5), (0.3, 0.0), (0.8, 1.2)]:
        _, b1 = holder_delta_opt(1.0, nu, q, 1.0, 1e4)
        _, b2 = holder_delta_opt(1.0, nu, q, 1.0, 1e6)
        slope = np.log(b2 / b1) / np.log(1e2)
        assert slope == pytest.approx(-2.0 * nu / (1.0 + nu), abs=1e-3)


# -------------------------------------------------------------- validation


def test_rate_validation_errors():
    with pytest.raises(ValueError):
        bound_nonconvex_const(1.0, 2.0, 0.1, 1.0, 1)
    with pytest.raises(ValueError, match="rho must be positive"):
        bound_convex_ergodic(1.0, 1.0, 0.1, 1.0, 4, rho=0.0)
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        bound_nonconvex_const(1.0, 1.0, -0.1, 1.0, 1)
    with pytest.raises(ValueError, match="lipschitz must be positive"):
        bound_nonconvex_const(0.0, 1.0, 0.1, 1.0, 1)
    with pytest.raises(ValueError):
        bound_nonconvex_const(1.0, 1.0, 0.1, -1.0, 1)
    with pytest.raises(ValueError):
        rho_opt_horizon(1.0, 0.5, 0.1, 1.0, 1)  # needs degree >= 1
    with pytest.raises(ValueError):
        rho_opt_horizon(1.0, 1.0, 0.1, 0.0, 1)
    with pytest.raises(ValueError):
        bound_convex_ergodic(1.0, 1.0, 0.1, 1.0, 0)  # averaged gap needs k >= 1
    with pytest.raises(ValueError, match="radius must be positive"):
        bound_convex_ergodic(1.0, 1.0, 0.1, 0.0, 4)
    with pytest.raises(ValueError):
        bound_fast_convex(1.0, 1.0, 0.1, 1.0, -1)
    with pytest.raises(ValueError):
        bound_fast_convex(1.0, 1.0, 0.1, 1.0, 4, rho=0.0)
    with pytest.raises(ValueError):
        holder_delta_opt(1.0, 0.5, 1.5, 1.0, 4)  # degree >= 1 + exponent
    with pytest.raises(ValueError):
        holder_delta_opt(1.0, 0.5, -0.1, 1.0, 4)
    with pytest.raises(ValueError):
        holder_delta_opt(1.0, 1.5, 0.5, 1.0, 4)  # exponent above 1
    with pytest.raises(ValueError):
        holder_delta_opt(1.0, 0.5, 0.5, 0.0, 4)
    # NaN passes a plain comparison, so non-finite parameters are caught apart
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lipschitz must be finite"):
            sample_curve("nonconvex_const",
                         {"lipschitz": bad, "degree": 0.5, "delta": 0.1, "gap": 1.0}, [1, 2])
        with pytest.raises(ValueError, match="delta must be finite"):
            bound_fast_convex(1.0, 0.5, bad, 1.0, 3)
        with pytest.raises(ValueError, match="rho must be finite"):
            bound_convex_ergodic(1.0, 1.0, 0.1, 1.0, 4, rho=bad)
        with pytest.raises(ValueError, match="gap must be finite"):
            holder_delta_opt(1.0, 0.5, 0.5, bad, 4)


def test_scalar_and_array_returns():
    # one rule for problems and rates alike: a float for one point or a
    # scalar k, an ndarray for a stack of points or an array of ks
    def check(call, one, stack):
        assert isinstance(call(one), float)
        out = call(stack)
        assert isinstance(out, np.ndarray) and out.shape == (len(stack),)

    curves = [partial(bound_nonconvex_const, 1.0, 1.0, 0.1, 1.0),
              partial(rho_opt_horizon, 1.0, 1.5, 0.1, 1.0),
              partial(bound_nonconvex_horizon, 1.0, 1.5, 0.1, 1.0),
              partial(bound_convex_ergodic, 1.0, 0.5, 0.1, 2.0),
              partial(bound_convex_ergodic, 1.0, 0.5, 0.1, 2.0, rho=0.5),
              partial(rho_opt_fast, 2.0, 0.5, 0.1),
              partial(bound_fast_convex, 1.0, 0.5, 0.1, 2.0),
              partial(bound_fast_convex, 1.0, 0.5, 0.1, 2.0, rho=0.5)]
    for nu in (0.5, 1.0):  # holder_delta_opt's two branches, each half of its pair
        curves += [lambda k, nu=nu, half=half: holder_delta_opt(1.0, nu, 0.5, 1.0, k)[half]
                   for half in (0, 1)]
    for curve in curves:
        check(curve, 3, np.array([1.0, 2.0]))
    gen = np.random.default_rng(0)
    problems = [generate_logsum_instance(4, 9, 2.0, seed=0),
                generate_quadratic_instance(4, conditioning=2.0, seed=0),
                generate_holder_instance(4, 0.5, seed=0)]
    calls = [p.value for p in problems] + [lambda x, p=p: p.value_and_gradient(x)[0]
                                           for p in problems]
    calls.append(SaddleProblem(gen.standard_normal((4, 3)), gen.standard_normal(3), 2.0).value)
    points = gen.uniform(-1.0, 1.0, (2, 4))
    for call in calls:
        check(call, points[0], points)


# ------------------------------------------------------------------ curves


def test_sample_curve_dispatch_matches_direct_calls():
    ks = np.array([1.0, 10.0, 100.0])
    cases = {
        "nonconvex_const": (
            dict(lipschitz=1.0, degree=1.0, delta=0.1, gap=1.0),
            bound_nonconvex_const(1.0, 1.0, 0.1, 1.0, ks)),
        "nonconvex_horizon": (
            dict(lipschitz=1.0, degree=1.0, delta=0.1, gap=1.0),
            bound_nonconvex_horizon(1.0, 1.0, 0.1, 1.0, ks)),
        "convex_ergodic": (
            dict(lipschitz=1.0, degree=1.0, delta=0.1, radius=2.0, rho=0.5),
            bound_convex_ergodic(1.0, 1.0, 0.1, 2.0, ks, rho=0.5)),
        "convex_ergodic_opt_rho": (
            dict(lipschitz=1.0, degree=1.0, delta=0.1, radius=2.0),
            bound_convex_ergodic(1.0, 1.0, 0.1, 2.0, ks)),
        "fast_convex": (
            dict(lipschitz=1.0, degree=1.0, delta=0.1, radius=2.0, rho=0.5),
            bound_fast_convex(1.0, 1.0, 0.1, 2.0, ks, rho=0.5)),
        "fast_convex_opt_rho": (
            dict(lipschitz=1.0, degree=1.0, delta=0.1, radius=2.0),
            bound_fast_convex(1.0, 1.0, 0.1, 2.0, ks)),
        "holder_rate": (
            dict(holder_constant=1.0, exponent=0.5, degree=0.5, gap=1.0),
            holder_delta_opt(1.0, 0.5, 0.5, 1.0, ks)[1]),
    }
    assert set(cases) == set(CURVE_KINDS)
    for kind, (params, expect) in cases.items():
        values = sample_curve(kind, params, ks)
        assert isinstance(values, np.ndarray) and values.shape == ks.shape
        assert np.allclose(values, expect, rtol=1e-15)


def test_sample_curve_strict_parameters():
    ks = [1.0, 2.0]
    with pytest.raises(ValueError):
        sample_curve("bogus_kind", {}, ks)
    with pytest.raises(ValueError):
        sample_curve("nonconvex_const", dict(lipschitz=1.0, degree=1.0, delta=0.1), ks)
    with pytest.raises(ValueError):
        sample_curve("nonconvex_const",
                     dict(lipschitz=1.0, degree=1.0, delta=0.1, gap=1.0, extra=3.0), ks)


# ---------------------------------------------------- every kind against a run
#
# Each case runs a solver under its kind's hypotheses and reads the bound
# through sample_curve, so each row of the curve table, not only the
# function behind it, is checked against a run.  A bound tuned for a
# horizon is read at the step it was tuned for: a trace's index k counts
# k + 1 steps, as the bounds' k does.


def _under(kind, parameters, ks, observed):
    """Assert observed stays under the kind's curve at ks."""
    ratio = np.asarray(observed, dtype=float) / sample_curve(kind, parameters, ks)
    assert np.all(ratio <= 1.0), (kind, parameters, float(ratio.max()))


def _ergodic_gaps(problem, oracle, config, x0):
    """F at the running averages of x_1 .. x_k, minus F*, for k = 1 .. K, h = 0."""
    trace = prox_gradient(problem.value, oracle, ProxFunction.zero(), config, x0)
    ks = np.arange(1, config.max_iters + 1)
    return problem.value(np.cumsum(trace.iterates[1:], axis=0) / ks[:, None]) - problem.f_lower


def _nonconvex_const():
    # a noisy logsum run at the canonical weight rho = L, at every step
    prob = generate_logsum_instance(16, 32, 4.0, seed=0)
    x0, delta, K = np.zeros(16), 0.5, 300
    params = dict(lipschitz=prob.lipschitz, degree=1.0, delta=delta,
                  gap=prob.value(x0) - prob.f_lower)
    runs = prox_gradient(prob.value, [NoisyGradientOracle(prob, noise_bound=delta)] * 3,
                         ProxFunction.l1_ball(4.0),
                         [ScheduleConfig(max_iters=K, rho=prob.lipschitz)] * 3, x0,
                         rng=[np.random.default_rng(seed) for seed in range(3)])
    for trace in runs:
        _under("nonconvex_const", params, np.arange(K), trace.min_gm_sq)


def _nonconvex_horizon():
    # rho = rho_opt_horizon at the last step: the fig1 instance at q = 1, and
    # the weakly smooth family at q in [1, 1 + nu), its oracle's own degree
    prob = generate_logsum_instance(64, 128, 4.0, seed=0)
    x0 = np.zeros(64)
    gap = prob.value(x0) - prob.f_lower
    for K in (300, 3000):
        runs = [(sigma, seed) for sigma in (0.1, 1.0, 3.0) for seed in range(3)]
        traces = prox_gradient(
            prob.value, [NoisyGradientOracle(prob, sigma) for sigma, _ in runs],
            ProxFunction.l1_ball(4.0),
            [ScheduleConfig(rho=rho_opt_horizon(prob.lipschitz, 1.0, sigma, gap, K - 1),
                            max_iters=K) for sigma, _ in runs],
            x0, rng=[np.random.default_rng(seed) for _, seed in runs])
        for (sigma, _), trace in zip(runs, traces):
            _under("nonconvex_horizon",
                   dict(lipschitz=prob.lipschitz, degree=1.0, delta=sigma, gap=gap),
                   [K - 1], trace.min_gm_sq[-1])
    x0 = np.full(16, 3.0)
    for nu in (0.5, 0.8):
        problem = generate_holder_instance(16, nu, seed=1)
        gap = problem.value(x0) - problem.f_lower
        oracles = [HolderOracle(problem, q, delta)
                   for q in (1.0, 1.0 + nu / 2.0) for delta in (1e-3, 0.1)]
        for K in (300, 3000):
            traces = prox_gradient(
                problem.value, oracles, ProxFunction.zero(),
                [ScheduleConfig(rho=rho_opt_horizon(o.certificate.lipschitz, o.certificate.degree,
                                                    o.certificate.delta, gap, K - 1),
                                max_iters=K) for o in oracles],
                x0, rng=[None] * len(oracles))
            for oracle, trace in zip(oracles, traces):
                cert = oracle.certificate
                _under("nonconvex_horizon", dict(lipschitz=cert.lipschitz, degree=cert.degree,
                                                 delta=cert.delta, gap=gap),
                       [K - 1], trace.min_gm_sq[-1])


def _convex_ergodic():
    # the averaged iterates at three weights, at every step, inside the
    # hypothesis at q = 1 and 0.5
    for q in (1.0, 0.5):
        problem, x0, radius, oracles = _convex_setting(q)
        for oracle in oracles:
            cert = oracle.certificate
            for rho in (0.1, 1.0, 10.0):
                gaps = _ergodic_gaps(problem, oracle, ScheduleConfig(rho=rho, max_iters=2000), x0)
                _under("convex_ergodic", dict(lipschitz=cert.lipschitz, degree=q,
                                              delta=cert.delta, radius=radius, rho=rho),
                       np.arange(1, 2001), gaps)


def _convex_ergodic_opt_rho():
    # the display form bounds the run at the weight delta*(K/R^2)^((2-q)/2)
    # that minimizes the explicit-weight bound at K, read at K only: at one
    # weight for every k it is no bound
    for q in (1.0, 0.5):
        problem, x0, radius, oracles = _convex_setting(q)
        for oracle in oracles:
            cert = oracle.certificate
            for K in (300, 2000):
                rho = cert.delta * (K / radius ** 2) ** ((2.0 - q) / 2.0)
                gaps = _ergodic_gaps(problem, oracle, ScheduleConfig(rho=rho, max_iters=K), x0)
                _under("convex_ergodic_opt_rho", dict(lipschitz=cert.lipschitz, degree=q,
                                                      delta=cert.delta, radius=radius),
                       [K], gaps[-1])


def _convex_setting(degree):
    """The convex bounds' hypothesis: a convex weakly smooth problem whose
    exact gradient, HolderOracle at the degree, certifies both sides at each
    delta > 0.  The start x0 and R = ||x0 - x*||, x* the centers."""
    problem = generate_holder_instance(16, 0.5, seed=4)
    x0 = np.full(16, 3.0)
    oracles = [HolderOracle(problem, degree, delta) for delta in (0.01, 0.1, 1.0)]
    # the noisy oracle of gate test_07 and test_09 claims no lower side: a
    # case moved to it fails here
    assert all(oracle.certificate.convex_lower_bound for oracle in oracles)
    return problem, x0, float(np.linalg.norm(x0 - problem.centers)), oracles


def _fast_convex():
    # three deltas and three horizons, fixed before any result was seen;
    # rho is retuned for each delta and horizon
    problem, x0, radius, oracles = _convex_setting(1.0)
    tails = []
    for K in (500, 1581, 5000):
        rhos = [float(rho_opt_fast(radius, 1.0, o.certificate.delta, K)) for o in oracles]
        runs = fast_prox_gradient(problem.value, oracles, ProxFunction.zero(),
                                  [ScheduleConfig(rho=rho, max_iters=K) for rho in rhos], x0,
                                  rng=[None] * len(oracles))
        tail = []
        for oracle, rho, trace in zip(oracles, rhos, runs):
            cert = oracle.certificate
            gaps = trace.objective_y - problem.f_lower
            # the fixed-rho bound holds at every step of every run
            _under("fast_convex", dict(lipschitz=cert.lipschitz, degree=1.0, delta=cert.delta,
                                       radius=radius, rho=rho), np.arange(K), gaps)
            tail.append(gaps[K - K // 10:].mean())
        tails.append(float(np.median(tail)))
    # and the typical late gap falls as the horizon grows
    assert np.all(np.diff(tails) < 0.0), tails


def _fast_convex_opt_rho():
    # the same setting at rho = rho_opt_fast of the last step, read there
    problem, x0, radius, oracles = _convex_setting(1.0)
    for K in (500, 1581):
        runs = fast_prox_gradient(
            problem.value, oracles, ProxFunction.zero(),
            [ScheduleConfig(rho=float(rho_opt_fast(radius, 1.0, o.certificate.delta, K - 1)),
                            max_iters=K) for o in oracles],
            x0, rng=[None] * len(oracles))
        for oracle, trace in zip(oracles, runs):
            cert = oracle.certificate
            _under("fast_convex_opt_rho", dict(lipschitz=cert.lipschitz, degree=1.0,
                                               delta=cert.delta, radius=radius),
                   [K - 1], trace.objective_y[-1] - problem.f_lower)


def _holder_rate():
    # the weakly smooth family is where the degree is the oracle's own: one
    # exact gradient certifies every q < 1 + nu, with delta tuned for the
    # last step and its own L_q.  Each degree's run stays under its own
    # constant-schedule curve at every step, and at the last step that
    # curve is the holder rate.  Neither the runs nor the curves order by q
    # on this family, so no ordering is claimed
    problem = generate_holder_instance(16, 0.5, seed=4)
    holder, nu = problem.holder_constant, problem.exponent
    x0 = np.full(16, 3.0)
    gap = problem.value(x0) - problem.f_lower
    degrees = (0.0, 0.5, 1.0, 1.25, 1.45)
    for horizon in (316, 1000, 3162):
        deltas = [float(holder_delta_opt(holder, nu, q, gap, horizon - 1)[0]) for q in degrees]
        lips = [holder_smoothing_constant(holder, nu, q, d) for q, d in zip(degrees, deltas)]
        traces = prox_gradient(problem.value,
                               [HolderOracle(problem, q, d) for q, d in zip(degrees, deltas)],
                               ProxFunction.zero(),
                               [ScheduleConfig(rho=lip, max_iters=horizon) for lip in lips],
                               x0, rng=[None] * len(degrees))
        for q, delta, lip, trace in zip(degrees, deltas, lips, traces):
            const = dict(lipschitz=lip, degree=q, delta=delta, gap=gap)
            _under("nonconvex_const", const, np.arange(horizon), trace.min_gm_sq)
            rate = dict(holder_constant=holder, exponent=nu, degree=q, gap=gap)
            _under("holder_rate", rate, [horizon - 1], trace.min_gm_sq[-1])
            assert sample_curve("holder_rate", rate, [horizon - 1]) == pytest.approx(
                sample_curve("nonconvex_const", const, [horizon - 1]), rel=1e-12)


_RUN_CASES = {
    "nonconvex_const": _nonconvex_const,
    "nonconvex_horizon": _nonconvex_horizon,
    "convex_ergodic": _convex_ergodic,
    "convex_ergodic_opt_rho": _convex_ergodic_opt_rho,
    "fast_convex": _fast_convex,
    "fast_convex_opt_rho": _fast_convex_opt_rho,
    "holder_rate": _holder_rate,
}


@pytest.mark.parametrize("kind", CURVE_KINDS)
def test_every_curve_kind_bounds_a_run(kind):
    # a kind added without a run case fails here
    assert tuple(_RUN_CASES) == CURVE_KINDS
    _RUN_CASES[kind]()


def test_curve_csv_round_trip(tmp_path):
    ks = np.array([1.0, 10.0, 100.0])
    values = sample_curve("nonconvex_const", dict(lipschitz=1.0, degree=1.0, delta=0.1, gap=1.0),
                          ks)
    path = tmp_path / "curve.csv"
    write_csv(path, ("k", "bound"), (ks, values))
    raw = path.read_bytes()
    assert b"\r" not in raw
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "bound"]
    back = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert np.array_equal(back[:, 0], ks)         # %.17g round-trips doubles
    assert np.array_equal(back[:, 1], values)
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(path, ("k", "bound"), (ks, values[:-1]))


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, -1e300])
_ROW = st.tuples(st.integers(-2 ** 53, 2 ** 53), _FINITE, _FINITE,
                 st.text(st.characters(codec="utf-8", exclude_characters=",\r\n")))


@settings(database=None, deadline=None,  # each example writes a file
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_ROW, min_size=1, max_size=20))
def test_write_csv_round_trips_numbers_bitwise_and_text_verbatim(tmp_path, rows):
    ks, xs, ys, texts = (list(col) for col in zip(*rows))
    path = tmp_path / "table.csv"
    write_csv(path, ("k", "x", "y", "label"), (ks, np.array(xs), ys, texts))
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == "k,x,y,label"
    assert lines[-1] == ""
    assert len(lines) == len(rows) + 2
    for line, (k, x, y, text) in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == 4
        assert int(fields[0]) == k
        assert float(fields[1]).hex() == x.hex()  # bitwise, the sign of zero included
        assert float(fields[2]).hex() == y.hex()
        assert fields[3] == text


def _reference_csv(header, columns):
    """write_csv's bytes as each row used to be rendered: one str.format
    per row, %.17g for a number and text verbatim."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    fmt = ",".join("{}" if c and isinstance(c[0], str) else "{:.17g}" for c in cols) + "\n"
    return (",".join(header) + "\n" + "".join(fmt.format(*row) for row in zip(*cols))).encode()


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64).tolist()


# values whose text a value comparison would get wrong, or that print oddly:
# both zeros, NaNs of several payloads and signs, infinities, subnormals
_ODD = _bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
             0x7FF4000000000ABC, 0xFFFFFFFFFFFFFFFF) + [
    0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    -1.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308]


@st.composite
def _table(draw):
    """A header and equal-length columns of every kind write_csv takes, drawn
    from a few values each so that runs of repeats are common."""
    rows = draw(st.integers(0, 40))

    def column(values):
        pool = draw(st.lists(values, min_size=1, max_size=4))
        return draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))

    def steps():
        start = draw(st.integers(-2 ** 53, 2 ** 53 - rows))
        return range(start, start + rows)

    floats = st.sampled_from(_ODD) | st.floats()
    ints = st.integers(-2 ** 53, 2 ** 53)
    kinds = [
        lambda: np.array(column(floats)),
        lambda: column(floats),
        lambda: [0.0, -0.0] * (rows // 2) + [0.0] * (rows % 2),
        lambda: column(ints),
        lambda: np.array(column(ints), dtype=np.int64),
        steps,
        lambda: column(st.text(st.characters(codec="utf-8", exclude_characters=",\r\n"),
                               max_size=3)),
        lambda: [""] * rows,
    ]
    picks = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))
    columns = [kind() for kind in picks]
    return tuple(f"c{i}" for i in range(len(columns))), columns


@settings(database=None, deadline=None, max_examples=200,  # each example writes a file
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_table())
def test_write_csv_writes_the_per_row_rendering_bytes(tmp_path, table):
    # write_csv formats whole columns through format_numbers and joins them
    # into lines; the bytes must be those of formatting each row on its own
    header, columns = table
    path = tmp_path / "table.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == _reference_csv(header, columns)


def test_format_numbers_compares_bits_not_values():
    nans = _bits(0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000)
    assert format_numbers([0.0, -0.0, -0.0, 0.0, *nans, 1, 1.0, 2 ** 53 + 1]) == [
        "0", "-0", "-0", "0", "nan", "nan", "nan", "1", "1", "9007199254740992"]
    assert format_numbers([]) == [] and format_numbers(np.zeros(0)) == []


@settings(database=None, deadline=None, max_examples=300)
@given(values=st.lists(st.sampled_from(_ODD + [3.0, 2.0, 1.0, 0.5]) | st.floats(),
                       max_size=60))
def test_running_min_text_is_the_formatted_running_minimum(values):
    # a sweep takes a trace's min_gm_sq text from its gm_sq text; repeats of
    # a few values make ties, and _ODD holds both zeros, NaNs and subnormals
    assert running_min_text(values, format_numbers(values)) == format_numbers(
        np.minimum.accumulate(np.array(values, dtype=float)))


def test_running_min_text_on_ties_and_signed_zeros():
    for values in ([3.0, 1.0, 2.0, 1.0, 0.5, 0.5, 4.0], [1.0, 0.0, -0.0, 0.0, -0.0, 2.0],
                   [-0.0, 0.0, -0.0], [2.0], []):
        want = format_numbers(np.minimum.accumulate(np.array(values, dtype=float)))
        assert running_min_text(values, format_numbers(values)) == want, values
    # the texts come from the entries, so no number is formatted again
    assert running_min_text([3.0, 1.0, 2.0, 0.0], ["a", "b", "c", "d"]) == ["a", "b", "b", "d"]
