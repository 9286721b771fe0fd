"""Rate evaluators: spot values, algebraic identities, curve sampling."""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxiq import (
    CURVE_KINDS,
    bound_convex_ergodic,
    bound_fast_convex,
    bound_nonconvex_const,
    bound_nonconvex_horizon,
    bound_nonconvex_schedule,
    holder_delta_opt,
    holder_smoothing_constant,
    nonconvex_plateau,
    rho_opt_fast,
    rho_opt_horizon,
    sample_curve,
)
from proxiq.rates import write_csv


# -------------------------------------------------------------- spot values


def test_nonconvex_spot_values():
    # q=0, unit constants, k=3: lead 2*1*1/4, noise (2-0)*1*0.5/2 = 0.5 + 1.0
    assert bound_nonconvex_schedule(1.0, 1.0, 0.0, 0.5, 0.0, 0.0, 1.0, 3) == 1.5
    # q=1, L=1, delta=0.1, gap=1, k=0: 2*2*1 + 2*0.01
    assert bound_nonconvex_const(1.0, 1.0, 0.1, 1.0, 0) == pytest.approx(4.02, abs=1e-15)
    # plateau: 2*L*delta at q=0, 2*delta^2 at q=1 and L=1
    assert nonconvex_plateau(1.0, 0.0, 0.3) == pytest.approx(0.6, abs=1e-15)
    assert nonconvex_plateau(1.0, 1.0, 0.3) == pytest.approx(0.18, abs=1e-15)
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
                a = bound_nonconvex_schedule(lip, lip, q, delta, 0.0, 0.0, 2.0, ks)
                b = bound_nonconvex_const(lip, q, delta, 2.0, ks)
                assert np.allclose(a, b, rtol=1e-12)


def test_horizon_bound_is_schedule_at_optimal_weight():
    for q in (1.0, 1.3, 1.7):
        for k in (0, 3, 50, 999):
            rho = rho_opt_horizon(2.0, q, 0.25, 1.5, k)
            direct = bound_nonconvex_schedule(2.0, rho, q, 0.25, 0.0, 0.0, 1.5, k)
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
        grid_min = min(bound_nonconvex_schedule(2.0, r, q, delta, 0.0, 0.0, 1.5, k)
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
            floors = [nonconvex_plateau(lip, q, delta) for q in qs]
            assert all(a > b for a, b in zip(floors[:-1], floors[1:]))


def test_schedule_noise_decays_only_when_beta_exceeds_zeta():
    lead_only = bound_nonconvex_schedule(1.0, 1.0, 1.0, 0.0, 0.5, 0.0, 1.0, 1e6)
    decaying = bound_nonconvex_schedule(1.0, 1.0, 1.0, 0.4, 0.5, 0.0, 1.0, 1e6)
    assert decaying - lead_only < 1e-2  # the accuracy term has washed out
    growing = bound_nonconvex_schedule(1.0, 1.0, 1.0, 0.4, 0.0, 0.5, 1.0, np.array([100.0, 1e6]))
    assert growing[1] > growing[0]


def test_const_bound_decreases_to_plateau():
    ks = np.arange(0, 2000)
    vals = bound_nonconvex_const(2.0, 0.5, 0.2, 1.0, ks)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] > nonconvex_plateau(2.0, 0.5, 0.2)
    assert vals[-1] == pytest.approx(nonconvex_plateau(2.0, 0.5, 0.2), rel=1e-2)


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
        bound_nonconvex_schedule(1.0, 1.0, 2.0, 0.1, 0.0, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        bound_nonconvex_schedule(1.0, 0.0, 1.0, 0.1, 0.0, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        bound_nonconvex_schedule(1.0, 1.0, 1.0, 0.1, 1.0, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        bound_nonconvex_schedule(1.0, 1.0, 1.0, -0.1, 0.0, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        bound_nonconvex_const(0.0, 1.0, 0.1, 1.0, 1)
    with pytest.raises(ValueError):
        bound_nonconvex_const(1.0, 1.0, 0.1, -1.0, 1)
    with pytest.raises(ValueError):
        rho_opt_horizon(1.0, 0.5, 0.1, 1.0, 1)  # needs degree >= 1
    with pytest.raises(ValueError):
        rho_opt_horizon(1.0, 1.0, 0.1, 0.0, 1)
    with pytest.raises(ValueError):
        bound_convex_ergodic(1.0, 1.0, 0.1, 1.0, 0)  # averaged gap needs k >= 1
    with pytest.raises(ValueError):
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


def test_scalar_and_array_returns():
    assert isinstance(bound_nonconvex_const(1.0, 1.0, 0.1, 1.0, 3), float)
    out = bound_nonconvex_const(1.0, 1.0, 0.1, 1.0, np.array([1.0, 2.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)


# ------------------------------------------------------------------ curves


def test_sample_curve_dispatch_matches_direct_calls():
    ks = np.array([1.0, 10.0, 100.0])
    cases = {
        "nonconvex_schedule": (
            dict(lipschitz=1.0, rho=2.0, degree=1.0, delta=0.1, beta=0.5, zeta=0.0, gap=1.0),
            bound_nonconvex_schedule(1.0, 2.0, 1.0, 0.1, 0.5, 0.0, 1.0, ks)),
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
