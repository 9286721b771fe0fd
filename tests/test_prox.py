"""Prox layer: shrinkage, l1-ball projection, prox optimality."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxiq import ProxFunction, project_l1_ball
from proxiq.prox import project_l1_rows, soft_threshold

# radii that are not > 0, NaN among them
_BAD_RADII = (math.nan, 0.0, -1.0)


def bisect_l1_projection(x, radius, iters=200):
    """Reference projection via bisection on the shrinkage amount."""
    x = np.asarray(x, dtype=float)
    if np.abs(x).sum() <= radius:
        return x.copy()
    lo, hi = 0.0, float(np.abs(x).max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(np.abs(x) - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    return soft_threshold(x, 0.5 * (lo + hi))


def test_soft_threshold_hand_values():
    out = soft_threshold([3.0, -0.5, 0.2], 1.0)
    assert np.array_equal(out, [2.0, 0.0, 0.0])
    x = np.array([1.0, -2.0])
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_project_l1_ball_hand_values():
    # (3, 1) onto radius 2: shrink by 1, (3-t) + (1-t) = 2 at t = 1
    assert np.array_equal(project_l1_ball([3.0, 1.0], 2.0), [2.0, 0.0])
    # (2, 1, 1) onto radius 2: full support, t = (4 - 2)/3
    out = project_l1_ball([2.0, 1.0, 1.0], 2.0)
    assert np.allclose(out, [4.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    # interior points come back untouched, as a fresh copy
    x = np.array([0.5, -0.5])
    out = project_l1_ball(x, 2.0)
    assert np.array_equal(out, x)
    assert out is not x
    for radius in _BAD_RADII:
        with pytest.raises(ValueError, match="radius must be positive"):
            project_l1_ball([5.0, -3.0], radius)


def test_projection_matches_bisection_reference():
    rng = np.random.default_rng(17)
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        radius = float(rng.uniform(0.5, 4.0))
        x = rng.standard_normal(dim) * rng.uniform(0.1, 5.0)
        fast = project_l1_ball(x, radius)
        slow = bisect_l1_projection(x, radius)
        assert np.allclose(fast, slow, atol=1e-9)
        assert np.abs(fast).sum() <= radius * (1.0 + 1e-12)


def test_projection_beats_sampled_feasible_points():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.standard_normal(6) * 3.0
        proj = project_l1_ball(x, 1.5)
        best = np.linalg.norm(proj - x)
        for _ in range(200):
            z = rng.standard_normal(6)
            z *= rng.uniform(0.0, 1.5) / max(np.abs(z).sum(), 1e-12)
            assert np.linalg.norm(z - x) >= best - 1e-12
        # projecting twice changes nothing beyond rounding (the first output
        # can land an ulp outside the ball)
        assert np.allclose(project_l1_ball(proj, 1.5), proj, atol=1e-12)


# l1 norm of the input over the radius: inside, within 1e-9 of the boundary
# on either side, and far outside
_NORM_RATIO = st.one_of(st.floats(0.0, 0.999), st.floats(1.0 - 1e-9, 1.0 + 1e-9),
                        st.floats(1.0, 1e8))


@settings(database=None, deadline=None, max_examples=500)
@given(direction=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64),
       radius=st.floats(1e-2, 1e2), ratio=_NORM_RATIO)
def test_projection_lands_in_the_ball_and_is_idempotent(direction, radius, ratio):
    # the solvers take h at 0 on every prox output without checking it, which
    # holds only if every projection lands in the ball; far outside, the
    # threshold cancels and needs its correction
    direction = np.array(direction)
    norm = float(np.abs(direction).sum())
    assume(norm > 1e-6)
    x = direction * (ratio * radius / norm)
    ball = ProxFunction.l1_ball(radius)
    proj = project_l1_ball(x, radius)
    assert ball.contains(proj)
    if ball.contains(x):  # inside, or outside by less than the slack
        assert np.array_equal(proj, x)
    assert np.array_equal(project_l1_ball(proj, radius), proj)


def test_projection_far_outside_stays_feasible():
    # found by the property above: at 3.2e7 times the radius the uncorrected
    # threshold left the output 6.5e-8 outside a ball of radius 33.3
    rng = np.random.default_rng(5)
    for scale in (1e6, 3e7, 1e8):
        for _ in range(200):
            radius = float(rng.uniform(0.01, 100.0))
            x = rng.standard_normal(int(rng.integers(1, 65)))
            x *= scale * radius / np.abs(x).sum()
            proj = project_l1_ball(x, radius)
            assert ProxFunction.l1_ball(radius).contains(proj)
            assert np.array_equal(project_l1_ball(proj, radius), proj)


def test_projection_onto_a_tiny_ball():
    # the membership slack is relative, so a ball of radius 1e-10 still
    # projects a point at ten times its radius
    for radius in (1e-10, 1e-14):
        proj = project_l1_ball([10.0 * radius, 0.0], radius)
        assert np.abs(proj).sum() <= radius * (1.0 + 1e-9)
        assert proj[0] == pytest.approx(radius, rel=1e-12) and proj[1] == 0.0
        assert not ProxFunction.l1_ball(radius).contains([10.0 * radius, 0.0])


@settings(database=None, deadline=None, max_examples=200)
@given(rows=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
                     min_size=1, max_size=12),
       radius=st.floats(1e-2, 1e2), ratios=st.lists(_NORM_RATIO, min_size=12, max_size=12))
def test_row_projection_equals_projection_of_each_row(rows, radius, ratios):
    points = np.array(rows)
    norms = np.abs(points).sum(axis=1)
    assume(np.all(norms > 1e-6))
    points *= (np.array(ratios[:len(rows)]) * radius / norms)[:, None]
    stacked = project_l1_rows(points, radius)
    for point, got in zip(points, stacked):
        assert got.tobytes() == project_l1_ball(point, radius).tobytes()
    for h in (ProxFunction.zero(), ProxFunction.l1_ball(radius)):
        got = project_l1_rows(points, h.radius)
        for point, row in zip(points, got):
            assert row.tobytes() == project_l1_ball(point, h.radius).tobytes()
            # the solvers take h as 0 at every prox output without evaluating it
            assert h.value(row) == 0.0


def test_row_projection_moves_only_the_rows_outside():
    points = np.array([[3.0, 1.0], [0.5, -0.5], [-2.0, 1.0], [1.0, 1.0]])
    out = project_l1_rows(points, 2.0)
    assert out is not points
    assert np.array_equal(out, [[2.0, 0.0], [0.5, -0.5], [-1.5, 0.5], [1.0, 1.0]])
    for radius in _BAD_RADII:
        with pytest.raises(ValueError, match="radius must be positive"):
            project_l1_rows(points, radius)


def test_prox_function_kinds_and_values():
    zero = ProxFunction.zero()
    assert zero == ProxFunction(math.inf)
    assert zero.value([5.0, 5.0]) == 0.0
    assert zero.contains([1e9])
    assert zero.contains([math.inf, -math.inf])
    assert not zero.contains([math.nan])

    ball = ProxFunction.l1_ball(2.0)
    assert ball.value([1.0, 0.5]) == 0.0
    assert ball.value([3.0, 1.0]) == np.inf
    assert ball.contains([2.0 * (1.0 + 1e-10), 0.0])  # slack for fresh projections
    assert not ball.contains([3.0, 0.0])

    for radius in _BAD_RADII:
        with pytest.raises(ValueError, match="radius must be positive"):
            ProxFunction.l1_ball(radius)


def test_prox_at_each_radius():
    # at radius inf, h = 0, every row is inside the ball and comes back as a
    # fresh bitwise copy, signed zeros, infinities and NaNs included
    points = np.array([[3.0, -0.5, 0.2], [-0.0, math.inf, -math.inf],
                       [math.nan, -0.0, 1e300], [0.0, 0.0, 0.0]])
    out = project_l1_rows(points, ProxFunction.zero().radius)
    assert out is not points
    assert out.tobytes() == points.tobytes()
    x = points[0]
    out = project_l1_ball(x, math.inf)
    assert out.tobytes() == x.tobytes()
    assert out is not x

    # at a finite radius the point outside is shrunk onto the ball
    assert np.array_equal(project_l1_ball(x, ProxFunction.l1_ball(1.0).radius), [1.0, 0.0, 0.0])


def test_prox_minimizes_its_objective():
    rng = np.random.default_rng(31)
    for h in (ProxFunction.zero(), ProxFunction.l1_ball(1.5)):
        for _ in range(10):
            x = rng.standard_normal(5) * 2.0
            p = project_l1_ball(x, h.radius)
            base = 0.5 * float((p - x) @ (p - x)) + h.value(p)
            for _ in range(200):
                z = p + rng.standard_normal(5) * rng.uniform(1e-4, 1.0)
                trial = 0.5 * float((z - x) @ (z - x)) + h.value(z)
                assert trial >= base - 1e-12
