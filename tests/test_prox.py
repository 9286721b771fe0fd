"""Prox layer: shrinkage, l1-ball projection, prox optimality."""

import numpy as np
import pytest

from proxiq import ProxFunction, project_l1_ball, prox_apply, soft_threshold


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
    with pytest.raises(ValueError):
        project_l1_ball(x, 0.0)


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


def test_prox_function_kinds_and_values():
    zero = ProxFunction.zero()
    assert zero.value([5.0, 5.0]) == 0.0
    assert zero.contains([1e9])

    norm = ProxFunction.l1_norm(0.3)
    assert norm.value([1.0, -2.0]) == pytest.approx(0.9)

    ball = ProxFunction.l1_ball(2.0)
    assert ball.value([1.0, 0.5]) == 0.0
    assert ball.value([3.0, 1.0]) == np.inf
    assert ball.contains([2.0 * (1.0 + 1e-10), 0.0])  # slack for fresh projections
    assert not ball.contains([3.0, 0.0])

    with pytest.raises(ValueError):
        ProxFunction("huber")
    with pytest.raises(ValueError):
        ProxFunction.l1_norm(0.0)
    with pytest.raises(ValueError):
        ProxFunction.l1_ball(-1.0)


def test_prox_apply_each_kind():
    x = np.array([3.0, -0.5, 0.2])
    out = prox_apply(ProxFunction.zero(), 1.0, x)
    assert np.array_equal(out, x)
    assert out is not x

    # prox of gamma * w * ||.||_1 shrinks by gamma * w
    out = prox_apply(ProxFunction.l1_norm(2.0), 0.5, x)
    assert np.array_equal(out, soft_threshold(x, 1.0))

    # the ball projection does not depend on the step length
    ball = ProxFunction.l1_ball(1.0)
    assert np.array_equal(prox_apply(ball, 0.1, x), prox_apply(ball, 10.0, x))

    with pytest.raises(ValueError):
        prox_apply(ball, 0.0, x)


def test_prox_minimizes_its_objective():
    rng = np.random.default_rng(31)
    h = ProxFunction.l1_norm(0.7)
    gamma = 0.4
    for _ in range(10):
        x = rng.standard_normal(5) * 2.0
        p = prox_apply(h, gamma, x)
        base = 0.5 * float((p - x) @ (p - x)) + gamma * h.value(p)
        for _ in range(200):
            z = p + rng.standard_normal(5) * rng.uniform(1e-4, 1.0)
            trial = 0.5 * float((z - x) @ (z - x)) + gamma * h.value(z)
            assert trial >= base - 1e-12
