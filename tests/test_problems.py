"""Problem families: values, gradients, constants, generators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from proxiq import (
    ExactOracle,
    HolderPowerProblem,
    LogSumProblem,
    QuadraticProblem,
    generate_holder_instance,
    generate_logsum_instance,
    generate_quadratic_instance,
    certify_oracle,
    sample_l1_ball,
)
from proxiq.harness import ball_pair_sampler
from proxiq.problems import _LEAF, _squared_frobenius


def finite_difference_gradient(value, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        out[i] = (value(x + e) - value(x - e)) / (2.0 * eps)
    return out


# ----------------------------------------------------------------- logsum


def test_logsum_hand_values():
    # rows (1,0),(0,2), targets (1,0) at x=(1,1): residuals (0,2),
    # value log(5), gradient rows.T @ (0, 4/5) = (0, 8/5)
    p = LogSumProblem(rows=np.array([[1.0, 0.0], [0.0, 2.0]]),
                      targets=np.array([1.0, 0.0]), radius=3.0)
    x = np.array([1.0, 1.0])
    assert p.value(x) == pytest.approx(np.log(5.0), abs=1e-15)
    assert np.allclose(p.gradient(x), [0.0, 1.6], atol=1e-15)
    assert p.lipschitz == 5.0
    assert p.dim == 2
    assert not p.convex
    assert p.f_lower == 0.0


def test_logsum_gradient_matches_finite_differences():
    p = generate_logsum_instance(6, 10, 2.0, seed=4)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = sample_l1_ball(rng, 6, 2.0)
        fd = finite_difference_gradient(p.value, x)
        assert np.allclose(p.gradient(x), fd, atol=1e-7)


def test_logsum_smoothness_constant_is_valid():
    p = generate_logsum_instance(6, 10, 2.0, seed=4)
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = sample_l1_ball(rng, 6, 2.0)
        y = sample_l1_ball(rng, 6, 2.0)
        lhs = np.linalg.norm(p.gradient(x) - p.gradient(y))
        assert lhs <= p.lipschitz * np.linalg.norm(x - y) * (1.0 + 1e-9)


@pytest.mark.xfail(strict=True, reason="lipschitz is sum ||row_i||**2, below the valid "
                                        "2*||rows||_2**2 on a single row")
def test_logsum_smoothness_constant_certifies_one_row():
    # log(1 + r**2) has curvature 2 at r = 0, twice the constant claimed here
    p = LogSumProblem(rows=np.array([[1.0]]), targets=np.array([0.0]), radius=1.0)
    report = certify_oracle(ExactOracle(p), p.value, ball_pair_sampler(1.0, 1),
                            pairs=400, rng=np.random.default_rng(0))
    assert report.certified, report.summary()


# entry scales: zeros, subnormals, ordinary numbers, and 1e150, whose
# squares near 1e300 leave little headroom before a sum overflows
_SCALES = {"zero": 0.0, "subnormal": 1e-310, "unit": 1.0, "huge": 1e150}


@settings(database=None, deadline=None, max_examples=60)
@given(rows=st.integers(1, 3),
       cols=st.sampled_from([_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF - 1, 2 * _LEAF,
                             2 * _LEAF + 1]) | st.integers(1, 300),
       scales=st.lists(st.sampled_from(sorted(_SCALES)), min_size=1, max_size=4),
       layout=st.sampled_from(["C", "F", "strided"]), seed=st.integers(0, 2 ** 16))
# Fortran order, where summing in C order would round differently
@example(rows=2, cols=_LEAF, scales=["unit"], layout="F", seed=0)
@example(rows=3, cols=300, scales=["unit"], layout="F", seed=4)
def test_squared_frobenius_is_the_sum_of_squares_bitwise(rows, cols, scales, layout, seed):
    # the leafwise sum copies NumPy's pairwise order, which no interface
    # promises; shapes run to just under, at and just over one and two
    # leaves, and a NumPy that sums in another order fails here
    rng = np.random.default_rng(seed)
    picks = rng.choice([_SCALES[name] for name in scales], size=(rows, 2 * cols))
    wide = rng.standard_normal((rows, 2 * cols)) * picks
    matrix = {"C": wide[:, :cols].copy(), "F": np.asfortranarray(wide[:, :cols]),
              "strided": wide[:, ::2]}[layout]
    assert _squared_frobenius(matrix).hex() == float((matrix ** 2).sum()).hex()


def _traced_peak(call):
    """call()'s result and the peak bytes tracemalloc saw allocated during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the wide benchmark's instance: rows is (2048, 1024), 16 MiB, and an array
# of its size on top of it would double the peak


def test_logsum_generator_builds_one_matrix():
    p, peak = _traced_peak(lambda: generate_logsum_instance(1024, 2048, 4.0, seed=0))
    assert p.rows.shape == (2048, 1024)
    assert peak < p.rows.nbytes + 2 ** 20


def test_logsum_lipschitz_needs_no_full_size_temporary():
    p = generate_logsum_instance(1024, 2048, 4.0, seed=0)
    lipschitz, peak = _traced_peak(lambda: p.lipschitz)
    assert peak < 2 ** 20
    assert lipschitz == float((p.rows ** 2).sum())


def test_logsum_generator_reproducible_and_grounded():
    a = generate_logsum_instance(8, 12, 2.0, seed=5)
    b = generate_logsum_instance(8, 12, 2.0, seed=5)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.x_true, b.x_true)
    c = generate_logsum_instance(8, 12, 2.0, seed=6)
    assert not np.array_equal(a.rows, c.rows)
    assert np.abs(a.x_true).sum() <= 2.0

    # zero observation noise puts the ground truth at the global minimum
    clean = generate_logsum_instance(8, 12, 2.0, noise_level=0.0, seed=5)
    assert clean.value(clean.x_true) == 0.0
    assert np.linalg.norm(clean.gradient(clean.x_true)) == 0.0


def test_logsum_validation():
    with pytest.raises(ValueError):
        LogSumProblem(rows=np.zeros((3, 2)), targets=np.zeros(2), radius=1.0)
    with pytest.raises(ValueError):
        LogSumProblem(rows=np.zeros((3, 2)), targets=np.zeros(3), radius=0.0)
    with pytest.raises(ValueError):
        generate_logsum_instance(0, 4, 1.0)
    with pytest.raises(ValueError):
        generate_logsum_instance(4, 4, -1.0)


_COORD = st.floats(-10.0, 10.0)


@settings(database=None, deadline=None)
@given(n=st.integers(1, 8), N=st.integers(1, 12), seed=st.integers(0, 2 ** 16),
       coords=st.lists(_COORD, min_size=8, max_size=8))
def test_logsum_fused_value_and_gradient_is_bitwise(n, N, seed, coords):
    p = generate_logsum_instance(n, N, 2.0, seed=seed)
    x = np.array(coords[:n])
    value, grad = p.value_and_gradient(x)
    assert value == p.value(x)
    assert np.array_equal(grad, p.gradient(x))
    # the separate two-pass gradient it replaced
    r = p.rows @ x - p.targets
    assert np.array_equal(grad, p.rows.T @ (2.0 * r / (1.0 + r * r)))


def test_sample_l1_ball_feasible_and_spread():
    rng = np.random.default_rng(21)
    samples = np.array([sample_l1_ball(rng, 4, 2.0) for _ in range(3000)])
    norms = np.abs(samples).sum(axis=1)
    assert norms.max() <= 2.0 * (1.0 + 1e-12)
    assert norms.max() > 1.9           # reaches near the boundary
    assert norms.min() < 0.5           # and the interior
    assert np.abs(samples.mean(axis=0)).max() < 0.1  # roughly centered


# -------------------------------------------------------------- quadratic


def test_quadratic_instance_constants():
    p = generate_quadratic_instance(16, conditioning=3.0, seed=8)
    sigma = np.linalg.svd(p.operator, compute_uv=False)
    assert sigma[0] == pytest.approx(1.0, abs=1e-12)
    assert sigma[0] / sigma[-1] == pytest.approx(3.0, rel=1e-10)
    assert p.lipschitz == pytest.approx(1.0, abs=1e-9)
    # the generator builds sigma_max = 1 exactly; the claimed L may exceed
    # it by rounding but never fall short of it
    for n in (1, 16, 32, 64):
        assert 1.0 <= generate_quadratic_instance(n).lipschitz <= 1.0 + 1e-12
    assert p.value(p.x_star) == pytest.approx(0.0, abs=1e-24)
    assert np.linalg.norm(p.gradient(p.x_star)) <= 1e-12
    assert p.f_star == 0.0
    assert p.f_lower == p.f_star
    assert p.convex


def test_quadratic_value_gradient_consistency():
    p = generate_quadratic_instance(5, conditioning=4.0, seed=3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(5)
        fd = finite_difference_gradient(p.value, x)
        assert np.allclose(p.gradient(x), fd, atol=1e-7)
        assert p.value(x) >= p.f_star


@settings(database=None, deadline=None)
@given(n=st.integers(1, 8), conditioning=st.floats(1.0, 1e3), seed=st.integers(0, 2 ** 16),
       coords=st.lists(_COORD, min_size=8, max_size=8))
def test_quadratic_fused_value_and_gradient_is_bitwise(n, conditioning, seed, coords):
    p = generate_quadratic_instance(n, conditioning=conditioning, seed=seed)
    x = np.array(coords[:n])
    value, grad = p.value_and_gradient(x)
    assert value == p.value(x)
    assert np.array_equal(grad, p.gradient(x))
    assert np.array_equal(grad, p.operator.T @ (p.operator @ x - p.offset))


def test_quadratic_reproducible_and_validated():
    a = generate_quadratic_instance(4, conditioning=2.0, seed=1)
    b = generate_quadratic_instance(4, conditioning=2.0, seed=1)
    assert np.array_equal(a.operator, b.operator)
    assert np.array_equal(a.x_star, b.x_star)
    with pytest.raises(ValueError):
        generate_quadratic_instance(0)
    with pytest.raises(ValueError):
        generate_quadratic_instance(4, conditioning=0.5)
    single = generate_quadratic_instance(1, conditioning=10.0, seed=0)
    assert single.lipschitz == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ power


def test_holder_power_hand_values():
    p = HolderPowerProblem(centers=np.zeros(1), exponent=0.5, holder_constant=2.0)
    # |4|^1.5 / 1.5 and gradient sign(4)*|4|^0.5
    assert p.value(np.array([4.0])) == pytest.approx(16.0 / 3.0, rel=1e-15)
    assert p.gradient(np.array([4.0]))[0] == pytest.approx(2.0, abs=1e-15)
    assert p.value(p.centers) == 0.0
    assert p.convex
    assert p.f_lower == 0.0
    with pytest.raises(ValueError):
        HolderPowerProblem(centers=np.zeros(2), exponent=0.0, holder_constant=1.0)
    with pytest.raises(ValueError):
        HolderPowerProblem(centers=np.zeros(2), exponent=0.5, holder_constant=0.0)


def test_holder_power_gradient_matches_finite_differences():
    p = generate_holder_instance(4, 0.7, seed=2)
    rng = np.random.default_rng(14)
    for _ in range(5):
        # keep probes away from the centers, where the gradient is nonsmooth
        x = p.centers + np.where(rng.standard_normal(4) > 0, 1.0, -1.0) * rng.uniform(0.5, 2.0, 4)
        fd = finite_difference_gradient(p.value, x)
        assert np.allclose(p.gradient(x), fd, atol=1e-6)


def test_holder_power_fused_value_and_gradient_is_bitwise():
    rng = np.random.default_rng(17)
    for nu in (0.1, 0.5, 0.9, 1.0):
        p = generate_holder_instance(6, nu, seed=5)
        # the centers themselves put every coordinate at the kink
        for x in [p.centers.copy(), *rng.uniform(-4.0, 4.0, size=(5, 6))]:
            value, grad = p.value_and_gradient(x)
            assert value == p.value(x)
            assert np.array_equal(grad, p.gradient(x))
            d = x - p.centers
            assert np.array_equal(grad, np.sign(d) * np.abs(d) ** nu)


def test_holder_constant_certified_on_fresh_pairs():
    p = generate_holder_instance(3, 0.5, seed=11)
    rng = np.random.default_rng(99)
    xs = rng.uniform(-4.0, 4.0, size=(2000, 3))
    ys = rng.uniform(-4.0, 4.0, size=(2000, 3))
    for x, y in zip(xs, ys):
        lhs = np.linalg.norm(p.gradient(x) - p.gradient(y))
        assert lhs <= p.holder_constant * np.linalg.norm(x - y) ** 0.5

    smooth = generate_holder_instance(3, 1.0, seed=11)
    assert smooth.holder_constant == 1.0
    with pytest.raises(ValueError):
        generate_holder_instance(3, 0.0)


def test_holder_constant_is_attained_on_the_diagonal():
    # x - c = a*1 and y - c = -a*1 reach the ratio 2**(1-nu) * n**((1-nu)/2)
    # exactly, so a constant below it is refuted and one above it is loose
    for n in (16, 64, 256):
        p = generate_holder_instance(n, 0.5, seed=4)
        assert p.holder_constant == pytest.approx(np.sqrt(2.0) * n ** 0.25, rel=1e-15)
        for a in (0.1, 1.0, 10.0):
            x, y = p.centers + a, p.centers - a
            ratio = np.linalg.norm(p.gradient(x) - p.gradient(y)) / np.linalg.norm(x - y) ** 0.5
            assert ratio == pytest.approx(p.holder_constant, rel=1e-9)


_COORDS = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32)


@settings(database=None, deadline=None)
@given(nu=st.floats(0.05, 1.0), coords=st.tuples(_COORDS, _COORDS))
def test_holder_constant_bounds_every_gradient_ratio(nu, coords):
    # the constant depends on n and nu only, and the ratio on x - c and y - c
    # only, so centers at 0 keep rounding in x - c out of the check; pairs
    # closer than 1e-3 of their scale would compare rounding errors instead
    n = min(len(coords[0]), len(coords[1]))
    x, y = np.array(coords[0][:n]), np.array(coords[1][:n])
    dist = np.linalg.norm(x - y)
    assume(dist > 1e-3 * max(np.abs(x).max(), np.abs(y).max()))
    constant = generate_holder_instance(n, nu, seed=0).holder_constant
    p = HolderPowerProblem(centers=np.zeros(n), exponent=nu, holder_constant=constant)
    lhs = np.linalg.norm(p.gradient(x) - p.gradient(y))
    assert lhs <= constant * dist ** nu * (1.0 + 1e-9)


def _assert_stack_is_per_row(p, points):
    values, grads = p.value_and_gradient(points)
    assert values.shape == (len(points),) and grads.shape == points.shape
    assert np.array_equal(p.value(points), values)
    for x, value, grad in zip(points, values, grads):
        want_value, want_grad = p.value_and_gradient(x)
        assert isinstance(want_value, float)
        assert value == want_value
        assert grad.tobytes() == want_grad.tobytes()


@settings(database=None, deadline=None, max_examples=50)
@given(family=st.sampled_from(["logsum", "quadratic", "holder"]), n=st.integers(1, 8),
       height=st.integers(1, 20), seed=st.integers(0, 2 ** 16))
def test_stacked_evaluation_is_bitwise_per_row(family, n, height, seed):
    # a batch evaluates C points at once; each row must get bitwise the
    # answer of its point alone, whatever C, or batching would move bytes
    p = {"logsum": lambda: generate_logsum_instance(n, 2 * n + 1, 2.0, seed=seed),
         "quadratic": lambda: generate_quadratic_instance(n, conditioning=5.0, seed=seed),
         "holder": lambda: generate_holder_instance(n, 0.5, seed=seed)}[family]()
    points = np.random.default_rng(seed).uniform(-3.0, 3.0, (height, n))
    _assert_stack_is_per_row(p, points)


def test_stacked_evaluation_is_bitwise_on_the_canonical_instance():
    p = generate_logsum_instance(64, 128, 4.0, seed=0)
    rng = np.random.default_rng(3)
    for height in (1, 2, 7, 16, 45):
        _assert_stack_is_per_row(p, rng.uniform(-0.1, 0.1, (height, 64)))
