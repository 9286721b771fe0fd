"""Oracle layer: error splits, smoothing constants, families, certifier."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxiq import (
    ExactOracle,
    HolderOracle,
    HolderPowerProblem,
    LogSumProblem,
    MinibatchOracle,
    NoisyGradientOracle,
    OracleCertificate,
    SaddleOracle,
    SaddleProblem,
    ShiftedPointOracle,
    bounded_noise,
    certify_oracle,
    generate_logsum_instance,
    generate_quadratic_instance,
    holder_smoothing_constant,
    majorize_amgm,
    spectral_norm,
)
from proxiq.harness import ball_pair_sampler
from proxiq.oracle import evaluate_rows, noise_slab


# ---------------------------------------------------------------- majorize


def test_majorize_amgm_hand_values():
    # q = 1: coefficients are (rho/2, delta^2 / (2 rho)) by completing the square
    assert majorize_amgm(1.0, 1.0, 1.0) == (0.5, 0.5)
    assert majorize_amgm(2.0, 1.0, 4.0) == (2.0, 0.5)
    # q = 0: nothing to split, the error term is already a constant
    assert majorize_amgm(0.7, 0.0, 5.0) == (0.0, 0.7)


def test_majorize_amgm_dominates_error_term():
    r = np.geomspace(1e-6, 1e4, 2001)
    for delta, q, rho in [(0.3, 0.5, 2.0), (1.2, 1.0, 0.7), (0.05, 1.7, 3.0),
                          (2.0, 0.0, 1.0)]:
        quad, add = majorize_amgm(delta, q, rho)
        slack = quad * r ** 2 + add - delta * r ** q
        assert slack.min() >= -1e-12 * max(1.0, add)


@settings(database=None, deadline=None, max_examples=300)
@given(delta=st.floats(1e-6, 1e3), degree=st.one_of(st.just(0.0), st.floats(0.0, 1.9)),
       rho=st.floats(1e-3, 1e3), r=st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
def test_majorize_amgm_property(delta, degree, rho, r):
    # delta*r**q <= (q*rho/2)*r**2 + c for every r >= 0, with equality at
    # the balance radius r* = (delta/rho)**(1/(2-q))
    quad, add = majorize_amgm(delta, degree, rho)
    assert quad == 0.5 * degree * rho
    error = delta * r ** degree
    majorant = quad * r * r + add
    assert error <= majorant * (1.0 + 1e-12)
    r_star = (delta / rho) ** (1.0 / (2.0 - degree))
    at_star = quad * r_star * r_star + add
    assert abs(at_star - delta * r_star ** degree) <= 1e-12 * at_star


def test_majorize_amgm_tight_at_balance_radius():
    # equality holds where the two sides of the weighted AM-GM coincide,
    # at r = (delta/rho)^(1/(2-q))
    for delta, q, rho in [(0.3, 0.5, 2.0), (1.2, 1.0, 0.7), (0.05, 1.7, 3.0)]:
        quad, add = majorize_amgm(delta, q, rho)
        r_star = (delta / rho) ** (1.0 / (2.0 - q))
        lhs = delta * r_star ** q
        rhs = quad * r_star ** 2 + add
        assert abs(lhs - rhs) <= 1e-12 * lhs


def test_majorize_amgm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        majorize_amgm(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        majorize_amgm(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        majorize_amgm(1.0, 0.5, 0.0)
    # at q = 0 the weight never enters
    assert majorize_amgm(0.7, 0.0, -3.0) == (0.0, 0.7)


# ------------------------------------------------------------- smoothing


def smallest_grid_constant(h, nu, q, delta, r):
    """Smallest L with (L/2) r^2 + delta r^q >= (h/(1+nu)) r^(1+nu) on a grid."""
    need = 2.0 * ((h / (1.0 + nu)) * r ** (1.0 + nu) - delta * r ** q) / r ** 2
    return float(need.max())


SMOOTHING_CASES = [
    # (holder_constant, exponent, degree, delta)
    (2.0, 0.0, 0.0, 0.5),
    (1.0, 0.5, 0.5, 0.1),
    (1.3, 0.5, 0.75, 0.2),
    (0.8, 0.3, 1.2, 0.05),
]


def test_smoothing_constant_matches_grid_search():
    # wide range: the binding radius can sit far below 1 (near 5e-11 for the
    # last case, where the degree almost exhausts 1 + exponent)
    r = np.geomspace(1e-14, 1e6, 800001)
    for h, nu, q, delta in SMOOTHING_CASES:
        formula = holder_smoothing_constant(h, nu, q, delta)
        grid = smallest_grid_constant(h, nu, q, delta, r)
        assert abs(formula - grid) <= 1e-6 * grid
    # frozen from the grid search above
    assert holder_smoothing_constant(2.0, 0.0, 0.0, 0.5) == 4.0
    assert holder_smoothing_constant(1.0, 0.5, 0.5, 0.1) == 1.3250773199998755
    assert holder_smoothing_constant(1.3, 0.5, 0.75, 0.2) == 1.5006798985277376


def test_smoothing_constant_certifies_on_grid():
    r = np.geomspace(1e-6, 1e4, 4001)
    for h, nu, q, delta in SMOOTHING_CASES:
        lip = holder_smoothing_constant(h, nu, q, delta)
        slack = 0.5 * lip * r ** 2 + delta * r ** q - (h / (1.0 + nu)) * r ** (1.0 + nu)
        assert slack.min() >= -1e-10 * max(1.0, lip)


@settings(database=None, deadline=None)
@given(h=st.floats(0.1, 10.0), nu=st.floats(0.0, 1.0), frac=st.floats(0.0, 0.9),
       delta=st.floats(1e-3, 10.0), r=st.floats(1e-4, 1e4))
def test_smoothing_constant_certifies_random_inputs(h, nu, frac, delta, r):
    # (H/(1+nu)) r^(1+nu) <= (L/2) r^2 + delta r^q at every radius.  For
    # lam = (1+nu-q)/(2-q) < 1 the two sides meet at the balance radius,
    # where (L/2) r^2 / lam = delta r^q / (1-lam), so a smaller L fails there
    q = frac * (1.0 + nu)
    lip = holder_smoothing_constant(h, nu, q, delta)
    lam = (1.0 + nu - q) / (2.0 - q)
    radii = [r]
    if lam < 1.0:
        radii.append((2.0 * delta * lam / (lip * (1.0 - lam))) ** (1.0 / (2.0 - q)))
    for rad in radii:
        lhs = (h / (1.0 + nu)) * rad ** (1.0 + nu)
        assert lhs <= (0.5 * lip * rad ** 2 + delta * rad ** q) * (1.0 + 1e-10)


def test_smoothing_constant_smooth_case_ignores_delta():
    for delta in (0.0, 1e-9, 1.0, 3.0):
        assert holder_smoothing_constant(2.5, 1.0, 0.7, delta) == 2.5


def test_smoothing_constant_grows_as_delta_shrinks():
    deltas = np.geomspace(1e-4, 10.0, 40)
    lips = [holder_smoothing_constant(1.0, 0.4, 0.8, d) for d in deltas]
    assert all(a > b for a, b in zip(lips[:-1], lips[1:]))


def test_smoothing_coefficient_carries_delta_power():
    # the constant at delta = 1 is the coefficient of the delta power
    for h, nu, q in [(1.0, 0.5, 0.5), (2.0, 0.3, 0.9), (1.3, 0.5, 0.75)]:
        coeff = holder_smoothing_constant(h, nu, q, 1.0)
        for delta in (0.05, 0.2, 1.0):
            lip = holder_smoothing_constant(h, nu, q, delta)
            power = -(1.0 - nu) / (1.0 + nu - q)
            assert abs(lip - coeff * delta ** power) <= 1e-13 * lip


def test_smoothing_constant_rejects_bad_inputs():
    with pytest.raises(ValueError):
        holder_smoothing_constant(1.0, 1.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        holder_smoothing_constant(0.0, 0.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        holder_smoothing_constant(1.0, 0.5, 1.5, 0.1)
    with pytest.raises(ValueError):
        holder_smoothing_constant(1.0, 0.5, 0.5, 0.0)
    # a constant beyond the float range is an error, not an OverflowError
    for args in [(1000.0, 0.0, 0.999, 1.0), (1.0, 0.0, 0.9, 1e-300)]:
        with pytest.raises(ValueError, match="not a finite float"):
            holder_smoothing_constant(*args)


# ------------------------------------------------------------------ noise


def test_bounded_noise_zero_bound_skips_generator():
    rng = np.random.default_rng(9)
    assert np.all(bounded_noise(rng, 5, 0.0) == 0.0)
    fresh = np.random.default_rng(9)
    assert rng.standard_normal() == fresh.standard_normal()


def test_bounded_noise_respects_cap_and_hits_it():
    rng = np.random.default_rng(1)
    norms = np.array([np.linalg.norm(bounded_noise(rng, 6, 0.8)) for _ in range(2000)])
    assert norms.max() <= 0.8 * (1.0 + 1e-12)
    at_bound = np.mean(np.isclose(norms, 0.8))
    assert 0.4 < at_bound < 0.6
    assert (norms < 0.4).any()


def test_bounded_noise_requires_generator():
    with pytest.raises(ValueError):
        bounded_noise(None, 4, 0.5)
    with pytest.raises(ValueError):
        bounded_noise(np.random.default_rng(0), 4, -0.1)


def _sequential_bounded_noise(rng, dim, bound):
    """One noise vector drawn and scaled on its own, as bounded_noise did
    before the slab."""
    if bound < 0.0:
        raise ValueError("bound must be nonnegative")
    if bound == 0.0:
        return np.zeros(dim)
    if rng is None:
        raise ValueError("a generator is required to draw noise")
    direction = rng.standard_normal(dim)
    # np.linalg.norm's own formula for a vector, without its call overhead
    norm = math.sqrt(direction.dot(direction))
    if norm == 0.0:
        return np.zeros(dim)
    radius = float(bound) if rng.random() < 0.5 else float(bound) * rng.random()
    return (radius / norm) * direction


def test_noise_slab_matches_sequential_draws():
    # each row of the slab is its generator's vectors drawn one at a time,
    # bitwise, and every generator ends where the sequential draws leave it
    bounds = [0.3, 0.0, 2.5, 1e-3, 0.0, 7.0]
    for count in (1, 3):
        for dim in (1, 7, 64):
            rngs = [np.random.default_rng(seed) for seed in range(len(bounds))]
            refs = [np.random.default_rng(seed) for seed in range(len(bounds))]
            slab = noise_slab(rngs, bounds, count, dim)
            assert slab.shape == (len(bounds), count, dim)
            for row, ref, bound in zip(slab, refs, bounds):
                for noise in row:
                    assert noise.tobytes() == _sequential_bounded_noise(ref, dim, bound).tobytes()
            assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]
    # bounded_noise is the slab's single draw
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20):
        assert bounded_noise(rng, 6, 0.8).tobytes() == _sequential_bounded_noise(ref, 6, 0.8).tobytes()
    assert rng.random() == ref.random()
    with pytest.raises(ValueError, match="nonnegative"):
        noise_slab([rng, rng], [0.1, -0.1], 1, 4)
    with pytest.raises(ValueError, match="generator is required"):
        noise_slab([rng, None], [0.1, 0.1], 1, 4)


class _Concave:
    """F(x) = -||x||**2 / 2, whose gradient -x has a -0.0 wherever x has a 0.0."""

    lipschitz = 1.0

    def value_and_gradient(self, x):
        return -0.5 * (x * x).sum(axis=-1), -x


def test_evaluate_rows_adds_the_slab_to_noisy_rows_only():
    # a zero bound adds nothing: not even the +0.0 that turns -0.0 into 0.0
    prob = _Concave()
    points = np.array([[0.0, 1.5, 0.0, -2.0]] * 3)
    exact = -points
    assert np.signbit(exact[:, 0]).all()
    for count in (1, 3):
        oracles = [NoisyGradientOracle(prob, bound, directions=count) for bound in (0.0, 0.4)]
        if count == 1:
            oracles.append(ExactOracle(prob))
        rngs = [np.random.default_rng(seed) for seed in range(len(oracles))]
        refs = [np.random.default_rng(seed) for seed in range(len(oracles))]
        values, candidates, finite = evaluate_rows(oracles, points[:len(oracles)], rngs)
        assert finite.all() and candidates.shape == (len(oracles), count, 4)
        for i, oracle in enumerate(oracles):
            for candidate in candidates[i]:
                noise = _sequential_bounded_noise(refs[i], 4, oracle.noise_bound)
                want = exact[i] if oracle.noise_bound == 0.0 else exact[i] + noise
                assert candidate.tobytes() == want.tobytes()
        assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]
        # evaluate, the answer to a stack of one, keeps the -0.0 too
        assert oracles[0].evaluate(points[0])[1].tobytes() == np.tile(exact[0], (count, 1)).tobytes()


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(12)
    for shape in [(5, 3), (3, 5), (4, 4)]:
        a = rng.standard_normal(shape)
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(spectral_norm(a) - top) <= 1e-8 * top
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    with pytest.raises(ValueError):
        spectral_norm(np.zeros(3))


# ----------------------------------------------------------- certificates


def test_certificate_validation():
    cert = OracleCertificate(delta=0.1, lipschitz=2.0, degree=0.0)
    assert not cert.convex_lower_bound
    with pytest.raises(ValueError):
        OracleCertificate(delta=0.1, lipschitz=2.0, degree=2.0)
    with pytest.raises(ValueError):
        OracleCertificate(delta=0.1, lipschitz=2.0, degree=-0.1)
    with pytest.raises(ValueError):
        OracleCertificate(delta=-1.0, lipschitz=2.0, degree=1.0)
    with pytest.raises(ValueError):
        OracleCertificate(delta=0.1, lipschitz=0.0, degree=1.0)


def test_evaluate_rows_matches_evaluate_per_row():
    # one stacked evaluation, then each oracle draws from its own generator
    # exactly what it draws alone, in the same order
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    oracles = [NoisyGradientOracle(prob, d, directions=3) for d in (0.0, 0.2, 1.5)]
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (3, 8))
    rngs = [np.random.default_rng(i) for i in range(3)]
    values, candidates, finite = evaluate_rows(oracles, points, rngs)
    assert values.shape == (3,) and candidates.shape == (3, 3, 8) and finite.all()
    for i, (oracle, rng) in enumerate(zip(oracles, rngs)):
        ref_rng = np.random.default_rng(i)
        value, alone = oracle.evaluate(points[i], rng=ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert values[i] == value
        for stacked, single in zip(candidates[i], alone, strict=True):
            assert stacked.tobytes() == single.tobytes()
    values, candidates, _ = evaluate_rows([ExactOracle(prob)] * 3, points, [None] * 3)
    assert candidates.shape == (3, 1, 8)
    assert np.array_equal(candidates[:, 0], prob.value_and_gradient(points)[1])

    # a batch of one answers bitwise as the oracle's evaluate, on the stacked
    # path for the model oracles and through evaluate for the saddle oracle
    holder = HolderPowerProblem(centers=np.full(8, 0.1), exponent=0.5, holder_constant=1.0)
    gen = np.random.default_rng(8)
    saddle = SaddleProblem(gen.standard_normal((8, 3)), gen.standard_normal(3), 2.0)
    for oracle, x in ((ExactOracle(prob), points[0]),
                      (NoisyGradientOracle(prob, 0.2, directions=3), points[1]),
                      (HolderOracle(holder, degree=0.5, delta=0.1), points[2]),
                      (SaddleOracle(saddle, 0.0), points[0])):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        values, candidates, finite = evaluate_rows([oracle], x[None], [rng])
        value, alone = oracle.evaluate(x, rng=ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert finite.tolist() == [True] and values[0].tobytes() == np.float64(value).tobytes()
        assert candidates[0].tobytes() == np.array(alone).tobytes()


class _Counted(NoisyGradientOracle):
    """Noisy oracle whose own evaluate counts its calls and answers honestly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def evaluate(self, x, rng=None):
        self.calls += 1
        return super().evaluate(x, rng=rng)


class _Halved(ExactOracle):
    """Exact oracle whose own evaluate halves the gradient, NaN from its second query."""

    def __init__(self, problem):
        super().__init__(problem)
        self.queries = 0

    def evaluate(self, x, rng=None):
        value, (grad,) = super().evaluate(x, rng=rng)
        self.queries += 1
        return value, (grad * (0.5 if self.queries == 1 else math.nan),)


def test_evaluate_rows_runs_each_oracles_own_evaluate():
    # a model oracle that overrides evaluate is asked through it, not through
    # the stacked path, and a non-finite answer marks just its row
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (3, 8))
    oracles = [ExactOracle(prob), _Halved(prob), NoisyGradientOracle(prob, 0.2)]
    values, candidates, finite = evaluate_rows(oracles, points,
                                               [None, None, np.random.default_rng(1)])
    assert candidates.shape == (3, 1, 8) and finite.all()
    exact = prob.value_and_gradient(points)[1]
    assert candidates[0, 0].tobytes() == exact[0].tobytes()
    assert candidates[1, 0].tobytes() == (0.5 * exact[1]).tobytes()
    _, alone = oracles[2].evaluate(points[2], rng=np.random.default_rng(1))
    assert candidates[2, 0].tobytes() == alone[0].tobytes()
    values, candidates, finite = evaluate_rows(oracles, points,
                                               [None, None, np.random.default_rng(1)])
    assert finite.tolist() == [True, False, True]
    assert np.isfinite(values).all() and np.isnan(candidates[1]).all()
    assert np.isfinite(candidates[[0, 2]]).all()
    # an override that calls super().evaluate is asked once per row and
    # gets back its row's honest answer, without looping back into
    # evaluate_rows: the stacked path's bytes and random streams
    bounds = (0.0, 0.2, 1.5)
    counted = [_Counted(prob, d, directions=2) for d in bounds]
    rngs = [np.random.default_rng(i) for i in range(3)]
    values, candidates, _ = evaluate_rows(counted, points, rngs)
    assert [o.calls for o in counted] == [1, 1, 1]
    ref_rngs = [np.random.default_rng(i) for i in range(3)]
    want = evaluate_rows([NoisyGradientOracle(prob, d, directions=2) for d in bounds], points,
                         ref_rngs)
    assert values.tobytes() == want[0].tobytes()
    assert candidates.tobytes() == want[1].tobytes()
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


class _Widened(ExactOracle):
    """Exact oracle whose own evaluate returns a gradient one entry too long."""

    def evaluate(self, x, rng=None):
        value, (grad,) = super().evaluate(x, rng=rng)
        return value, (np.append(grad, 0.0),)


class _Spoiled(ExactOracle):
    """Exact oracle whose own evaluate replaces the value or the gradient,
    or adds a candidate."""

    def __init__(self, problem, value=None, gradient=None, extra=None):
        super().__init__(problem)
        self.bad_value = value
        self.bad_gradient = gradient
        self.extra = extra

    def evaluate(self, x, rng=None):
        value, (grad,) = super().evaluate(x, rng=rng)
        value = value if self.bad_value is None else self.bad_value
        grad = grad if self.bad_gradient is None else self.bad_gradient
        return value, (grad,) if self.extra is None else (grad, self.extra)


class _OnePoint:
    """A problem whose value_and_gradient takes one point only: given a
    stack it answers one value for all of it."""

    lipschitz = 2.0

    def value_and_gradient(self, x):
        return float(np.sum(x * x)), 2.0 * x


def test_evaluate_rows_checks_shapes_and_masks_non_finite_stacked_rows():
    # evaluate_rows checks every answer; an oracle with its own evaluate is
    # asked row by row, through it: a candidate that does not match its
    # point, or a batch whose answers offer different numbers of candidates,
    # is a usage error, and a non-finite value or candidate marks only its
    # own row
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (6, 8))
    nan_entry = np.array([math.nan] + [0.0] * 7)
    with pytest.raises(ValueError, match="stack"):
        evaluate_rows([ExactOracle(_OnePoint())] * 2, points[:2], [None] * 2)
    with pytest.raises(ValueError, match="shapes differ"):
        evaluate_rows([_Widened(prob)] * 3, points[:3], [None] * 3)
    with pytest.raises(ValueError):
        evaluate_rows([ExactOracle(prob), _Widened(prob)], points[:2], [None] * 2)
    with pytest.raises(ValueError):
        evaluate_rows([_Spoiled(prob, extra=np.zeros(9))], points[:1], [None])
    with pytest.raises(ValueError, match="same number of candidate gradients"):
        evaluate_rows([_Spoiled(prob), _Spoiled(prob, extra=np.zeros(8))], points[:2],
                      [None] * 2)
    two = dict(extra=np.zeros(8))
    oracles = [_Spoiled(prob, **two), _Spoiled(prob, value=math.inf, **two),
               _Spoiled(prob, value=math.nan, **two), _Spoiled(prob, gradient=nan_entry, **two),
               _Spoiled(prob, extra=np.full(8, -math.inf)),
               _Spoiled(prob, extra=np.full(8, 1e300))]
    values, candidates, finite = evaluate_rows(oracles, points, [None] * 6)
    assert candidates.shape == (6, 2, 8)
    assert finite.tolist() == [True, False, False, False, False, True]
    assert values[1] == math.inf and np.isfinite(candidates[1]).all()
    assert math.isnan(values[2]) and np.isfinite(candidates[2]).all()
    assert np.isfinite(values[3]) and math.isnan(candidates[3, 0, 0])
    assert np.isfinite(candidates[3, 1]).all()
    assert np.isfinite(values[4]) and np.isinf(candidates[4, 1]).all()
    assert np.isfinite(candidates[4, 0]).all()
    # the stacked path marks a non-finite row the same way
    points[1, 2] = math.nan
    values, candidates, finite = evaluate_rows([ExactOracle(prob)] * 3, points[:3], [None] * 3)
    assert finite.tolist() == [True, False, True]
    assert math.isnan(values[1]) and np.isfinite(candidates[[0, 2]]).all()


# --------------------------------------------------------------- families


def test_noisy_gradient_certificate_and_cap():
    prob = generate_quadratic_instance(6, conditioning=4.0, seed=0)
    x = np.linspace(-1.0, 1.0, 6)
    rng = np.random.default_rng(3)
    oracle = NoisyGradientOracle(prob, 0.25)
    value, (grad,) = oracle.evaluate(x, rng=rng)
    assert value == prob.value(x)
    assert np.linalg.norm(grad - prob.gradient(x)) <= 0.25 + 1e-12
    assert oracle.certificate == OracleCertificate(delta=0.25, lipschitz=prob.lipschitz,
                                                   degree=1.0)

    # on a diameter-3 domain the same answer certifies any lower degree
    oracle = NoisyGradientOracle(prob, 0.25, degree=0.4, diameter=3.0)
    assert oracle.certificate.degree == 0.4
    assert abs(oracle.certificate.delta - 0.25 * 3.0 ** 0.6) <= 1e-15
    (grad,) = oracle.evaluate(x, rng=rng)[1]
    assert np.linalg.norm(grad - prob.gradient(x)) <= 0.25 + 1e-12

    with pytest.raises(ValueError):
        NoisyGradientOracle(prob, 0.25, degree=0.4)
    with pytest.raises(ValueError):
        NoisyGradientOracle(prob, 0.25, degree=1.5)
    with pytest.raises(ValueError):
        NoisyGradientOracle(prob, -0.1)


def test_noisy_gradient_candidates():
    prob = generate_quadratic_instance(6, conditioning=4.0, seed=0)
    x = np.linspace(-1.0, 1.0, 6)
    exact = prob.gradient(x)

    # one direction is the plain answer, bit for bit
    rng = np.random.default_rng(8)
    plain_value, (plain,) = NoisyGradientOracle(prob, 0.25).evaluate(x, rng=rng)
    ref_rng = np.random.default_rng(8)
    assert np.array_equal(plain, exact + bounded_noise(ref_rng, 6, 0.25))
    assert plain_value == prob.value(x)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    one_value, (one,) = NoisyGradientOracle(prob, 0.25, directions=1).evaluate(
        x, rng=np.random.default_rng(8))
    assert np.array_equal(one, plain)
    assert one_value == plain_value

    # m directions: m - 1 alternatives under the same certificate, drawn
    # after the first candidate exactly like m sequential noise draws
    rng = np.random.default_rng(8)
    _, (first, *alternatives) = NoisyGradientOracle(prob, 0.25, directions=4).evaluate(
        x, rng=rng)
    assert len(alternatives) == 3
    assert np.array_equal(first, plain)
    ref_rng = np.random.default_rng(8)
    draws = [bounded_noise(ref_rng, 6, 0.25) for _ in range(4)]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for alt, noise in zip(alternatives, draws[1:]):
        assert np.array_equal(alt, exact + noise)
        assert np.linalg.norm(alt - exact) <= 0.25 + 1e-12
    assert len({alt.tobytes() for alt in alternatives}) == 3

    for bad in (0, -1):
        with pytest.raises(ValueError):
            NoisyGradientOracle(prob, 0.25, directions=bad)


def test_shifted_point_certificate():
    prob = generate_quadratic_instance(5, conditioning=3.0, seed=1)
    x = np.ones(5)
    rng = np.random.default_rng(7)
    oracle = ShiftedPointOracle(prob, 0.2)
    value, (grad,) = oracle.evaluate(x, rng=rng)
    assert value == prob.value(x)
    assert oracle.certificate == OracleCertificate(delta=prob.lipschitz * 0.2,
                                                   lipschitz=prob.lipschitz, degree=1.0)
    # smoothness turns the hidden displacement into a gradient error bound
    assert np.linalg.norm(grad - prob.gradient(x)) <= prob.lipschitz * 0.2 + 1e-12

    _, (exact,) = ShiftedPointOracle(prob, 0.0).evaluate(x, rng=rng)
    assert np.array_equal(exact, prob.gradient(x))
    with pytest.raises(ValueError):
        ShiftedPointOracle(prob, -0.5)


class _Linear:
    """Affine component a @ x + b with constant gradient a."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = float(b)

    def value(self, x):
        return float(self.a @ x) + self.b

    def gradient(self, x):
        return self.a.copy()


def test_minibatch_hand_gradients():
    # components (x0 + 1, 2 x1 + 2) at x = (3, 1): values (4, 4), mean 4
    comps = [_Linear([1.0, 0.0], 1.0), _Linear([0.0, 2.0], 2.0)]
    x = np.array([3.0, 1.0])

    # single-component batches; replaying the generator's choice names the
    # component each answer used
    oracle = MinibatchOracle(comps, batch_size=1)
    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    seen = set()
    for _ in range(8):
        value, (grad,) = oracle.evaluate(x, rng=rng)
        (j,) = replay.choice(2, size=1, replace=False)
        seen.add(int(j))
        assert value == 4.0
        assert np.array_equal(grad, comps[j].a)
    assert seen == {0, 1}
    assert rng.bit_generator.state == replay.bit_generator.state

    value, (grad,) = MinibatchOracle(comps, batch_size=2).evaluate(x)
    assert value == 4.0
    assert np.array_equal(grad, [0.5, 1.0])

    claimed = MinibatchOracle(comps, batch_size=1, claimed_delta=0.3, claimed_lipschitz=5.0,
                              degree=0.5)
    assert claimed.certificate == OracleCertificate(delta=0.3, lipschitz=5.0, degree=0.5)

    with pytest.raises(ValueError):
        MinibatchOracle(comps, batch_size=0)
    with pytest.raises(ValueError):
        MinibatchOracle(comps, batch_size=3)


def test_minibatch_full_batch_is_exact_mean():
    rng = np.random.default_rng(8)
    centers = rng.standard_normal((4, 3))

    class _Quad:
        def __init__(self, c):
            self.c = c

        def value(self, x):
            return 0.5 * float((x - self.c) @ (x - self.c))

        def gradient(self, x):
            return x - self.c

    comps = [_Quad(c) for c in centers]
    x = rng.standard_normal(3)
    oracle = MinibatchOracle(comps, batch_size=4)
    _, (grad,) = oracle.evaluate(x)  # full batch needs no generator
    assert np.allclose(grad, x - centers.mean(axis=0))

    partial = MinibatchOracle(comps, batch_size=2)
    with pytest.raises(ValueError):
        partial.evaluate(x)
    _, (grad,) = partial.evaluate(x, rng=rng)
    assert grad.shape == (3,)
    with pytest.raises(ValueError):
        MinibatchOracle(comps, batch_size=0)
    with pytest.raises(ValueError):
        MinibatchOracle(comps, batch_size=5)


def test_saddle_fused_value_and_gradient_is_bitwise():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 3))
    center = rng.standard_normal(3)
    sp = SaddleProblem(operator=a, concave_center=center, concavity=0.7)
    exact = SaddleOracle(sp, 0.0)
    for x in rng.standard_normal((6, 4)) * 3.0:
        # the exact oracle's value and gradient share one value_and_maximizer
        value, (grad,) = exact.evaluate(x)
        assert value == sp.value(x)
        assert np.array_equal(sp.value_and_maximizer(x)[1], center + a.T @ x / 0.7)
        assert grad.tobytes() == (a @ sp.value_and_maximizer(x)[1]).tobytes()


def test_saddle_value_is_inner_maximum():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 2))
    center = rng.standard_normal(2)
    sp = SaddleProblem(operator=a, concave_center=center, concavity=0.7)
    x = rng.standard_normal(3)

    def inner(u):
        return -0.35 * float((u - center) @ (u - center)) + float((a @ u) @ x)

    candidates = center + rng.standard_normal((5000, 2)) * 5.0
    best = max(inner(u) for u in candidates)
    assert sp.value(x) >= best - 1e-12
    assert abs(sp.value(x) - inner(sp.value_and_maximizer(x)[1])) <= 1e-12

    eps = 1e-6
    fd = np.array([(sp.value(x + eps * e) - sp.value(x - eps * e)) / (2 * eps)
                   for e in np.eye(3)])
    assert np.max(np.abs(a @ sp.value_and_maximizer(x)[1] - fd)) <= 1e-8

    top = np.linalg.svd(a, compute_uv=False)[0]
    assert abs(SaddleOracle(sp, 0.0).certificate.lipschitz - top ** 2 / 0.7) <= 1e-10


def test_saddle_oracle_certificates():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 2))
    center = rng.standard_normal(2)
    sp = SaddleProblem(operator=a, concave_center=center, concavity=0.7)
    x = rng.standard_normal(3)
    norm_a = spectral_norm(a)
    gradient = a @ sp.value_and_maximizer(x)[1]

    exact = SaddleOracle(sp, 0.0)
    assert exact.certificate.convex_lower_bound
    assert exact.certificate.delta == 0.0
    assert exact.certificate.lipschitz == norm_a ** 2 / 0.7
    assert np.allclose(exact.evaluate(x)[1][0], gradient)

    oracle = SaddleOracle(sp, 0.3)
    assert oracle.operator_norm == norm_a
    _, (noisy,) = oracle.evaluate(x, rng=np.random.default_rng(2))
    assert not oracle.certificate.convex_lower_bound
    assert abs(oracle.certificate.delta - 0.3 * norm_a) <= 1e-12
    assert np.linalg.norm(noisy - gradient) <= 0.3 * norm_a + 1e-12

    with pytest.raises(ValueError):
        SaddleOracle(sp, -0.1)
    with pytest.raises(ValueError):
        SaddleProblem(operator=a, concave_center=center, concavity=0.0)
    with pytest.raises(ValueError):
        SaddleProblem(operator=a, concave_center=np.zeros(3), concavity=1.0)


def test_holder_oracle_certificate():
    # sum |x_i|^1.5 / 1.5; the certificate is built from the stored constant as given
    holder = HolderPowerProblem(centers=np.zeros(3), exponent=0.5, holder_constant=1.0)
    x = np.array([0.4, -1.2, 0.0])
    oracle = HolderOracle(holder, degree=0.5, delta=0.1)
    value, (grad,) = oracle.evaluate(x)
    assert value == float(np.sum(np.abs(x) ** 1.5)) / 1.5
    assert oracle.certificate == OracleCertificate(
        delta=0.1, lipschitz=holder_smoothing_constant(1.0, 0.5, 0.5, 0.1), degree=0.5,
        convex_lower_bound=True)
    assert np.array_equal(grad, np.sign(x) * np.abs(x) ** 0.5)

    # a tighter accuracy is bought with a larger smoothness constant
    tightened = HolderOracle(holder, degree=0.5, delta=0.01)
    assert tightened.certificate.delta == 0.01
    assert tightened.certificate.lipschitz > oracle.certificate.lipschitz


def test_exact_oracle_zero_delta():
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=6)
    oracle = ExactOracle(prob, degree=0.5, convex_lower_bound=True)
    x = np.ones(4)
    value, (grad,) = oracle.evaluate(x)
    assert oracle.certificate == OracleCertificate(delta=0.0, lipschitz=prob.lipschitz,
                                                   degree=0.5, convex_lower_bound=True)
    assert value == prob.value(x)
    assert np.array_equal(grad, prob.gradient(x))


# -------------------------------------------------------------- certifier


def test_certify_accepts_honest_noisy_oracle():
    prob = generate_logsum_instance(16, 32, 4.0, seed=3)
    oracle = NoisyGradientOracle(prob, noise_bound=1.0)
    report = certify_oracle(oracle, prob.value, ball_pair_sampler(4.0, 16),
                            pairs=800, rng=np.random.default_rng(11))
    assert report.certified
    assert report.max_violation <= report.tolerance
    assert not report.lower_bound_checked
    assert report.summary().startswith("certified")


def test_certify_refutes_understated_noise():
    prob = generate_logsum_instance(16, 32, 4.0, seed=3)
    liar = NoisyGradientOracle(prob, noise_bound=1.0)
    liar.certificate = replace(liar.certificate, delta=0.05)
    report = certify_oracle(liar, prob.value, ball_pair_sampler(4.0, 16),
                            pairs=800, rng=np.random.default_rng(11))
    assert not report.certified
    assert report.max_violation > report.tolerance
    assert report.worst_pair is not None
    x, y = report.worst_pair
    assert x.shape == y.shape == (16,)
    assert report.summary().startswith("REFUTED")


def test_certify_refutes_false_convexity_claim():
    # residuals near 3 keep every term of the objective in its concave regime
    prob = LogSumProblem(rows=np.eye(2), targets=np.array([3.0, 3.0]), radius=1.0)
    fake = ExactOracle(prob, convex_lower_bound=True)
    report = certify_oracle(fake, prob.value, ball_pair_sampler(1.0, 2),
                            pairs=400, rng=np.random.default_rng(5))
    assert not report.certified
    assert report.lower_bound_checked
    assert report.min_lower_slack < -report.tolerance
    assert report.worst_lower_pair is not None


def test_certify_accepts_true_convexity_claim():
    prob = generate_quadratic_instance(8, conditioning=5.0, seed=2)
    oracle = ExactOracle(prob, convex_lower_bound=True)
    report = certify_oracle(oracle, prob.value, ball_pair_sampler(3.0, 8),
                            pairs=400, rng=np.random.default_rng(6))
    assert report.certified
    assert report.lower_bound_checked
    assert report.min_lower_slack >= -report.tolerance


def test_certify_checks_every_candidate():
    # the certificate covers every candidate gradient, so one bad alternative
    # refutes it even when the first candidate is honest
    class _BadAlternatives(NoisyGradientOracle):
        def evaluate(self, x, rng=None):
            value, (grad, *alternatives) = super().evaluate(x, rng=rng)
            return value, (grad, *[np.full(grad.shape, 1e3) for _ in alternatives])

    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    sampler = ball_pair_sampler(2.0, 8)
    honest = certify_oracle(NoisyGradientOracle(prob, noise_bound=0.5, directions=3),
                            prob.value, sampler, pairs=200, rng=np.random.default_rng(1))
    assert honest.certified
    liar = _BadAlternatives(prob, noise_bound=0.5, directions=3)
    report = certify_oracle(liar, prob.value, sampler, pairs=200,
                            rng=np.random.default_rng(1))
    assert not report.certified
    assert report.max_violation > report.tolerance
    assert report.summary().startswith("REFUTED")
    # the verdict and the violation are plain Python values, not numpy scalars
    for checked in (honest, report):
        assert type(checked.certified) is bool and type(checked.max_violation) is float


def test_certify_raises_on_non_finite_answer():
    # the certifier asks through evaluate_rows, per row and stacked alike
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    sampler = ball_pair_sampler(2.0, 8)
    for oracle in (_Halved(prob), _Spoiled(prob, value=math.nan)):
        with pytest.raises(ValueError, match="not finite"):
            certify_oracle(oracle, prob.value, sampler, pairs=5, rng=np.random.default_rng(1))
    def nan_query(rng):
        return np.zeros(8), np.full(8, math.nan)

    with pytest.raises(ValueError, match="not finite"):  # stacked: a NaN query point
        certify_oracle(ExactOracle(prob), prob.value, nan_query, pairs=5)


def test_certify_requires_positive_pairs():
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=0)
    oracle = ExactOracle(prob)
    with pytest.raises(ValueError):
        certify_oracle(oracle, prob.value, ball_pair_sampler(1.0, 4), pairs=0)
