"""Oracle layer: error splits, smoothing constants, families, certifier."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxiq import (
    ExactOracle,
    HolderOracle,
    HolderPowerProblem,
    LogSumProblem,
    MinibatchOracle,
    NoisyGradientOracle,
    OracleCertificate,
    QuadraticProblem,
    SaddleOracle,
    SaddleProblem,
    ShiftedPointOracle,
    certify_oracle,
    generate_holder_instance,
    generate_logsum_instance,
    generate_quadratic_instance,
    holder_smoothing_constant,
    majorize_amgm,
    spectral_norm,
    theta_next,
)
from proxiq.harness import ball_pair_sampler
from proxiq import oracle as oracle_module
from proxiq.rates import (bound_convex_ergodic, bound_nonconvex_const, holder_delta_opt,
                          rho_opt_fast, rho_opt_horizon)
from proxiq.oracle import (_check_degree, _check_k, _count, _finite, _nonnegative,
                           _positive, evaluate_rows, perturbed)


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


def _bounded_noise(rng, dim, bound):
    """One noise vector under bound: perturbed's single draw on a zero point."""
    return perturbed(np.zeros((1, dim)), [rng], [bound])[0, 0]


def test_bounded_noise_zero_bound_skips_generator():
    rng = np.random.default_rng(9)
    assert np.all(_bounded_noise(rng, 5, 0.0) == 0.0)
    fresh = np.random.default_rng(9)
    assert rng.standard_normal() == fresh.standard_normal()


def test_bounded_noise_respects_cap_and_hits_it():
    rng = np.random.default_rng(1)
    norms = np.array([np.linalg.norm(_bounded_noise(rng, 6, 0.8)) for _ in range(2000)])
    assert norms.max() <= 0.8 * (1.0 + 1e-12)
    at_bound = np.mean(np.isclose(norms, 0.8))
    assert 0.4 < at_bound < 0.6
    assert (norms < 0.4).any()


def test_bounded_noise_requires_generator():
    with pytest.raises(ValueError):
        _bounded_noise(None, 4, 0.5)
    with pytest.raises(ValueError):
        _bounded_noise(np.random.default_rng(0), 4, -0.1)


def _sequential_bounded_noise(rng, dim, bound):
    """One noise vector drawn and scaled on its own, the reference for
    perturbed's draws."""
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


def _block_bounded_noise(rng, count, dim, bound):
    """count > 1 noise vectors drawn as one block, the reference for
    perturbed's draws at count > 1: the (count, dim) directions, then count
    coin flips and count fractions, each vector scaled on its own."""
    if bound == 0.0:
        return np.zeros((count, dim))
    directions = rng.standard_normal((count, dim))
    coins, fractions = rng.random((2, count))
    noise = np.zeros((count, dim))
    for vector, direction, coin, fraction in zip(noise, directions, coins, fractions):
        norm = math.sqrt(direction.dot(direction))
        if norm > 0.0:
            radius = float(bound) if coin < 0.5 else float(bound) * float(fraction)
            vector[:] = (radius / norm) * direction
    return noise


def _reference_noise(rng, count, dim, bound):
    """The (count, dim) noise of one row of perturbed, written out: one
    vector drawn on its own at count = 1, a block at count > 1."""
    if count == 1:
        return _sequential_bounded_noise(rng, dim, bound)[None]
    return _block_bounded_noise(rng, count, dim, bound)


def test_perturbed_matches_sequential_draws():
    # each row's copies are the row plus its generator's vectors drawn as
    # written out, one vector at count 1 and one block at count > 1, bitwise;
    # a zero-bound row is its base row, -0.0 included, and every generator
    # ends where the written-out draws leave it
    bounds = [0.3, 0.0, 2.5, 1e-3, 0.0, 7.0]
    for count in (1, 3):
        for dim in (1, 7, 64):
            rngs = [np.random.default_rng(seed) for seed in range(len(bounds))]
            refs = [np.random.default_rng(seed) for seed in range(len(bounds))]
            base = np.random.default_rng(dim).standard_normal((len(bounds), dim))
            base[:, 0] = -0.0
            slab = perturbed(base, rngs, bounds, count)
            assert slab.shape == (len(bounds), count, dim)
            for row, x, ref, bound in zip(slab, base, refs, bounds):
                want = x if bound == 0.0 else x + _reference_noise(ref, count, dim, bound)
                assert row.tobytes() == np.broadcast_to(want, row.shape).tobytes()
            assert [rng.bit_generator.state for rng in rngs] == [
                ref.bit_generator.state for ref in refs]
            assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="nonnegative"):
        perturbed(np.zeros((2, 4)), [rng, rng], [0.1, -0.1])
    with pytest.raises(ValueError, match="generator is required"):
        perturbed(np.zeros((2, 4)), [rng, None], [0.1, 0.1])


def test_block_draws_keep_the_radius_law():
    # at count > 1 every noise vector still lies within its row's bound and
    # sits on it half the time, and a zero-bound row is its base row bitwise
    # with its generator untouched
    rows, count, dim = 500, 4, 8
    gen = np.random.default_rng(30)
    bounds = gen.uniform(0.1, 3.0, rows)
    bounds[::50] = 0.0
    base = gen.standard_normal((rows, dim))
    base[:, 0] = -0.0
    rngs = [np.random.default_rng(seed) for seed in range(rows)]
    slab = perturbed(base, rngs, bounds.tolist(), count)
    noisy = bounds > 0.0
    norms = np.linalg.norm(slab[noisy] - base[noisy, None], axis=2)
    assert (norms <= bounds[noisy, None] * (1.0 + 1e-12)).all()
    at_bound = np.isclose(norms, bounds[noisy, None], rtol=1e-12, atol=0.0).mean()
    assert 0.45 <= at_bound <= 0.55
    for i in np.flatnonzero(~noisy):
        assert slab[i].tobytes() == np.tile(base[i], (count, 1)).tobytes()
        assert rngs[i].bit_generator.state == np.random.default_rng(i).bit_generator.state


class _Concave:
    """F(x) = -||x||**2 / 2, whose gradient -x has a -0.0 wherever x has a
    0.0, and a 0.0 wherever x has a -0.0."""

    lipschitz = 1.0
    convex = False

    def value_and_gradient(self, x):
        return -0.5 * (x * x).sum(axis=-1), -x

    def value(self, x):
        return self.value_and_gradient(x)[0]

    def gradient(self, x):
        return -x


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
            noise = _reference_noise(refs[i], count, 4, oracle.noise_bound)
            want = np.tile(exact[i], (count, 1)) if oracle.noise_bound == 0.0 else exact[i] + noise
            assert candidates[i].tobytes() == want.tobytes()
        assert [rng.bit_generator.state for rng in rngs] == [
            ref.bit_generator.state for ref in refs]
        assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]
        # evaluate, the answer to a stack of one, keeps the -0.0 too
        assert oracles[0].evaluate(points[0])[1].tobytes() == np.tile(exact[0], (count, 1)).tobytes()


def test_zero_shift_queries_the_point_itself():
    # a zero shift is no shift: the gradient is taken at the point bitwise,
    # so a -0.0 coordinate stays -0.0 rather than become -0.0 + 0.0 = 0.0,
    # and the generator is not touched
    prob = _Concave()
    points = np.array([[-0.0, 1.5, 0.0, -2.0]] * 2)
    oracles = [ShiftedPointOracle(prob, 0.0), ShiftedPointOracle(prob, 0.3)]
    rngs = [np.random.default_rng(seed) for seed in range(2)]
    refs = [np.random.default_rng(seed) for seed in range(2)]
    values, candidates, finite = evaluate_rows(oracles, points, rngs)
    assert finite.all() and candidates.shape == (2, 1, 4)
    assert candidates[0, 0].tobytes() == np.array([0.0, -1.5, -0.0, 2.0]).tobytes()
    noise = _sequential_bounded_noise(refs[1], 4, 0.3)
    assert candidates[1, 0].tobytes() == (-(points[1] + noise)).tobytes()
    assert [rng.random() for rng in rngs] == [ref.random() for ref in refs]
    assert oracles[0].evaluate(points[0])[1].tobytes() == candidates[0].tobytes()


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(12)
    for shape in [(5, 3), (3, 5), (4, 4)]:
        a = rng.standard_normal(shape)
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert top <= spectral_norm(a) <= top * (1.0 + 1e-14)
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
    # a NaN constant fails every comparison, so no pair could refute it
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            OracleCertificate(delta=bad, lipschitz=2.0, degree=1.0)
        with pytest.raises(ValueError, match="must be finite"):
            OracleCertificate(delta=0.1, lipschitz=bad, degree=1.0)
    with pytest.raises(ValueError, match="must be finite"):
        NoisyGradientOracle(generate_quadratic_instance(2), math.nan)


def _old_model_answer(oracle, x, rng):
    """A model oracle's answer at one point, written out: the fused value
    and gradient, then its noise drawn as _reference_noise draws it."""
    value, grad = oracle.problem.value_and_gradient(x)
    if oracle.noise_bound == 0.0:
        return value, np.tile(grad, (oracle.directions, 1))
    return value, grad + _reference_noise(rng, oracle.directions, x.size, oracle.noise_bound)


def _old_shifted_answer(oracle, x, rng):
    shifted = x
    if oracle.shift_bound > 0.0:
        shifted = x + _sequential_bounded_noise(rng, x.size, oracle.shift_bound)
    return float(oracle.problem.value(x)), oracle.problem.gradient(shifted)[None]


def _old_saddle_answer(oracle, x, rng):
    a, c = oracle.saddle.operator, oracle.saddle.concave_center
    kappa = oracle.saddle.concavity
    atx = a.T @ x
    u = c + atx / kappa
    if oracle.inner_accuracy > 0.0:
        u = u + _sequential_bounded_noise(rng, u.size, oracle.inner_accuracy)
    return float((a @ c) @ x + atx @ atx / (2.0 * kappa)), (a @ u)[None]


def _old_minibatch_answer(oracle, x, rng):
    components, size = oracle.components, oracle.batch_size
    n = len(components)
    batch = range(n) if size == n else rng.choice(n, size=size, replace=False)
    grad = sum(components[j].gradient(x) for j in batch) / size
    return sum(float(c.value(x)) for c in components) / n, grad[None]


def _family_batches():
    """A three-row batch of every family over 8-dimensional points, with the
    answer each gives at one point written out."""
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    holder = HolderPowerProblem(centers=np.full(8, 0.1), exponent=0.5, holder_constant=1.0)
    gen = np.random.default_rng(8)
    saddle = SaddleProblem(gen.standard_normal((8, 3)), gen.standard_normal(3), 2.0)
    parts = [_Linear(gen.standard_normal(8), b) for b in (0.5, -1.0, 2.0, 0.0)]
    return {
        "exact": ([ExactOracle(prob)] * 3, _old_model_answer),
        "noisy": ([NoisyGradientOracle(prob, d, directions=3) for d in (0.0, 0.2, 1.5)],
                  _old_model_answer),
        "model-mixed": ([ExactOracle(prob), NoisyGradientOracle(prob, 0.2),
                         NoisyGradientOracle(prob, 1.5)], _old_model_answer),
        "holder": ([HolderOracle(holder, degree=q, delta=0.1) for q in (0.0, 0.5, 1.0)],
                   _old_model_answer),
        "shifted": ([ShiftedPointOracle(prob, s) for s in (0.0, 0.1, 0.3)], _old_shifted_answer),
        "saddle": ([SaddleOracle(saddle, a) for a in (0.0, 0.2, 0.05)], _old_saddle_answer),
        "minibatch": ([MinibatchOracle(parts, b) for b in (2, 4, 3)], _old_minibatch_answer),
    }


def test_evaluate_rows_matches_evaluate_per_row():
    # every family answers a stack at once, each row bitwise its answer
    # alone and the answer written out for one point, each generator drawing
    # what it draws alone, in the same order: with one generator per row,
    # and with one shared by all rows, as certify_oracle passes them
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (3, 8))
    for family, (oracles, written_out) in _family_batches().items():
        for shared in (False, True):
            def generators():
                if shared:
                    return [np.random.default_rng(4)] * 3
                return [np.random.default_rng(seed) for seed in (4, 5, 6)]

            rngs, alone_rngs, written_rngs = generators(), generators(), generators()
            values, candidates, finite = evaluate_rows(oracles, points, rngs)
            assert values.shape == (3,) and candidates.shape[::2] == (3, 8), family
            assert finite.all(), family
            for i, oracle in enumerate(oracles):
                for value, alone in (oracle.evaluate(points[i], rng=alone_rngs[i]),
                                     written_out(oracle, points[i], written_rngs[i])):
                    assert values[i].tobytes() == np.float64(value).tobytes(), family
                    assert candidates[i].tobytes() == np.asarray(alone).tobytes(), family
            states = [[rng.bit_generator.state for rng in gens]
                      for gens in (rngs, alone_rngs, written_rngs)]
            assert states[0] == states[1] == states[2], family


class _Counted(NoisyGradientOracle):
    """Noisy oracle whose stacked answer counts the rows each oracle answers
    and answers honestly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    @staticmethod
    def answers(oracles, points, rngs):
        for oracle in oracles:
            oracle.calls += 1
        return NoisyGradientOracle.answers(oracles, points, rngs)


class _Halved(ExactOracle):
    """Exact oracle whose stacked answer halves each row's gradient, NaN
    from the row oracle's second query on."""

    def __init__(self, problem):
        super().__init__(problem)
        self.queries = 0

    @staticmethod
    def answers(oracles, points, rngs):
        values, candidates = ExactOracle.answers(oracles, points, rngs)
        for oracle, row in zip(oracles, candidates):
            oracle.queries += 1
            row *= 0.5 if oracle.queries == 1 else math.nan
        return values, candidates


def test_evaluate_rows_honours_an_overridden_answer():
    # a subclass that overrides the stacked answer is asked through it, and
    # a non-finite answer marks just its row
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (3, 8))
    oracles = [_Halved(prob) for _ in range(3)]
    values, candidates, finite = evaluate_rows(oracles, points, [None] * 3)
    assert candidates.shape == (3, 1, 8) and finite.all()
    exact = prob.value_and_gradient(points)[1]
    assert candidates.tobytes() == (0.5 * exact[:, None]).tobytes()
    oracles[0].queries = oracles[2].queries = 0
    values, candidates, finite = evaluate_rows(oracles, points, [None] * 3)
    assert finite.tolist() == [True, False, True]
    assert np.isfinite(values).all() and np.isnan(candidates[1]).all()
    assert np.isfinite(candidates[[0, 2]]).all()
    # an override that calls its parent's answer is asked once for the
    # batch and gets back the honest answer: the same bytes and random
    # streams as the plain family
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
    # a batch shares one stacked answer: one that mixes families, or a
    # family with its spoiled subclass, is refused before any answer
    for mixed in ([ExactOracle(prob), _Halved(prob)],
                  [NoisyGradientOracle(prob, 0.2, directions=2), counted[1]],
                  [ExactOracle(prob), ShiftedPointOracle(prob, 0.1)]):
        with pytest.raises(ValueError, match="share one stacked answer"):
            evaluate_rows(mixed, points[:2], [np.random.default_rng(0)] * 2)
    assert [o.calls for o in counted] == [1, 1, 1]


class _Widened(ExactOracle):
    """Exact oracle whose stacked answer gives gradients one entry too long."""

    @staticmethod
    def answers(oracles, points, rngs):
        values, candidates = ExactOracle.answers(oracles, points, rngs)
        return values, np.concatenate([candidates, np.zeros((len(points), 1, 1))], axis=2)


class _Spoiled(ExactOracle):
    """Exact oracle whose stacked answer replaces a row's value or gradient,
    or adds a candidate to it."""

    def __init__(self, problem, value=None, gradient=None, extra=None):
        super().__init__(problem)
        self.bad_value = value
        self.bad_gradient = gradient
        self.extra = extra

    @staticmethod
    def answers(oracles, points, rngs):
        values, candidates = ExactOracle.answers(oracles, points, rngs)
        rows = []
        for i, oracle in enumerate(oracles):
            values[i] = values[i] if oracle.bad_value is None else oracle.bad_value
            grad = candidates[i, 0] if oracle.bad_gradient is None else oracle.bad_gradient
            rows.append([grad] if oracle.extra is None else [grad, oracle.extra])
        return values, rows


class _OnePoint:
    """A problem whose value_and_gradient takes one point only: given a
    stack it answers one value for all of it."""

    lipschitz = 2.0
    convex = False

    def value_and_gradient(self, x):
        return float(np.sum(x * x)), 2.0 * x


def test_evaluate_rows_checks_shapes_and_masks_non_finite_stacked_rows():
    # evaluate_rows checks every answer: a candidate that does not match its
    # point, an answer that is not one per row, or a batch whose answers
    # offer different numbers of candidates, is a usage error, and a
    # non-finite value or candidate marks only its own row
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    points = np.random.default_rng(0).uniform(-0.5, 0.5, (6, 8))
    nan_entry = np.array([math.nan] + [0.0] * 7)
    with pytest.raises(ValueError, match="stack"):
        evaluate_rows([ExactOracle(_OnePoint())] * 2, points[:2], [None] * 2)
    with pytest.raises(ValueError, match=r"must give 3 values and \(C, m, n\) candidates"):
        evaluate_rows([_Widened(prob)] * 3, points[:3], [None] * 3)
    with pytest.raises(ValueError):
        evaluate_rows([_Spoiled(prob, extra=np.zeros(9))], points[:1], [None])
    with pytest.raises(ValueError):  # ragged: one row offers two candidates
        evaluate_rows([_Spoiled(prob), _Spoiled(prob, extra=np.zeros(8))], points[:2],
                      [None] * 2)
    with pytest.raises(ValueError, match="same number of candidate gradients"):
        evaluate_rows([NoisyGradientOracle(prob, 0.1, directions=d) for d in (1, 2)],
                      points[:2], [np.random.default_rng(0)] * 2)
    with pytest.raises(ValueError, match="share one problem"):
        evaluate_rows([ExactOracle(prob), ExactOracle(generate_logsum_instance(8, 12, 2.0))],
                      points[:2], [None] * 2)
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
    # an honest answer marks a non-finite row the same way
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
    # a count of directions that is not an integer is refused, not truncated
    for bad in (2.7, 2.0, True, 0):
        with pytest.raises(ValueError, match="directions"):
            NoisyGradientOracle(prob, 0.25, directions=bad)
    assert NoisyGradientOracle(prob, 0.25, directions=np.int64(3)).directions == 3


def test_noisy_gradient_candidates():
    prob = generate_quadratic_instance(6, conditioning=4.0, seed=0)
    x = np.linspace(-1.0, 1.0, 6)
    exact = prob.gradient(x)

    # one direction is the plain answer, bit for bit
    rng = np.random.default_rng(8)
    plain_value, (plain,) = NoisyGradientOracle(prob, 0.25).evaluate(x, rng=rng)
    ref_rng = np.random.default_rng(8)
    assert np.array_equal(plain, exact + _sequential_bounded_noise(ref_rng, 6, 0.25))
    assert plain_value == prob.value(x)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    one_value, (one,) = NoisyGradientOracle(prob, 0.25, directions=1).evaluate(
        x, rng=np.random.default_rng(8))
    assert np.array_equal(one, plain)
    assert one_value == plain_value

    # m directions: m candidates under the same certificate, drawn as one
    # block, the m directions and then the m coins and fractions
    rng = np.random.default_rng(8)
    _, candidates = NoisyGradientOracle(prob, 0.25, directions=4).evaluate(x, rng=rng)
    assert candidates.shape == (4, 6)
    ref_rng = np.random.default_rng(8)
    draws = _block_bounded_noise(ref_rng, 4, 6, 0.25)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for candidate, noise in zip(candidates, draws):
        assert np.array_equal(candidate, exact + noise)
        assert np.linalg.norm(candidate - exact) <= 0.25 + 1e-12
    assert len({candidate.tobytes() for candidate in candidates}) == 4

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
    oracle = ExactOracle(prob, degree=0.5)
    x = np.ones(4)
    value, (grad,) = oracle.evaluate(x)
    # the convexity claim is the problem's
    assert oracle.certificate == OracleCertificate(delta=0.0, lipschitz=prob.lipschitz,
                                                   degree=0.5, convex_lower_bound=True)
    logsum = generate_logsum_instance(4, 6, 2.0, seed=0)
    assert not ExactOracle(logsum).certificate.convex_lower_bound
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
    fake = ExactOracle(prob)
    assert not fake.certificate.convex_lower_bound
    fake.certificate = replace(fake.certificate, convex_lower_bound=True)
    report = certify_oracle(fake, prob.value, ball_pair_sampler(1.0, 2),
                            pairs=400, rng=np.random.default_rng(5))
    assert not report.certified
    assert report.lower_bound_checked
    assert report.min_lower_slack < -report.tolerance
    assert report.worst_lower_pair is not None


def test_certify_accepts_true_convexity_claim():
    prob = generate_quadratic_instance(8, conditioning=5.0, seed=2)
    oracle = ExactOracle(prob)
    report = certify_oracle(oracle, prob.value, ball_pair_sampler(3.0, 8),
                            pairs=400, rng=np.random.default_rng(6))
    assert report.certified
    assert report.lower_bound_checked
    assert report.min_lower_slack >= -report.tolerance
    assert report.summary() == (f"certified: 400 pairs, max upper violation"
                                f" {report.max_violation:.3e}, min lower slack"
                                f" {report.min_lower_slack:.3e}")


def test_certify_checks_every_candidate():
    # the certificate covers every candidate gradient, so one bad alternative
    # refutes it even when the first candidate is honest
    class _BadAlternatives(NoisyGradientOracle):
        @staticmethod
        def answers(oracles, points, rngs):
            values, candidates = NoisyGradientOracle.answers(oracles, points, rngs)
            candidates[:, 1:] = 1e3
            return values, candidates

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
    # the certifier asks through evaluate_rows, an overridden answer too
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


@pytest.mark.parametrize("overridden", [False, True], ids=["stacked", "overridden"])
def test_certify_asks_the_oracle_once(overridden, monkeypatch):
    # every pair is answered by one evaluate_rows call, whatever the answer
    calls = []
    real = oracle_module.evaluate_rows

    def counting(oracles, points, rngs):
        calls.append(len(points))
        return real(oracles, points, rngs)

    monkeypatch.setattr(oracle_module, "evaluate_rows", counting)
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    oracle = (_Counted if overridden else NoisyGradientOracle)(prob, 0.5, directions=3)
    certify_oracle(oracle, prob.value, ball_pair_sampler(2.0, 8), pairs=50,
                   rng=np.random.default_rng(1))
    assert calls == [50]
    assert not overridden or oracle.calls == 50


def test_certify_raises_on_non_finite_exact_value():
    # a bad F(x) is refused, not reported as the oracle's violation
    prob = generate_logsum_instance(8, 12, 2.0, seed=3)
    for bad in (math.nan, math.inf):
        values = iter([0.0, bad, 0.0])
        with pytest.raises(ValueError, match="exact value is not finite"):
            certify_oracle(ExactOracle(prob), lambda x: next(values),
                           ball_pair_sampler(2.0, 8), pairs=3)


def _certify_per_pair(oracle, exact_value, sampler, pairs, tolerance, rng):
    """Reference certifier: certify_oracle's report as a loop over pairs and
    candidates, sampling every pair before the first answer as it does."""
    cert = oracle.certificate
    samples = [[np.array(p, dtype=float) for p in sampler(rng)] for _ in range(pairs)]
    max_violation, worst, min_lower, lowest = -math.inf, None, math.inf, None
    for x, y in samples:
        values, candidates, finite = evaluate_rows([oracle], y[None], [rng])
        assert finite[0]
        diff = x - y
        dist = float(np.linalg.norm(diff))
        for grad in candidates[0]:
            gap = float(exact_value(x)) - float(values[0]) - float(grad @ diff)
            violation = gap - 0.5 * cert.lipschitz * dist ** 2 - cert.delta * dist ** cert.degree
            if violation > max_violation:
                max_violation, worst = violation, (x, y)
            if gap < min_lower:
                min_lower, lowest = gap, (x, y)
    lower = cert.convex_lower_bound
    return dict(certified=max_violation <= tolerance and (not lower or min_lower >= -tolerance),
                max_violation=max_violation, worst_pair=worst,
                min_lower_slack=min_lower if lower else math.nan,
                worst_lower_pair=lowest if lower else None)


# F(x) = ||A x||**2 / 2 with no offset: F(-x) and its gradient are bitwise
# those at x, so a pair and its negation tie on every violation and gap
_SYMMETRIC = QuadraticProblem(operator=generate_quadratic_instance(6, 3.0, seed=1).operator,
                              offset=np.zeros(6), x_star=np.zeros(6), f_star=0.0)
_LOGSUM = generate_logsum_instance(8, 12, 2.0, seed=3)


def _signed_pool(size, dim, seed):
    """Pairs drawn from a pool of size pairs, each negated or not."""
    pool = np.random.default_rng(seed).uniform(-1.0, 1.0, (size, 2, dim))

    def sample(rng):
        return tuple(pool[rng.integers(size)] * (-1.0 if rng.random() < 0.5 else 1.0))
    return sample


@settings(database=None, deadline=None, max_examples=80)
@given(overridden=st.booleans(), count=st.sampled_from([1, 3]),
       noise=st.sampled_from([0.0, 0.05, 0.5]), scale=st.floats(0.01, 2.0),
       lower=st.booleans(), pool=st.sampled_from([0, 1, 4]), pairs=st.integers(1, 30),
       seed=st.integers(0, 2 ** 16))
@example(overridden=False, count=3, noise=0.0, scale=1.0, lower=True, pool=1, pairs=8, seed=0)
@example(overridden=True, count=3, noise=0.0, scale=0.5, lower=True, pool=1, pairs=8, seed=1)
def test_certify_matches_a_per_pair_loop(overridden, count, noise, scale, lower, pool,
                                         pairs, seed):
    # pool 0 samples the logsum ball; a pool of one pair and its negation
    # with zero noise ties every entry, so the first pair must be the pick
    prob, sampler = ((_LOGSUM, ball_pair_sampler(2.0, 8)) if pool == 0
                     else (_SYMMETRIC, _signed_pool(pool, 6, seed)))
    oracle = (_Counted if overridden else NoisyGradientOracle)(prob, noise, directions=count)
    cert = oracle.certificate
    oracle.certificate = replace(cert, delta=scale * cert.delta,
                                 lipschitz=scale * cert.lipschitz, convex_lower_bound=lower)
    report = certify_oracle(oracle, prob.value, sampler, pairs=pairs,
                            rng=np.random.default_rng(seed))
    want = _certify_per_pair(oracle, prob.value, sampler, pairs, report.tolerance,
                             np.random.default_rng(seed))
    assert report.pairs == pairs and report.lower_bound_checked == lower
    assert report.certified == want["certified"]
    assert report.max_violation == pytest.approx(want["max_violation"], rel=1e-12, abs=1e-15)
    for got, expected in ((report.worst_pair, want["worst_pair"]),
                          (report.worst_lower_pair, want["worst_lower_pair"])):
        assert (got is None) == (expected is None)
        if got is not None:
            assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))
    if lower:
        assert report.min_lower_slack == pytest.approx(want["min_lower_slack"], rel=1e-12,
                                                       abs=1e-15)
    else:
        assert math.isnan(report.min_lower_slack)


# ------------------------------------------------------------- bad inputs


_SMALL = generate_logsum_instance(4, 8, 2.0)
_COMPONENTS = [_Linear([1.0, 0.0], 1.0), _Linear([0.0, 2.0], 2.0), _Linear([1.0, 1.0], 0.0)]


@pytest.mark.parametrize("build, name", [
    (lambda: generate_logsum_instance(4, 8, math.nan), "radius"),
    (lambda: generate_logsum_instance(4, 8, math.inf), "radius"),
    (lambda: LogSumProblem(rows=np.ones((2, 3)), targets=np.zeros(2), radius=math.nan), "radius"),
    (lambda: generate_quadratic_instance(4, conditioning=math.nan), "conditioning"),
    (lambda: generate_quadratic_instance(4, conditioning=math.inf), "conditioning"),
    (lambda: NoisyGradientOracle(_SMALL, 0.1, degree=0.5, diameter=-8.0), "diameter"),
    (lambda: NoisyGradientOracle(_SMALL, 0.1, degree=0.5, diameter=0.0), "diameter"),
    (lambda: NoisyGradientOracle(_SMALL, 0.1, degree=1.0, diameter=math.nan), "diameter"),
    (lambda: MinibatchOracle(_COMPONENTS, 2.5), "batch_size"),
    (lambda: MinibatchOracle(_COMPONENTS, True), "batch_size"),
    (lambda: majorize_amgm(math.nan, 0.5, 1.0), "delta"),
    (lambda: majorize_amgm(0.1, 0.5, math.nan), "rho"),
    (lambda: majorize_amgm(math.inf, 0.5, 1.0), "delta"),
    (lambda: holder_smoothing_constant(math.nan, 1.0, 0.5, 1.0), "holder_constant"),
    (lambda: holder_smoothing_constant(math.inf, 1.0, 0.5, 1.0), "holder_constant"),
    (lambda: holder_smoothing_constant(1.0, 0.5, 0.5, math.inf), "delta"),
    (lambda: holder_delta_opt(math.nan, 1.0, 0.5, 1.0, 10.0), "holder_constant"),
    (lambda: generate_logsum_instance(4, 8, 2.0, noise_level=math.nan), "noise_level"),
    (lambda: generate_logsum_instance(4, 8, 2.0, noise_level=math.inf), "noise_level"),
    (lambda: HolderPowerProblem(np.zeros(3), 0.5, math.nan), "holder_constant"),
    (lambda: HolderPowerProblem(np.zeros(3), 0.5, math.inf), "holder_constant"),
    (lambda: SaddleProblem(np.eye(2), np.zeros(2), math.nan), "concavity"),
    (lambda: SaddleProblem(np.eye(2), np.zeros(2), math.inf), "concavity"),
    (lambda: theta_next(math.nan, 1.0), "a_prev"),
    (lambda: certify_oracle(ExactOracle(_SMALL), _SMALL.value, ball_pair_sampler(2.0, 4),
                            pairs=2.5), "pairs"),
    (lambda: certify_oracle(ExactOracle(_SMALL), _SMALL.value, ball_pair_sampler(2.0, 4),
                            pairs=True), "pairs"),
    (lambda: generate_logsum_instance(2.5, 8, 2.0), "n"),
    (lambda: generate_quadratic_instance(2.5), "n"),
    (lambda: generate_holder_instance(0, 0.5), "n"),
    (lambda: ball_pair_sampler(math.nan, 3), "radius"),
    (lambda: rho_opt_horizon(1.0, 1.5, 0.1, 1.0, -5), "horizon"),
    (lambda: bound_nonconvex_const(1.0, 0.5, 0.1, 1.0, -1), "k"),
    (lambda: bound_nonconvex_const(1.0, 0.5, 0.1, 1.0, math.nan), "k"),
    (lambda: rho_opt_fast(1.0, 0.5, 0.1, np.array([3.0, -5.0])), "k"),
    (lambda: bound_convex_ergodic(1.0, 1.0, 0.1, 1.0, np.array([1.0, math.inf])), "k"),
], ids=["logsum-radius-nan", "logsum-radius-inf", "logsum-problem-radius-nan",
        "quadratic-conditioning-nan", "quadratic-conditioning-inf", "noisy-diameter-negative",
        "noisy-diameter-zero", "noisy-diameter-nan", "minibatch-fractional",
        "minibatch-bool", "amgm-delta-nan", "amgm-rho-nan", "amgm-delta-inf",
        "holder-constant-nan", "holder-constant-inf", "holder-delta-inf", "delta-opt-nan",
        "logsum-noise-nan", "logsum-noise-inf", "power-holder-constant-nan",
        "power-holder-constant-inf", "saddle-concavity-nan", "saddle-concavity-inf",
        "theta-a-prev-nan", "certify-pairs-fractional", "certify-pairs-bool",
        "logsum-n-fractional", "quadratic-n-fractional", "holder-n-zero",
        "sampler-radius-nan", "horizon-negative", "k-negative", "k-nan",
        "k-array-negative", "k-array-inf"])
def test_bad_inputs_raise(build, name):
    # each of these used to build NaN or inf data, a zero or truncated
    # parameter, a TypeError or an error naming another parameter; NaN
    # fails every "not x > 0" check
    with pytest.raises(ValueError, match=f"^{name} must "):
        build()


def test_scalar_checks():
    # every scalar check of the package goes through these six helpers
    count = _count(np.int64(3), "pairs")
    assert count == 3 and type(count) is int
    for bad in (True, 2.5, 0):
        with pytest.raises(ValueError, match=r"^pairs must be a positive integer, got"):
            _count(bad, "pairs")
    for bad in (np.float64("nan"), math.inf, -math.inf):
        with pytest.raises(ValueError, match="^width must be finite$"):
            _finite("width", bad)
        with pytest.raises(ValueError, match="^width must be finite$"):
            _positive(width=bad)
        with pytest.raises(ValueError, match="^width must be finite$"):
            _nonnegative(width=bad)
    _positive(width=5e-324)
    with pytest.raises(ValueError, match="^width must be positive$"):
        _positive(width=0.0)
    _nonnegative(width=0.0)
    with pytest.raises(ValueError, match="^width must be nonnegative$"):
        _nonnegative(width=-5e-324)
    # each keyword is checked and named in turn
    with pytest.raises(ValueError, match="^height must be positive$"):
        _positive(width=1.0, height=-1.0)
    assert _check_degree(np.float64(1.5)) == 1.5 and type(_check_degree(1)) is float
    for bad in (math.nan, -0.1, 2.0):
        with pytest.raises(ValueError, match=r"^degree must lie in \[0, 2\)$"):
            _check_degree(bad)
    with pytest.raises(ValueError, match=r"^degree must lie in \[1, 2\)$"):
        _check_degree(0.5, lo=1.0)
    ks = _check_k([0, 2.5])
    assert ks.dtype == float and ks.tolist() == [0.0, 2.5] and _check_k(1).ndim == 0
    for bad in (math.nan, math.inf, -math.inf, -1e-300, [1.0, math.nan]):
        with pytest.raises(ValueError, match="^k must be finite and at least 0$"):
            _check_k(bad)
    with pytest.raises(ValueError, match="^horizon must be finite and at least 1$"):
        _check_k(0.5, floor=1.0, name="horizon")
