"""Solvers: schedules, exact reductions, guarantees, guards, adaptivity."""

import math
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from proxiq import (
    AdaptiveState,
    DivergenceError,
    ExactOracle,
    MinibatchOracle,
    NoisyGradientOracle,
    OracleCertificate,
    ProxFunction,
    RunTrace,
    SaddleOracle,
    SaddleProblem,
    ScheduleConfig,
    ShiftedPointOracle,
    adaptive_prox_gradient,
    fast_prox_gradient,
    generate_logsum_instance,
    generate_quadratic_instance,
    project_l1_ball,
    prox_gradient,
    rho_opt_horizon,
)
from proxiq import solver as solver_module
from proxiq.oracle import sq_norm
from proxiq.prox import project_l1_rows
from proxiq.solver import _farthest_move, _theta


class _WrongConstant(ExactOracle):
    """Exact oracle whose certificate understates the smoothness constant."""

    def __init__(self, problem, factor):
        super().__init__(problem)
        self.certificate = OracleCertificate(delta=0.0, lipschitz=problem.lipschitz * factor,
                                             degree=1.0)


class _Poisoned(ExactOracle):
    """Exact oracle whose answers turn non-finite from a given query on, or
    never without one.

    The answer itself is non-finite, as a real oracle's with an overflowing
    or NaN computation would be, and evaluate_rows' finiteness check marks
    it.  Each oracle of a batch counts its own queries.
    """

    def __init__(self, problem, first_bad=math.inf, field=None, degree=1.0):
        super().__init__(problem, degree=degree)
        self.first_bad = first_bad
        self.field = field
        self.queries = 0

    @staticmethod
    def answers(oracles, points, rngs):
        values, candidates = ExactOracle.answers(oracles, points, rngs)
        for i, oracle in enumerate(oracles):
            oracle.queries += 1
            if oracle.queries > oracle.first_bad and oracle.field == "value":
                values[i] = math.inf
            if oracle.queries > oracle.first_bad and oracle.field == "gradient":
                candidates[i] *= math.nan
        return values, candidates


# --------------------------------------------------------------- schedules


def test_schedule_config_hand_values():
    # the step is step_scale / (L + q*rho) with L, q and delta from the certificate
    cfg = ScheduleConfig(max_iters=10, rho=1.0, step_scale=0.5)
    assert [f.name for f in fields(cfg)] == ["rho", "max_iters", "step_scale"]
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    lip = prob.lipschitz
    for degree, diameter, want in [(1.0, None, 0.5 / (lip + 1.0)),
                                   (0.5, 4.0, 0.5 / (lip + 0.5)),
                                   (0.0, 4.0, 0.5 / lip)]:
        oracle = NoisyGradientOracle(prob, 0.4, degree=degree, diameter=diameter)
        trace = prox_gradient(prob.value, oracle, ProxFunction.zero(), cfg, np.zeros(4),
                              rng=np.random.default_rng(0))
        assert np.all(trace.alpha == want)
        assert np.all(trace.delta == oracle.certificate.delta)
    assert oracle.certificate.delta == 0.4 * 4.0


def test_schedule_config_validation():
    ok = dict(max_iters=5, rho=1.0)
    ScheduleConfig(**ok)
    for bad in [dict(rho=-1.0), dict(rho=math.nan), dict(rho=math.inf), dict(rho=-math.inf),
                dict(step_scale=0.0), dict(step_scale=1.5), dict(max_iters=0)]:
        with pytest.raises(ValueError):
            ScheduleConfig(**{**ok, **bad})
    # a count that is not an integer is refused up front, not run or failed later
    for bad in (2.5, 3.0, True, "5"):
        with pytest.raises(ValueError, match="max_iters"):
            ScheduleConfig(**{**ok, "max_iters": bad})
    assert ScheduleConfig(**{**ok, "max_iters": np.int64(5)}).max_iters == 5


# -------------------------------------------------------------- plain loop


def test_prox_gradient_matches_reference_loop():
    prob = generate_quadratic_instance(6, conditioning=3.0, seed=1)
    cfg = ScheduleConfig(max_iters=50, rho=0.0)
    trace = prox_gradient(prob.value, ExactOracle(prob), ProxFunction.zero(),
                          cfg, np.zeros(6))
    x = np.zeros(6)
    alpha = 1.0 / prob.lipschitz
    for k in range(50):
        x = x - alpha * prob.gradient(x)
        assert np.array_equal(trace.iterates[k + 1], x)
        assert trace.alpha[k] == alpha
    assert trace.delta == 0.0
    assert len(trace.gm_sq) == 50
    assert trace.objective[0] == prob.value(np.zeros(6))
    # derived columns: gm identity and running minimum
    moves = trace.iterates[:-1] - trace.iterates[1:]
    gm = (moves ** 2).sum(axis=1) / trace.alpha ** 2
    assert np.allclose(trace.gm_sq, gm, rtol=1e-12)
    assert np.array_equal(trace.min_gm_sq, np.minimum.accumulate(trace.gm_sq))


def test_prox_gradient_single_step_solves_separable():
    class _OneDim:
        lipschitz = 1.0
        convex = True

        def value(self, x):
            return 0.5 * (x * x).sum(axis=-1)

        def value_and_gradient(self, x):
            # a model oracle's problem answers a stack (C, n) row by row
            return self.value(x), np.asarray(x, dtype=float)

    prob = _OneDim()
    cfg = ScheduleConfig(max_iters=3, rho=0.0)
    trace = prox_gradient(prob.value, ExactOracle(prob), ProxFunction.zero(),
                          cfg, np.array([1.0]))
    assert np.array_equal(trace.iterates[1], [0.0])
    assert np.all(trace.gm_sq[1:] == 0.0)


def test_prox_gradient_sufficient_decrease():
    # at half the maximal step each move must pay for itself:
    # f(x+) <= f(x) - (L/2)*||x+ - x||^2 under an exact oracle
    prob = generate_logsum_instance(12, 20, 3.0, seed=2)
    cfg = ScheduleConfig(max_iters=200, rho=0.0, step_scale=0.5)
    trace = prox_gradient(prob.value, ExactOracle(prob), ProxFunction.l1_ball(3.0),
                          cfg, np.zeros(12))
    diffs = np.diff(trace.objective)
    paid = -0.5 * prob.lipschitz * trace.alpha ** 2 * trace.gm_sq
    assert np.all(diffs <= paid + 1e-12)


def test_prox_gradient_guards():
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    cfg = ScheduleConfig(max_iters=200, rho=0.0)
    with pytest.raises(DivergenceError):
        # certificate claims 1/50 of the true constant: the step is 50x too long
        prox_gradient(prob.value, _WrongConstant(prob, 0.02), ProxFunction.zero(),
                      cfg, np.ones(4))
    # a zero weight is fine when nothing needs majorizing: degree 0 or delta = 0
    unweighted = ScheduleConfig(max_iters=5, rho=0.0)
    rng = np.random.default_rng(0)
    prox_gradient(prob.value, NoisyGradientOracle(prob, 0.1, degree=0.0, diameter=2.0),
                  ProxFunction.zero(), unweighted, np.zeros(4), rng=rng)
    prox_gradient(prob.value, ExactOracle(prob, degree=1.0), ProxFunction.zero(),
                  unweighted, np.zeros(4))
    with pytest.raises(ValueError, match="rho must be positive"):
        prox_gradient(prob.value, NoisyGradientOracle(prob, 0.1, degree=1.0),
                      ProxFunction.zero(), unweighted, np.zeros(4), rng=rng)
    with pytest.raises(ValueError):
        prox_gradient(prob.value, ExactOracle(prob), ProxFunction.zero(),
                      cfg, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        prox_gradient(prob.value, ExactOracle(prob), ProxFunction.l1_ball(1.0),
                      cfg, np.ones(4))
    # h = 0 is the ball at radius inf, whose domain holds no NaN point
    with pytest.raises(ValueError, match="outside dom h"):
        prox_gradient(prob.value, ExactOracle(prob), ProxFunction.zero(),
                      cfg, np.array([math.nan, 0.0, 0.0, 0.0]))


class _Scaled(ExactOracle):
    """Exact oracle that also offers the gradient scaled by each factor."""

    def __init__(self, problem, factors):
        super().__init__(problem)
        self.factors = factors

    @staticmethod
    def answers(oracles, points, rngs):
        values, candidates = ExactOracle.answers(oracles, points, rngs)
        factors = np.array([[1.0, *oracle.factors] for oracle in oracles])
        return values, factors[:, :, None] * candidates


def test_prox_gradient_follows_the_farthest_candidate():
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    cfg = ScheduleConfig(max_iters=5, rho=0.0, step_scale=0.25)
    x0 = np.ones(4)
    h = ProxFunction.zero()
    plain = prox_gradient(prob.value, ExactOracle(prob), h, cfg, x0)
    # from the origin, -g moves exactly as far as g: the first candidate wins the tie
    tied = prox_gradient(prob.value, _Scaled(prob, [-1.0]), h, cfg, np.zeros(4))
    g0 = prob.gradient(np.zeros(4))
    assert np.any(g0 != 0.0)
    assert np.array_equal(tied.iterates[1], -tied.alpha[0] * g0)
    # unconstrained, the doubled gradient moves farthest
    far = prox_gradient(prob.value, _Scaled(prob, [0.5, 2.0, 1.5]), h, cfg, x0)
    assert np.array_equal(far.iterates[1], x0 - far.alpha[0] * (2.0 * prob.gradient(x0)))
    assert far.gm_sq[0] == pytest.approx(4.0 * plain.gm_sq[0], rel=1e-12)
    assert far.objective[1] == prob.value(far.iterates[1])


def _sequential_farthest_move(h, alpha, x, candidates):
    """The worst-case pick as a loop over the candidates, one prox call each,
    a later candidate replacing the pick only when it moves strictly farther."""
    def _prox_move(h, alpha, x, grad):
        nxt = project_l1_rows(x - alpha[:, None] * grad, h.radius)
        return nxt, sq_norm(nxt - x)

    nxt, move_sq = _prox_move(h, alpha, x, candidates[:, 0])
    for j in range(1, candidates.shape[1]):
        cand, cand_sq = _prox_move(h, alpha, x, candidates[:, j])
        farther = cand_sq > move_sq
        nxt[farther] = cand[farther]
        move_sq = np.where(farther, cand_sq, move_sq)
    return nxt, move_sq


def test_farthest_move_matches_sequential_pick():
    # one prox call on the (C*m, n) stack and an argmax pick the same step,
    # bitwise, as one prox call per candidate and a strict comparison
    rng = np.random.default_rng(11)
    for h in (ProxFunction.zero(), ProxFunction.l1_ball(2.0)):
        for count in (1, 4):
            x = project_l1_rows(rng.uniform(-1.0, 1.0, (6, 9)), h.radius)
            alpha = rng.uniform(0.1, 1.0, 6)
            candidates = 3.0 * rng.standard_normal((6, count, 9))
            got = _farthest_move(h, alpha, x, candidates)
            want = _sequential_farthest_move(h, alpha, x, candidates)
            for stacked, looped in zip(got, want, strict=True):
                assert stacked.tobytes() == looped.tobytes()

    # ties: equal move lengths along different moves; the first of the
    # longest moves wins, as a strict comparison in candidate order picks it
    x = np.zeros((3, 3))
    alpha = np.array([0.5, 0.25, 1.0])
    candidates = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                           [[0.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 0.0]],
                           [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]])
    nxt, move_sq = _farthest_move(ProxFunction.zero(), alpha, x, candidates)
    first = [0, 0, 1]
    assert np.array_equal(nxt, -alpha[:, None] * candidates[np.arange(3), first])
    assert np.array_equal(move_sq, (alpha * np.array([1.0, 2.0, 2.0])) ** 2)
    for stacked, looped in zip((nxt, move_sq),
                               _sequential_farthest_move(ProxFunction.zero(), alpha, x,
                                                         candidates), strict=True):
        assert stacked.tobytes() == looped.tobytes()

    # a finite candidate whose step overflows: its projection onto the ball
    # is NaN, and a NaN move after the first candidate never wins the pick,
    # while the first candidate's NaN move keeps it
    ball = ProxFunction.l1_ball(2.0)
    x = np.zeros((2, 2))
    alpha = np.array([2.0, 2.0])
    candidates = np.array([[[1.0, 0.0], [-1e308, 0.0], [3.0, 0.0]],
                           [[-1e308, 0.0], [0.0, 1.0], [5.0, 5.0]]])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nxt, move_sq = _farthest_move(ball, alpha, x, candidates)
        want = _sequential_farthest_move(ball, alpha, x, candidates)
    assert np.array_equal(nxt[0], [-2.0, 0.0]) and move_sq[0] == 4.0
    assert np.isnan(nxt[1, 0]) and np.isnan(move_sq[1])
    for stacked, looped in zip((nxt, move_sq), want, strict=True):
        assert stacked.tobytes() == looped.tobytes()
    # one candidate: the same pick returns its step and squared move, NaN too
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nxt, move_sq = _farthest_move(ball, alpha, x, candidates[:, :1])
        want = _sequential_farthest_move(ball, alpha, x, candidates[:, :1])
    assert move_sq[0] == 4.0 and np.isnan(move_sq[1])
    for stacked, looped in zip((nxt, move_sq), want, strict=True):
        assert stacked.tobytes() == looped.tobytes()


def test_prox_gradient_turns_non_finite_answers_into_divergence():
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    cfg = ScheduleConfig(max_iters=10, rho=0.0)
    # a NaN gradient in the answer at x_2
    with pytest.raises(DivergenceError, match="step 2"):
        prox_gradient(prob.value, _Poisoned(prob, 2, "gradient"), ProxFunction.zero(),
                      cfg, np.ones(4))
    # F = +inf at every point after x_0
    with pytest.raises(DivergenceError, match="step 1"):
        prox_gradient(prob.value, _Poisoned(prob, 1, "value"), ProxFunction.zero(),
                      cfg, np.ones(4))
    # the final iterate's F comes from objective, not from the oracle
    once = ScheduleConfig(max_iters=1, rho=0.0)
    with pytest.raises(DivergenceError, match="step 1"):
        prox_gradient(lambda x: np.full(len(x), math.inf), ExactOracle(prob),
                      ProxFunction.zero(), once, np.ones(4))
    # the fast and adaptive solvers ask through the same answer step and
    # report in the batch's words, at x_0 as at any later iterate
    for solver in (fast_prox_gradient, lambda *a: adaptive_prox_gradient(*a, 1.0)):
        for first_bad, field in [(2, "gradient"), (2, "value"), (0, "value")]:
            with pytest.raises(DivergenceError,
                               match=f"^oracle answer at step {first_bad} is not finite$"):
                solver(prob.value, _Poisoned(prob, first_bad, field), ProxFunction.zero(),
                       cfg, np.ones(4))


def test_prox_gradient_deterministic_given_seed():
    prob = generate_logsum_instance(8, 12, 2.0, seed=4)
    cfg = ScheduleConfig(max_iters=40, rho=prob.lipschitz)
    runs = []
    for _ in range(2):
        oracle = NoisyGradientOracle(prob, noise_bound=0.3)
        runs.append(prox_gradient(prob.value, oracle, ProxFunction.l1_ball(2.0),
                                  cfg, np.zeros(8), rng=np.random.default_rng(77)))
    assert np.array_equal(runs[0].iterates, runs[1].iterates)
    assert np.array_equal(runs[0].objective, runs[1].objective)


# ------------------------------------------------------------------ batch


def _adaptive(objective, oracle, h, config, x0, rng=None):
    # a small slack and few doublings: its runs retry, and a long first
    # step runs out of doublings
    return adaptive_prox_gradient(objective, oracle, h, config, x0, 1e-4, rng=rng,
                                  max_doublings=10)


# every solver as solve(objective, oracle, h, config, x0, rng=None)
_SOLVERS = {
    "prox_gradient": prox_gradient,
    "fast_equality_root": partial(fast_prox_gradient, theta_rule="equality_root"),
    "fast_half_linear": partial(fast_prox_gradient, theta_rule="half_linear"),
    "adaptive": _adaptive,
}


def _trace(run):
    return run[0] if isinstance(run, tuple) else run


def _batch_setup(solver):
    """Runs of mixed degrees, noise bounds and step scales; the adaptive
    method takes degrees in [1, 2) only."""
    prob = generate_logsum_instance(8, 12, 0.2, seed=4)
    if solver == "adaptive":
        oracles = [NoisyGradientOracle(prob, d) for d in (0.0, 0.3, 0.1)]
        oracles.append(ExactOracle(prob, degree=1.5))
    else:
        oracles = [NoisyGradientOracle(prob, d, degree=q, diameter=0.4)
                   for q in (0.0, 0.5, 1.0) for d in (0.0, 0.3)]
    configs = [ScheduleConfig(max_iters=40, rho=0.0 if o.noise_bound == 0.0 else prob.lipschitz,
                              step_scale=(0.5, 1.0)[i % 2]) for i, o in enumerate(oracles)]
    return prob, oracles, configs


def _assert_same_run(got, want):
    """Bitwise the same run: every traced column, and an adaptive run's history."""
    if isinstance(want, tuple):
        (got, got_history), (want, want_history) = got, want
        assert got_history == want_history
    for name in ("objective", "alpha", "gm_sq", "min_gm_sq", "objective_y"):
        got_column, want_column = getattr(got, name), getattr(want, name)
        assert (got_column is None) == (want_column is None), name
        assert want_column is None or got_column.tobytes() == want_column.tobytes(), name
    assert got.delta == want.delta


@pytest.mark.parametrize("solver", _SOLVERS)
def test_batch_matches_runs_alone(solver):
    solve = _SOLVERS[solver]
    prob, oracles, configs = _batch_setup(solver)
    h = ProxFunction.l1_ball(0.2)
    x0 = np.zeros(8)
    runs = solve(prob.value, oracles, h, configs, x0,
                 rng=[np.random.default_rng(i) for i in range(len(oracles))])
    for i, (run, oracle, cfg) in enumerate(zip(runs, oracles, configs)):
        assert _trace(run).iterates is None
        alone = solve(prob.value, oracle, h, cfg, x0, rng=np.random.default_rng(i))
        assert _trace(alone).iterates.shape == (41, 8)
        _assert_same_run(run, alone)
    if solver == "adaptive":  # the retry loop is exercised, in every run
        assert all(max(state.retry_count for state in history) > 1 for _, history in runs)
    # one config for all runs, from a start off the origin
    shared = ScheduleConfig(max_iters=40, rho=prob.lipschitz)
    x0 = np.linspace(-0.02, 0.02, 8)
    runs = solve(prob.value, oracles, h, [shared] * len(oracles), x0,
                 rng=[np.random.default_rng(i) for i in range(len(oracles))])
    for i, (run, oracle) in enumerate(zip(runs, oracles)):
        alone = solve(prob.value, oracle, h, shared, x0, rng=np.random.default_rng(i))
        _assert_same_run(run, alone)


@pytest.mark.parametrize("solver", _SOLVERS)
def test_batch_isolates_failures(solver):
    solve = _SOLVERS[solver]
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    short = ScheduleConfig(max_iters=10, rho=0.0, step_scale=0.05)
    # a full first step gains more than the adaptive slack can chase in 10 doublings
    full = replace(short, step_scale=1.0)
    h = ProxFunction.zero()
    oracles = [_Poisoned(prob), _Poisoned(prob, 3, "gradient"), _Poisoned(prob, degree=1.5),
               _Poisoned(prob, 6, "value"), _Poisoned(prob)]
    configs = [short] * 4 + [full]
    runs = solve(prob.value, oracles, h, configs, np.ones(4), rng=[None] * 5)
    assert isinstance(runs[1], DivergenceError) and "step 3" in str(runs[1])
    assert isinstance(runs[3], DivergenceError) and "step 6" in str(runs[3])
    finished = [0, 2, 4]
    if solver == "adaptive":
        assert isinstance(runs[4], DivergenceError)
        assert str(runs[4]) == "adaptive target chase exceeded 10 doublings at step 0"
        finished = [0, 2]
    for i in finished:
        _assert_same_run(runs[i], solve(prob.value, oracles[i], h, configs[i], np.ones(4)))


@pytest.mark.parametrize("solver", _SOLVERS)
def test_each_step_asks_the_oracle_once(solver, monkeypatch):
    # K steps make K evaluate_rows calls, one per step for all live runs,
    # whatever the family, and when the batch loses a run
    calls = []
    real = solver_module.evaluate_rows

    def counting(oracles, points, rngs):
        calls.append(len(points))
        return real(oracles, points, rngs)

    monkeypatch.setattr(solver_module, "evaluate_rows", counting)
    solve = _SOLVERS[solver]
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    h, x0 = ProxFunction.l1_ball(1.0), np.full(4, 0.2)
    # a short step keeps the adaptive target within its ten doublings
    cfg = ScheduleConfig(max_iters=8, rho=1.0, step_scale=0.05)
    batches = [[NoisyGradientOracle(prob, 0.1)] * 3, [ShiftedPointOracle(prob, 0.1)] * 3,
               [_Poisoned(prob), _Poisoned(prob, 3, "gradient"), _Poisoned(prob)]]
    for oracles, want in zip(batches, [[3] * 8, [3] * 8, [3] * 4 + [2] * 4]):
        calls.clear()
        runs = solve(prob.value, oracles, h, [cfg] * 3, x0,
                     rng=[np.random.default_rng(i) for i in range(3)])
        assert calls == want
        assert sum(isinstance(run, DivergenceError) for run in runs) == (want[-1] == 2)


def test_prox_gradient_final_blowup_leaves_siblings():
    # a blow-up ends a run as well; its siblings finish.  objective runs
    # once, on the stack of final iterates, one row per run
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    finals = lambda x: np.array([math.inf, 0.0])
    runs = prox_gradient(finals, [ExactOracle(prob)] * 2, ProxFunction.zero(),
                         [ScheduleConfig(max_iters=1, rho=0.0)] * 2, np.ones(4), [None] * 2)
    assert isinstance(runs[0], DivergenceError) and "blew up at step 1" in str(runs[0])
    assert isinstance(runs[1], RunTrace) and runs[1].objective[-1] == 0.0


class _Spoiled:
    """objective, spoiled at the (call, row) pairs it lists: row r of call c
    answers value."""

    def __init__(self, objective, spoils, value):
        self.objective, self.spoils, self.value = objective, spoils, value
        self.count = 0

    def __call__(self, x):
        values = self.objective(x)
        for call, row in self.spoils:
            if call == self.count:
                values[row] = self.value
        self.count += 1
        return values


def test_fast_method_ends_a_run_at_a_non_finite_prox_point():
    # objective is called once a step, on the stack of the live runs' y_k,
    # one row per run; the answers at the iterates stay finite
    quad = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    h, cfg, x0 = ProxFunction.zero(), ScheduleConfig(max_iters=6, rho=0.0), np.ones(4)
    with pytest.raises(DivergenceError, match=r"^objective blew up at step 3: f = inf$"):
        fast_prox_gradient(_Spoiled(quad.value, {(2, 0)}, math.inf), ExactOracle(quad), h, cfg,
                           x0)
    # in a batch, run 0's F(y_2) is row 0 of call 2; run 1 finishes as it does alone
    runs = fast_prox_gradient(_Spoiled(quad.value, {(2, 0)}, math.nan), [ExactOracle(quad)] * 2,
                              h, [cfg, replace(cfg, step_scale=0.5)], x0, rng=[None] * 2)
    assert str(runs[0]) == "objective blew up at step 3: f = nan"
    _assert_same_run(runs[1], fast_prox_gradient(quad.value, ExactOracle(quad), h,
                                                 replace(cfg, step_scale=0.5), x0))
    # F(y_2) is asked before the answer at x_3, so its failure is the one reported
    with pytest.raises(DivergenceError, match=r"^objective blew up at step 3: f = inf$"):
        fast_prox_gradient(_Spoiled(quad.value, {(2, 0)}, math.inf),
                           _Poisoned(quad, 3, "value"), h, cfg, x0)


def test_adaptive_candidate_above_the_ceiling_ends_its_run():
    # with a slack this large no candidate beats the target, so objective is
    # called once a step, on the stack of the live runs' candidates, one row
    # per run
    quad = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    h, cfg, x0 = ProxFunction.zero(), ScheduleConfig(max_iters=6, rho=0.0), np.ones(4)
    with pytest.raises(DivergenceError, match=r"^objective blew up at step 3: f = 1e\+300$"):
        adaptive_prox_gradient(_Spoiled(quad.value, {(2, 0)}, 1e300), ExactOracle(quad), h, cfg,
                               x0, 1e6)
    runs = adaptive_prox_gradient(_Spoiled(quad.value, {(2, 0)}, 1e300), [ExactOracle(quad)] * 2,
                                  h, [cfg, replace(cfg, step_scale=0.5)], x0, 1e6,
                                  rng=[None] * 2)
    assert str(runs[0]) == "objective blew up at step 3: f = 1e+300"
    _, history = runs[1]
    assert [state.retry_count for state in history] == [0] * 6
    _assert_same_run(runs[1], adaptive_prox_gradient(quad.value, ExactOracle(quad), h,
                                                     replace(cfg, step_scale=0.5), x0, 1e6))


def test_prox_gradient_takes_every_oracle_family():
    # families that answer through their own evaluate, alone and in a batch
    prob = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    gen = np.random.default_rng(8)
    saddle = SaddleProblem(gen.standard_normal((4, 3)), gen.standard_normal(3), 2.0)
    parts = [generate_quadratic_instance(4, conditioning=2.0, seed=s) for s in (5, 6, 7)]
    cases = [(prob.value, ShiftedPointOracle(prob, 0.1)),
             (lambda x: sum(p.value(x) for p in parts) / 3,
              MinibatchOracle(parts, 2, claimed_lipschitz=max(p.lipschitz for p in parts))),
             (saddle.value, SaddleOracle(saddle, 0.1))]
    h = ProxFunction.l1_ball(1.0)
    cfg = ScheduleConfig(max_iters=6, rho=1.0)
    x0 = np.full(4, 0.1)
    for objective, oracle in cases:
        trace = prox_gradient(objective, oracle, h, cfg, x0, rng=np.random.default_rng(0))
        value, (grad,) = oracle.evaluate(x0, rng=np.random.default_rng(0))
        alpha = trace.alpha[0]
        assert trace.objective[0] == value
        assert np.array_equal(trace.iterates[1], project_l1_ball(x0 - alpha * grad, h.radius))
        assert trace.objective[-1] == objective(trace.iterates[-1])
        runs = prox_gradient(objective, [oracle, oracle], h, [cfg] * 2, x0,
                             [np.random.default_rng(0), np.random.default_rng(1)])
        _assert_same_run(runs[0], trace)
        _assert_same_run(runs[1], prox_gradient(objective, oracle, h, cfg, x0,
                                                rng=np.random.default_rng(1)))


@pytest.mark.parametrize("solver", _SOLVERS)
def test_batch_validation(solver):
    solve = _SOLVERS[solver]
    prob, oracles, configs = _batch_setup(solver)
    h = ProxFunction.l1_ball(0.2)
    x0 = np.zeros(8)
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="share max_iters"):
        solve(prob.value, oracles[:2], h, [configs[0], replace(configs[1], max_iters=5)], x0,
              rng=rngs)
    with pytest.raises(ValueError, match="one oracle, config and generator"):
        solve(prob.value, oracles[:2], h, configs[:1], x0, rng=rngs)
    with pytest.raises(ValueError, match="one oracle, config and generator"):
        solve(prob.value, [], h, [], x0, rng=[])
    with pytest.raises(ValueError, match="must be a vector"):
        solve(prob.value, oracles[:2], h, configs[:2], np.zeros((2, 8)), rng=rngs)
    with pytest.raises(ValueError, match="outside dom h"):
        solve(prob.value, oracles[:2], h, configs[:2], np.ones(8), rng=rngs)
    # a noisy run of positive degree needs a weight, in the methods that step with it
    noisy = next(o for o in oracles if o.noise_bound > 0.0 and o.certificate.degree > 0.0)
    if solver != "adaptive":
        with pytest.raises(ValueError, match="rho must be positive"):
            solve(prob.value, [oracles[0], noisy], h, [replace(configs[0], rho=0.0)] * 2, x0,
                  rng=rngs)
    # a step that squares to 0 would make every gm_sq NaN: the adaptive steps
    # stay under s/L, the others take s/(L + q*rho)
    with pytest.raises(ValueError, match=r"step alpha = \S+ squares to 0.0"):
        solve(prob.value, oracles[:2], h, [replace(c, step_scale=1e-300) for c in configs[:2]],
              x0, rng=rngs)
    huge_rho = [replace(c, rho=1.7e308) for c in configs[:2]]
    if solver != "adaptive":
        with pytest.raises(ValueError, match=r"step alpha = \S+e-308 squares to 0.0"):
            solve(prob.value, [oracles[0], noisy], h, huge_rho, x0, rng=rngs)
    else:  # which reads no rho
        assert len(_trace(solve(prob.value, oracles[:2], h, huge_rho, x0, rng=rngs)[0]).gm_sq) == 40
    # every answer of a batch offers one candidate count
    mixed = [NoisyGradientOracle(prob, 0.3, directions=m) for m in (1, 3)]
    with pytest.raises(ValueError, match="same number of candidate gradients"):
        solve(prob.value, mixed, h, [replace(configs[1], rho=1.0)] * 2, x0, rng=rngs)
    # F takes the stack of the runs and gives one value each
    with pytest.raises(ValueError, match="objective must answer a stack of 2 points"):
        solve(lambda x: prob.value(x[0]), oracles[:2], h, configs[:2], x0, rng=rngs)


class _Flat(ExactOracle):
    """Exact oracle claiming L = 1e-160, so its step 1/L squares past the
    largest float."""

    def __init__(self, problem):
        super().__init__(problem)
        self.certificate = replace(self.certificate, lipschitz=1e-160)


@pytest.mark.parametrize("solver", _SOLVERS)
def test_step_too_large_to_square_is_refused(solver):
    # a Python float's power raises OverflowError there, which the CLI does
    # not catch; the start check refuses the step by name instead
    prob = generate_quadratic_instance(4)
    with pytest.raises(ValueError, match=r"step alpha = 1e\+160 squares to inf"):
        _SOLVERS[solver](prob.value, _Flat(prob), ProxFunction.l1_ball(1.0),
                         ScheduleConfig(rho=0.0, max_iters=3), np.zeros(4))


class _Swapped(NoisyGradientOracle):
    """Noisy oracle that claims a larger L and delta after its 4th answer.

    The certificate holds for every answer, so a run reads it once, at its
    start; a swap in the middle of a run must not reach the run.
    """

    def __init__(self, problem, noise_bound):
        super().__init__(problem, noise_bound)
        self.answered = 0

    @staticmethod
    def answers(oracles, points, rngs):
        values, candidates = NoisyGradientOracle.answers(oracles, points, rngs)
        for oracle in oracles:
            oracle.answered += 1
            if oracle.answered == 4:
                cert = oracle.certificate
                oracle.certificate = replace(cert, lipschitz=10.0 * cert.lipschitz,
                                             delta=10.0 * cert.delta)
        return values, candidates


@pytest.mark.parametrize("solver", _SOLVERS)
def test_every_solver_reads_the_certificate_once(solver):
    solve = _SOLVERS[solver]
    prob = generate_logsum_instance(8, 12, 0.2, seed=4)
    h, x0 = ProxFunction.l1_ball(0.2), np.zeros(8)
    noise = (0.1, 0.3)
    configs = [ScheduleConfig(max_iters=20, rho=prob.lipschitz, step_scale=s) for s in (1.0, 0.5)]
    alone = [solve(prob.value, NoisyGradientOracle(prob, d), h, cfg, x0,
                   rng=np.random.default_rng(i))
             for i, (d, cfg) in enumerate(zip(noise, configs))]
    assert not any(isinstance(run, DivergenceError) for run in alone)
    swapped = [_Swapped(prob, d) for d in noise]
    runs = solve(prob.value, swapped, h, configs, x0,
                 rng=[np.random.default_rng(i) for i in range(2)])
    assert [o.certificate.lipschitz for o in swapped] == [10.0 * prob.lipschitz] * 2
    for i, (d, cfg) in enumerate(zip(noise, configs)):
        _assert_same_run(runs[i], alone[i])
        _assert_same_run(solve(prob.value, _Swapped(prob, d), h, cfg, x0,
                               rng=np.random.default_rng(i)), alone[i])


# ------------------------------------------------------------------ theta


def test_theta_next_values_and_identities():
    assert _theta(1.0, 1.0, "equality_root") == pytest.approx(1.618033988749895, rel=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = float(rng.uniform(0.1, 10.0))
        lip = float(rng.uniform(0.1, 10.0))
        # equality_root solves theta^2 = L*a + theta
        t = _theta(a, lip, "equality_root")
        assert t ** 2 == pytest.approx(lip * a + t, rel=1e-12)
        # half_linear solves (4t - 1)^2 = 1 + 16*L*a, i.e. theta^2 = L*a + theta/2
        t = _theta(a, lip, "half_linear")
        assert t ** 2 == pytest.approx(lip * a + t / 2.0, rel=1e-12)


def test_theta_sequences_at_constant_lipschitz():
    # half_linear reproduces theta_k = (k+1)/2 exactly
    theta, a = 0.5, 0.5
    for k in range(1, 100):
        theta = _theta(a, 1.0, "half_linear")
        a += theta
        assert theta == pytest.approx((k + 1.0) / 2.0, rel=1e-12)
    # equality_root grows at least that fast and keeps growing
    theta, a = 1.0, 1.0
    prev = theta
    for k in range(1, 100):
        theta = _theta(a, 1.0, "equality_root")
        a += theta
        assert theta > prev
        assert theta >= (k + 1.0) / 2.0
        prev = theta


def test_momentum_formula_on_arrays_is_theta_next():
    # the fast step takes theta for all its runs in one array expression:
    # each element is the formula written out for one run with math.sqrt,
    # bit for bit, over positive (a, L)
    rng = np.random.default_rng(11)
    a = np.concatenate([np.exp(rng.uniform(-30.0, 30.0, 500)), [1e-300, 1.0, 1e300]])
    lip = np.concatenate([np.exp(rng.uniform(-30.0, 30.0, 500)), [1e-300, 1.0, 1e-300]])
    for rule, c, d in [("equality_root", 4.0, 2.0), ("half_linear", 16.0, 4.0)]:
        got = _theta(a, lip, rule)
        assert got.shape == a.shape
        for g, a_prev, lip_next in zip(got.tolist(), a.tolist(), lip.tolist()):
            want = (1.0 + math.sqrt(1.0 + c * lip_next * a_prev)) / d
            assert np.float64(g).tobytes() == np.float64(want).tobytes()


# ------------------------------------------------------------- fast method


def test_fast_method_matches_reference_loop():
    quad = generate_quadratic_instance(8, conditioning=4.0, seed=5)
    lip = quad.lipschitz
    x0 = np.zeros(8)
    for rule, theta0 in [("equality_root", 1.0), ("half_linear", 0.5)]:
        cfg = ScheduleConfig(max_iters=60, rho=0.0)
        calls = []

        def counted(x):
            calls.append(1)
            return quad.value(x)

        trace = fast_prox_gradient(counted, ExactOracle(quad), ProxFunction.zero(),
                                   cfg, x0, theta_rule=rule)
        # F at x_0 .. x_59 comes from the oracle answers; objective is called
        # at the 60 prox points and the final iterate only
        assert len(calls) == 61
        assert [trace.objective[k] for k in range(61)] == [
            quad.value(trace.iterates[k]) for k in range(61)]
        # x_{k+1} = tau*z + (1-tau)*y, so the bitwise iterates pin y, z and tau too
        x, theta, a = x0.copy(), theta0, None
        model_sum = np.zeros(8)
        for k in range(60):
            g = quad.gradient(x)
            if k == 0:
                a = theta / lip
            y = x - (1.0 / lip) * g
            model_sum += (theta / lip) * g
            z = x0 - model_sum
            theta_new = _theta(a, lip, rule)
            a_new = a + theta_new / lip
            tau = theta_new / (a_new * lip)
            assert 0.0 < tau <= 1.0
            # gm is measured on the prox point, not the combined iterate
            gm = float((y - x) @ (y - x)) * lip ** 2
            assert trace.gm_sq[k] == pytest.approx(gm, rel=1e-12)
            x = tau * z + (1.0 - tau) * y
            assert np.array_equal(trace.iterates[k + 1], x)
            theta, a = theta_new, a_new


def test_fast_method_first_step_collapses():
    # with theta0 = A0*L the first prox point and model point coincide
    quad = generate_quadratic_instance(5, conditioning=2.0, seed=9)
    cfg = ScheduleConfig(max_iters=1, rho=0.0)
    trace = fast_prox_gradient(quad.value, ExactOracle(quad), ProxFunction.zero(),
                               cfg, np.zeros(5))
    # x_1 = tau*z_0 + (1-tau)*y_0 is the plain prox step only when y_0 = z_0
    expected = -quad.gradient(np.zeros(5)) / quad.lipschitz
    assert np.allclose(trace.iterates[1], expected, atol=1e-15)


def test_fast_method_exact_bound_both_rules():
    quad = generate_quadratic_instance(16, conditioning=4.0, seed=5)
    x0 = np.zeros(16)
    r_sq = float((x0 - quad.x_star) @ (x0 - quad.x_star))
    ks = np.arange(2000)
    bound = 4.0 * quad.lipschitz * r_sq / ((ks + 1.0) * (ks + 2.0))
    for rule in ("equality_root", "half_linear"):
        cfg = ScheduleConfig(max_iters=2000, rho=0.0)
        trace = fast_prox_gradient(quad.value, ExactOracle(quad), ProxFunction.zero(),
                                   cfg, x0, theta_rule=rule)
        gaps = trace.objective_y - quad.f_star
        ratio = gaps / bound
        assert np.max(ratio) <= 1.0
        assert np.max(ratio) > 1e-4  # the comparison is not vacuous


def test_fast_method_runs_on_working_constant():
    # with q = 1 and a large weight, steps and momentum both use L + rho
    quad = generate_quadratic_instance(6, conditioning=2.0, seed=2)
    lip, rho = quad.lipschitz, 9.0
    cfg = ScheduleConfig(max_iters=30, rho=rho)
    x0 = np.zeros(6)
    trace = fast_prox_gradient(quad.value, ExactOracle(quad, degree=1.0), ProxFunction.zero(),
                               cfg, x0)
    eff = lip + rho
    assert np.allclose(trace.alpha, 1.0 / eff, rtol=1e-15)
    # the equality_root reference loop, run on L + rho throughout
    x, theta, a = x0.copy(), 1.0, 1.0 / eff
    model_sum = np.zeros(6)
    for k in range(30):
        g = quad.gradient(x)
        y = x - (1.0 / eff) * g
        model_sum += (theta / eff) * g
        z = x0 - model_sum
        theta_new = _theta(a, eff, "equality_root")
        a_new = a + theta_new / eff
        tau = theta_new / (a_new * eff)
        x = tau * z + (1.0 - tau) * y
        assert np.array_equal(trace.iterates[k + 1], x)
        theta, a = theta_new, a_new


def test_fast_method_guards():
    quad = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    cfg = ScheduleConfig(max_iters=200, rho=0.0)
    with pytest.raises(ValueError):
        fast_prox_gradient(quad.value, ExactOracle(quad), ProxFunction.zero(),
                           cfg, np.zeros(4), theta_rule="golden")
    with pytest.raises(DivergenceError):
        fast_prox_gradient(quad.value, _WrongConstant(quad, 0.02), ProxFunction.zero(),
                           cfg, np.ones(4))
    # answers with alternative gradients are for prox_gradient's worst case only
    noisy = replace(cfg, rho=1.0)
    with pytest.raises(ValueError, match="3 candidate gradients"):
        fast_prox_gradient(quad.value, NoisyGradientOracle(quad, 0.1, directions=3),
                           ProxFunction.zero(), noisy, np.zeros(4),
                           rng=np.random.default_rng(0))


# --------------------------------------------------------------- adaptive


def test_adaptive_validation():
    quad = generate_quadratic_instance(4, conditioning=2.0, seed=0)
    cfg = ScheduleConfig(max_iters=5, rho=0.0)
    with pytest.raises(ValueError):
        adaptive_prox_gradient(quad.value, ExactOracle(quad, degree=0.5), ProxFunction.zero(),
                               cfg, np.zeros(4), 1.0)
    exact = ExactOracle(quad)
    # a NaN slack used to run and end in a misleading DivergenceError
    for bad in [0.0, -1.0, float("nan"), float("inf")]:
        with pytest.raises(ValueError, match="epsilon0"):
            adaptive_prox_gradient(quad.value, exact, ProxFunction.zero(), cfg, np.zeros(4), bad)
    for bad in [0, 2.5, 3.0, True, "5"]:
        with pytest.raises(ValueError, match="max_doublings"):
            adaptive_prox_gradient(quad.value, exact, ProxFunction.zero(), cfg, np.zeros(4),
                                   1.0, max_doublings=bad)
    trace, _ = adaptive_prox_gradient(quad.value, exact, ProxFunction.zero(), cfg, np.zeros(4),
                                      1.0, max_doublings=np.int64(3))
    assert len(trace.gm_sq) == 5
    with pytest.raises(ValueError, match="3 candidate gradients"):
        adaptive_prox_gradient(quad.value, NoisyGradientOracle(quad, 0.1, directions=3),
                               ProxFunction.zero(), replace(cfg, rho=1.0), np.zeros(4), 1.0,
                               rng=np.random.default_rng(0))


def test_adaptive_reads_no_rho():
    # the adaptive weight comes from rho_opt_horizon at every step, so a noisy
    # run of degree 1 needs no rho and is bitwise the run at any other rho
    prob = generate_logsum_instance(12, 24, 3.0, seed=6)
    oracle = NoisyGradientOracle(prob, noise_bound=0.1)
    runs = [adaptive_prox_gradient(prob.value, oracle, ProxFunction.l1_ball(3.0),
                                   ScheduleConfig(max_iters=30, rho=rho), np.zeros(12), 1.0,
                                   rng=np.random.default_rng(3))
            for rho in (0.0, prob.lipschitz)]
    assert len(runs[0][0].gm_sq) == 30
    _assert_same_run(*runs)


def test_adaptive_flat_objective_never_retries():
    class _Flat:
        lipschitz = 1.0
        convex = True

        def value(self, x):
            return np.full(np.shape(x)[:-1], 5.0)

        def value_and_gradient(self, x):
            return np.full(np.shape(x)[:-1], 5.0), np.zeros_like(np.asarray(x, dtype=float))

    prob = _Flat()
    cfg = ScheduleConfig(max_iters=6, rho=0.0)
    trace, history = adaptive_prox_gradient(prob.value, ExactOracle(prob),
                                            ProxFunction.zero(), cfg, np.zeros(3), 1.0)
    assert len(history) == 6
    assert all(isinstance(s, AdaptiveState) for s in history)
    assert [s.retry_count for s in history] == [0] * 6
    # the optimistic slack halves after every accepted step
    assert [s.epsilon for s in history] == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    assert np.all(trace.objective == 5.0)
    assert np.all(trace.gm_sq == 0.0)


def test_adaptive_runs_and_keeps_invariants():
    prob = generate_logsum_instance(12, 24, 3.0, seed=6)
    cfg = ScheduleConfig(max_iters=120, rho=1.0)
    oracle = NoisyGradientOracle(prob, noise_bound=0.1)
    trace, history = adaptive_prox_gradient(prob.value, oracle, ProxFunction.l1_ball(3.0),
                                            cfg, np.zeros(12), epsilon0=1.0,
                                            rng=np.random.default_rng(3))
    assert len(history) == len(trace.gm_sq) == 120
    assert trace.objective[-1] < trace.objective[0]
    for k, state in enumerate(history):
        assert state.epsilon > 0.0
        assert state.retry_count >= 0
        # every accepted step respects its optimistic target
        assert trace.objective[k + 1] >= state.f_best - 1e-12
        # the target sits exactly one slack below the best value seen so far
        assert state.f_best == pytest.approx(trace.objective[:k + 1].min() - state.epsilon,
                                             abs=1e-9)
    # the weight never pushes the step above the exact-oracle ceiling
    assert np.all(trace.alpha <= 1.0 / prob.lipschitz + 1e-15)


def test_adaptive_records_objective_at_accepted_iterates():
    # as in every solver, F at x_0 .. x_{K-1} is the answers' value and F at
    # x_K is objective's, here one above the answers
    quad = generate_quadratic_instance(4, conditioning=2.0, seed=3)
    trace, _ = adaptive_prox_gradient(lambda x: quad.value(x) + 1.0, ExactOracle(quad),
                                      ProxFunction.zero(), ScheduleConfig(max_iters=5, rho=0.0),
                                      np.ones(4), 1.0)
    assert list(trace.objective[:-1]) == [quad.value(x) for x in trace.iterates[:-1]]
    assert trace.objective[-1] == quad.value(trace.iterates[-1]) + 1.0


def test_adaptive_matches_reference_loop():
    # a noisy run inside an l1 ball: every accepted step, retry and slack
    # update, one oracle answer per step, bitwise
    prob = generate_logsum_instance(12, 24, 3.0, seed=6)
    oracle = NoisyGradientOracle(prob, noise_bound=0.1)
    h, x0, epsilon0 = ProxFunction.l1_ball(0.5), np.zeros(12), 1e-3
    cfg = ScheduleConfig(max_iters=40, rho=0.0, step_scale=0.5)
    trace, history = adaptive_prox_gradient(prob.value, oracle, h, cfg, x0, epsilon0,
                                            rng=np.random.default_rng(5))
    cert, rng = oracle.certificate, np.random.default_rng(5)
    x, epsilon = x0.copy(), epsilon0
    on_ball = 0
    for k in range(40):
        value, (g,) = oracle.evaluate(x, rng=rng)
        assert trace.objective[k] == value
        if k == 0:
            f0 = f_min = value
            f_best = f_min - epsilon
        retries = 0
        while True:
            rho = rho_opt_horizon(cert.lipschitz, cert.degree, cert.delta, f0 - f_best, k)
            alpha = 0.5 / (cert.lipschitz + cert.degree * rho)
            candidate = project_l1_ball(x - alpha * g, h.radius)
            f_candidate = prob.value(candidate)
            if not f_candidate < f_best:
                break
            retries += 1
            epsilon *= 2.0
            f_best = f_min - epsilon
        assert trace.alpha[k] == alpha
        assert trace.gm_sq[k] == sq_norm(candidate - x) / alpha ** 2
        assert history[k] == AdaptiveState(epsilon=epsilon, f_best=f_best, retry_count=retries)
        assert np.array_equal(trace.iterates[k + 1], candidate)
        on_ball += abs(np.abs(candidate).sum() - h.radius) < 1e-9
        f_min = min(f_min, f_candidate)
        epsilon /= 2.0
        f_best = f_min - epsilon
        x = candidate
    assert trace.objective[40] == prob.value(x)
    # the run retries and the prox projects, so both paths are pinned
    assert max(state.retry_count for state in history) >= 1
    assert on_ball >= 1


def test_adaptive_gives_up_when_target_keeps_running_away():
    class _Drop:
        lipschitz = 1.0
        convex = False  # its gradient is not the gradient of its value

        def value(self, x):
            return -10.0 * x[..., 0]

        def value_and_gradient(self, x):
            return -10.0 * x[..., 0], np.full(np.shape(x), -10.0)

    prob = _Drop()
    cfg = ScheduleConfig(max_iters=5, rho=0.0)
    with pytest.raises(DivergenceError):
        adaptive_prox_gradient(prob.value, ExactOracle(prob), ProxFunction.zero(),
                               cfg, np.zeros(1), epsilon0=1.0, max_doublings=3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the slack halves at every step that does not improve, so on a"
                          " noisy plateau a later improvement needs more than max_doublings"
                          " doublings and the run ends as a divergence while F stays bounded")
@pytest.mark.parametrize("setting", ["logsum-12x24", "gate-12"])
def test_adaptive_noise_plateau_is_not_a_divergence(setting):
    if setting == "logsum-12x24":
        # F(x0) = 2.34 and the runs settle near F = 1.5e-4 to 1.9e-4; today 8
        # of the 10 end with "adaptive target chase exceeded 64 doublings",
        # seed 0 at step 352
        prob = generate_logsum_instance(12, 24, 3.0, seed=6)
        oracle = NoisyGradientOracle(prob, noise_bound=0.1)
        h, cfg, epsilon0 = ProxFunction.l1_ball(3.0), ScheduleConfig(max_iters=1000, rho=1.0), 1.0
    else:
        # the acceptance gate's test_12 setting, which passes at its one
        # generator seed 12 by luck: today seeds 0, 1, 2, 5 and 8 end this
        # way, at steps 736 to 965 (and 16 and 19 of seeds 10..19)
        prob = generate_logsum_instance(64, 128, 4.0, None, 0)
        oracle = NoisyGradientOracle(prob, 1.0, degree=1.0, diameter=8.0)
        h = ProxFunction.l1_ball(4.0)
        cfg = ScheduleConfig(rho=prob.lipschitz, max_iters=1000, step_scale=1.0)
        epsilon0 = prob.value(np.zeros(prob.dim))
    runs = adaptive_prox_gradient(prob.value, [oracle] * 10, h, [cfg] * 10, np.zeros(prob.dim),
                                  epsilon0=epsilon0,
                                  rng=[np.random.default_rng(seed) for seed in range(10)])
    diverged = [str(run) for run in runs if isinstance(run, DivergenceError)]
    assert not diverged, diverged
