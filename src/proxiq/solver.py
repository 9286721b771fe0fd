"""Proximal gradient solvers driven by inexact oracles.

Three variants share the step x+ = prox_{alpha h}(x - alpha g), the
projection onto h's l1 ball of radius h.radius (inf for h = 0).  Each
reads the oracle's certificate (delta, L, q) once, at the start of a run:

* prox_gradient: the constant step step_scale / (L + q*rho); works for
  nonconvex smooth parts.  It advances a batch of runs in lockstep as one
  (C, n) state, each run bitwise the run alone; one run is a batch of one.
* fast_prox_gradient: accelerated variant for convex smooth parts, mixing
  the prox step with an aggregated linear model anchored at x0.
* adaptive_prox_gradient: plain iteration whose quadratic majorization
  weight is retuned every step from a running optimistic estimate of the
  reachable objective gap.

All of them record a RunTrace with the squared gradient-mapping norm
||x_k - x_{k+1}||**2 / alpha_k**2 per step, the quantity the nonconvex
guarantees control.  They share one start check, one answer step and one
failure rule.  The answer step asks a batch through oracle.evaluate_rows,
which reads each oracle's (value, candidates) answer and checks its shapes
and finiteness; a non-finite answer or a blown-up objective ends a run
with DivergenceError.
prox_gradient also serves the worst-case sweep: when an answer carries
several candidate gradients, it steps along the one whose prox step moves
farthest; the other two solvers reject such an answer with ValueError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .oracle import answer_rows, evaluate_rows, sq_norm, stacked_count
from .prox import project_l1_ball, project_l1_rows
from .rates import rho_opt_horizon


class DivergenceError(RuntimeError):
    """Objective blow-up or a retry loop that will not terminate."""


# start values of the momentum sequence, per rule
_THETA0 = {"equality_root": 1.0, "half_linear": 0.5}

# a run is declared divergent when f exceeds f(x0) by this relative margin
_BLOWUP_MARGIN = 1e6


def _ceiling(f0):
    return f0 + _BLOWUP_MARGIN * (1.0 + abs(f0))


@dataclass(frozen=True)
class ScheduleConfig:
    """Run settings shared by the solvers: weight, horizon and step scale.

    The constants (delta, L, q) belong to the oracle's certificate; with
    them the step is the constant alpha = step_scale / (L + q*rho).
    step_scale in (0, 1] keeps the step at or below the 1/(L + q*rho)
    ceiling the guarantees assume.  rho may be 0 only when no quadratic
    majorization is needed (degree 0 or delta = 0); that needs the
    certificate, so a run checks it at its start.
    """

    rho: float
    max_iters: int
    step_scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.rho):
            raise ValueError("rho must be finite")
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")
        if not 0.0 < self.step_scale <= 1.0:
            raise ValueError("step_scale must lie in (0, 1]")
        # a bool or a float would reach np.empty or range as a count
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class RunTrace:
    """Everything recorded along one solver run.

    Per-step arrays have length equal to the number of completed steps;
    iterates and objective carry one extra leading entry for x0.
    objective_y is the fast method's only field of its own: the composite
    value at its prox points y_k, where its guarantees are stated; it stays
    None for the other solvers.  For the fast method gm_sq is measured on
    the prox point y_k rather than x_{k+1}.
    iterates is None in a trace kept past its run, such as a sweep cell's:
    the (K+1, n) iterates dwarf the per-step columns and no output reads
    them.
    """

    iterates: Optional[np.ndarray]  # (K+1, n)
    objective: np.ndarray          # (K+1,) F(x_k); h is 0 on its domain
    alpha: np.ndarray              # (K,)
    delta: float                   # the certificate's accuracy, fixed for the run
    gm_sq: np.ndarray              # (K,) squared gradient-mapping norm
    objective_y: Optional[np.ndarray] = None  # (K,) f(y_k), fast method only

    @property
    def min_gm_sq(self):
        """(K,) running minimum of gm_sq."""
        return np.minimum.accumulate(self.gm_sq)

    @property
    def steps(self):
        return len(self.gm_sq)


@dataclass
class AdaptiveState:
    """Snapshot of the adaptive solver's target at one accepted step."""

    epsilon: float
    f_best: float
    retry_count: int


def _start(h, x0, oracles, configs):
    """The start rule: x0 as a fresh vector in dom h, and each run's
    certificate, checked against its weight rho."""
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError("x0 must be a vector")
    if not h.contains(x):
        raise ValueError("x0 lies outside dom h")
    certs = [oracle.certificate for oracle in oracles]
    for cert, config in zip(certs, configs):
        if config.rho == 0.0 and cert.degree > 0.0 and cert.delta > 0.0:
            raise ValueError("rho must be positive when the certificate has degree > 0"
                             " and delta > 0")
    return x, certs


def _failures(step, f, ceiling, finite):
    """The failure rule, one entry per run: a run ends at step when its
    oracle answer is not finite or its composite value f is not finite or
    above its ceiling.  Returns {run: DivergenceError} for those runs."""
    failed = np.flatnonzero(~(finite & np.isfinite(f) & (f <= ceiling)))
    return {j: DivergenceError(f"oracle answer at step {step} is not finite" if not finite[j]
                               else f"objective blew up at step {step}: f = {float(f[j])!r}")
            for j in failed}


def _check(step, f, ceiling=math.inf, finite=True):
    """The failure rule for a single run: raise what ends it at step."""
    for exc in _failures(step, np.array([f]), ceiling, np.array([finite])).values():
        raise exc


def _answer(oracle, x, rng, step, ceiling=math.inf):
    """A single run's answer at x, a batch of one through evaluate_rows:
    F there and the gradient, after the failure rule (at x0, whose value
    sets the ceiling, only finiteness counts).  Only prox_gradient picks
    among candidates, so several raise ValueError.  Iterates lie in dom h
    (x0 by _start, the rest as prox outputs), where h is 0, so F there is
    the composite value.
    """
    values, candidates, finite = evaluate_rows([oracle], x[None], [rng])
    if candidates.shape[1] > 1:
        raise ValueError(f"oracle answer at step {step} offers {candidates.shape[1]}"
                         " candidate gradients; this method follows one")
    f = float(values[0])
    _check(step, f, ceiling, finite[0])
    return f, candidates[0, 0]


def _buffers(x, iters):
    """Iterates (x0 filled in), objective and gm_sq arrays for a run."""
    iterates = np.empty((iters + 1, x.size))
    iterates[0] = x
    return iterates, np.empty(iters + 1), np.empty(iters)


def prox_gradient(objective, oracle, h, config, x0, rng=None):
    """Proximal gradient iteration with inexact oracle calls.

    objective is the exact smooth part F; h contributes through its prox
    only, as it is 0 on its domain, where every iterate lies.  Each step
    queries the oracle and moves with the constant step
    step_scale / (L + q*rho) of the oracle's certificate.  F at every
    iterate but the last is the value of the oracle answer queried there;
    objective is called only on the final iterate.  When an answer carries
    several candidate gradients, the step follows the one whose prox step
    moves farthest, the first one on ties; one prox call makes the steps of
    every run along every candidate.  Raises DivergenceError if an
    oracle answer is not finite or the composite value blows up or turns
    non-finite, which in practice means a certificate lied.

    A batch of runs advances in lockstep from x0: pass lists of C oracles,
    of C ScheduleConfigs sharing max_iters and of C generators (None for
    an oracle that draws nothing) as oracle, config and rng.  Each step
    answers all runs through oracle.evaluate_rows; for model oracles over
    one problem that is one stacked evaluation, so that problem's
    value_and_gradient then takes a stack (C, n) and returns one value per
    row, as the logsum, quadratic and power families do.  Every run is
    bitwise the run alone, whatever the batch.  Returns one entry per run:
    its RunTrace without iterates, or the DivergenceError that ended it; a
    run that fails leaves the batch and the others go on unchanged.  A
    single oracle is a batch of one whose trace keeps its iterates.
    """
    if isinstance(oracle, (list, tuple)):
        return _lockstep(objective, list(oracle), h, list(config), x0, list(rng),
                         keep_iterates=False)
    run, = _lockstep(objective, [oracle], h, [config], x0, [rng], keep_iterates=True)
    if isinstance(run, DivergenceError):
        raise run
    return run


def _farthest_move(h, alpha, x, candidates):
    """Each row's prox step along the candidate gradient that moves it
    farthest, and the squared move.

    One project_l1_rows call, the prox of h, takes the steps of all rows
    along all their candidates (C, m, n) as one (C*m, n) stack; argmax
    then picks each row's longest move, the first candidate's on ties.  A
    finite candidate can still overflow into a NaN move; such a move is
    picked only as the first candidate's, since a later one must move
    strictly farther.
    """
    runs, count, dim = candidates.shape
    steps = project_l1_rows((x[:, None] - alpha[:, None, None] * candidates).reshape(-1, dim),
                            h.radius)
    moves_sq = sq_norm(steps.reshape(runs, count, dim) - x[:, None])
    if count == 1:  # nothing to pick
        return steps, moves_sq[:, 0]
    # argmax takes the first NaN: fmax makes a later candidate's NaN -inf
    ranked = np.fmax(moves_sq, -np.inf)
    ranked[:, 0] = moves_sq[:, 0]
    pick = ranked.argmax(axis=1) + count * np.arange(runs)  # rows of the stack
    return steps[pick], moves_sq.reshape(-1)[pick]


def _lockstep(objective, oracles, h, configs, x0, rngs, keep_iterates):
    """The step loop of prox_gradient over a batch of runs.

    Each step is one evaluate_rows answer for the live runs, through
    answer_rows with the batch's stacked_count, decided at the start and
    again only when a run leaves, and one _farthest_move, a single prox
    call over all their candidates, C*m rows.
    """
    runs = len(oracles)
    if runs == 0 or len(configs) != runs or len(rngs) != runs:
        raise ValueError("a batch needs one oracle, config and generator per run")
    iters = configs[0].max_iters
    if any(cfg.max_iters != iters for cfg in configs):
        raise ValueError("the runs of a batch share max_iters")
    x0, certs = _start(h, x0, oracles, configs)
    x = np.tile(x0, (runs, 1))
    alphas = [cfg.step_scale / (c.lipschitz + c.degree * cfg.rho)
              for c, cfg in zip(certs, configs)]
    objective_vals = np.empty((runs, iters + 1))
    gm_sq = np.empty((runs, iters))
    iterates = np.empty((iters + 1, runs, x0.size)) if keep_iterates else None
    outcomes = [None] * runs
    # state of the runs still going, compacted when one fails
    live = np.arange(runs)
    alpha = np.array(alphas)
    alpha_sq = np.array([a ** 2 for a in alphas])
    live_oracles, live_rngs = list(oracles), list(rngs)
    count = stacked_count(live_oracles)  # how the live batch answers
    for k in range(iters + 1):
        if keep_iterates:
            iterates[k, live] = x
        if k < iters:
            f, candidates, finite = answer_rows(live_oracles, x, live_rngs, count)
        else:
            f = np.array([float(objective(row)) for row in x])
            finite = np.ones(len(live), dtype=bool)
        if k == 0:
            ceiling = _ceiling(f)
        objective_vals[live, k] = f
        failures = _failures(k, f, ceiling, finite)
        if failures:
            keep = np.ones(len(live), dtype=bool)
            for j, exc in failures.items():
                outcomes[live[j]] = exc
                keep[j] = False
            live, x, alpha, alpha_sq, ceiling = (live[keep], x[keep], alpha[keep],
                                                 alpha_sq[keep], ceiling[keep])
            live_oracles = [o for o, kept in zip(live_oracles, keep) if kept]
            live_rngs = [r for r, kept in zip(live_rngs, keep) if kept]
            count = stacked_count(live_oracles) if len(live) else None
            candidates = candidates[keep]
        if k == iters or not len(live):
            break
        x, move_sq = _farthest_move(h, alpha, x, candidates)
        gm_sq[live, k] = move_sq / alpha_sq
    for i in live:
        outcomes[i] = RunTrace(
            iterates[:, i] if keep_iterates else None, objective_vals[i],
            np.full(iters, alphas[i]), certs[i].delta, gm_sq[i])
    return outcomes


def theta_next(a_prev, lipschitz_next, rule="equality_root"):
    """Next weight of the momentum sequence given the accumulated weight.

    equality_root takes the largest root of theta**2/L = a_prev + theta/L,
    the fastest growth the convergence argument allows.  half_linear solves
    the same recursion tightened by a factor 4, which for constant L
    reproduces the linear sequence theta_k = (k+1)/2.
    """
    if a_prev <= 0.0:
        raise ValueError("a_prev must be positive")
    if lipschitz_next <= 0.0:
        raise ValueError("lipschitz_next must be positive")
    if rule == "equality_root":
        return (1.0 + math.sqrt(1.0 + 4.0 * lipschitz_next * a_prev)) / 2.0
    if rule == "half_linear":
        return (1.0 + math.sqrt(1.0 + 16.0 * lipschitz_next * a_prev)) / 4.0
    raise ValueError(f"unknown theta rule {rule!r}")


def fast_prox_gradient(objective, oracle, h, config, x0, theta_rule="equality_root", rng=None):
    """Accelerated proximal gradient with an aggregated model sequence.

    Alongside the prox point y_k the method maintains z_k, the minimizer of
    the accumulated linear models plus half the squared distance to x0, and
    steps to x_{k+1} = tau_k*z_k + (1-tau_k)*y_k with the vanishing weight
    tau_k = theta_{k+1}/(A_{k+1}*L_{k+1}) on the model point.  (Putting the
    heavy weight on z instead makes the iteration chase the aggregated
    model and diverge, exact oracle included.)  The objective guarantees
    are stated at the y points and assume a convex smooth part whose oracle
    answers never overshoot the linearization; the run itself does not
    enforce that claim.  The whole recursion (steps, weights, theta) runs
    on the working constant L + q*rho, the smoothness of the quadratic
    majorization the guarantees are proved through.  As in
    prox_gradient, F at every iterate but the last is the value of the
    oracle answer queried there; objective is called on the final iterate
    and on the prox points y.  An answer with several candidate gradients
    raises ValueError.
    """
    if theta_rule not in _THETA0:
        raise ValueError(f"unknown theta rule {theta_rule!r}")
    x, (cert,) = _start(h, x0, [oracle], [config])
    lip = cert.lipschitz + cert.degree * config.rho
    alpha = config.step_scale / lip
    origin = x.copy()
    iters = config.max_iters
    iterates, objective_vals, gm_sq = _buffers(x, iters)
    objective_y = np.empty(iters)
    f, grad = _answer(oracle, x, rng, 0)
    objective_vals[0] = f
    ceiling = _ceiling(f)
    theta = _THETA0[theta_rule]
    a_weight = theta / lip
    model_sum = np.zeros(x.size)
    for k in range(iters):
        y = project_l1_ball(x - alpha * grad, h.radius)
        model_sum += (theta / lip) * grad
        z = project_l1_ball(origin - model_sum, h.radius)
        theta_new = theta_next(a_weight, lip, theta_rule)
        a_new = a_weight + theta_new / lip
        tau = theta_new / (a_new * lip)
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau = {tau!r} outside (0, 1]: momentum rule violated")
        gm_sq[k] = sq_norm(y - x) / alpha ** 2
        x = tau * z + (1.0 - tau) * y
        iterates[k + 1] = x
        if k + 1 < iters:
            f, grad = _answer(oracle, x, rng, k + 1, ceiling)
        else:  # no answer after the last step
            f = float(objective(x))
            _check(k + 1, f, ceiling)
        fy = float(objective(y))
        _check(k + 1, fy)  # y only has to stay finite
        objective_vals[k + 1] = f
        objective_y[k] = fy
        theta = theta_new
        a_weight = a_new
    return RunTrace(iterates, objective_vals, np.full(iters, alpha), cert.delta, gm_sq,
                    objective_y=objective_y)


def adaptive_prox_gradient(objective, oracle, h, config, x0, epsilon0,
                           rng=None, max_doublings=64):
    """Plain iteration with the majorization weight retuned on the fly.

    The horizon-optimal weight needs the gap f(x0) - f_inf, which is
    unknown; the solver substitutes f(x0) - f_best where f_best sits an
    optimistic slack epsilon below the best value seen.  Whenever a new
    iterate beats f_best, the slack doubles and the step is recomputed with
    the same oracle answer; after each accepted step the slack halves and
    the target is refreshed.  F(x0) is the value of the first oracle
    answer; objective gives F at each candidate step.  Returns (trace,
    history) where history holds one AdaptiveState per accepted step.
    Requires a certificate degree in [1, 2) (the weight formula) and
    answers with one candidate gradient.
    """
    if not 1.0 <= oracle.certificate.degree < 2.0:
        raise ValueError("the adaptive variant needs degree in [1, 2)")
    # a NaN slack would fail every acceptance test and end as a false divergence
    if not math.isfinite(epsilon0) or epsilon0 <= 0.0:
        raise ValueError(f"epsilon0 must be finite and positive, got {epsilon0!r}")
    if isinstance(max_doublings, bool) or not isinstance(max_doublings, numbers.Integral):
        raise ValueError(f"max_doublings must be an integer, got {max_doublings!r}")
    if max_doublings < 1:
        raise ValueError("max_doublings must be positive")
    x, (cert,) = _start(h, x0, [oracle], [config])
    lip, degree, delta = cert.lipschitz, cert.degree, cert.delta
    iters = config.max_iters
    iterates, objective_vals, gm_sq = _buffers(x, iters)
    alpha_arr = np.empty(iters)
    history: List[AdaptiveState] = []
    f0, grad = _answer(oracle, x, rng, 0)
    objective_vals[0] = f0
    ceiling = _ceiling(f0)
    epsilon = float(epsilon0)
    f_min = f0
    f_best = f_min - epsilon
    for k in range(iters):
        if k > 0:
            _, grad = _answer(oracle, x, rng, k, ceiling)
        retries = 0
        while True:
            gap = f0 - f_best
            rho = rho_opt_horizon(lip, degree, delta, gap, k) if delta > 0.0 else 0.0
            alpha_k = config.step_scale / (lip + degree * rho)
            nxt = project_l1_ball(x - alpha_k * grad, h.radius)
            f_next = float(objective(nxt))
            _check(k + 1, f_next, ceiling)
            if f_next >= f_best:
                break
            retries += 1
            if retries > max_doublings:
                raise DivergenceError(
                    f"adaptive target chase exceeded {max_doublings} doublings at step {k}")
            epsilon *= 2.0
            f_best = f_min - epsilon
        history.append(AdaptiveState(epsilon=epsilon, f_best=f_best, retry_count=retries))
        gm_sq[k] = sq_norm(nxt - x) / alpha_k ** 2
        alpha_arr[k] = alpha_k
        x = nxt
        iterates[k + 1] = x
        objective_vals[k + 1] = f_next
        f_min = min(f_min, f_next)
        epsilon /= 2.0
        f_best = f_min - epsilon
    return RunTrace(iterates, objective_vals, alpha_arr, delta, gm_sq), history
