"""Proximal gradient solvers driven by inexact oracles.

Three variants share the step x+ = prox_{alpha h}(x - alpha g).  Each
reads the oracle's certificate (delta, L, q) once, at the start of a run:

* prox_gradient: the constant step step_scale / (L + q*rho); works for
  nonconvex smooth parts.
* fast_prox_gradient: accelerated variant for convex smooth parts, mixing
  the prox step with an aggregated linear model anchored at x0.
* adaptive_prox_gradient: plain iteration whose quadratic majorization
  weight is retuned every step from a running optimistic estimate of the
  reachable objective gap.

All of them record a RunTrace with the squared gradient-mapping norm
||x_k - x_{k+1}||**2 / alpha_k**2 per step, the quantity the nonconvex
guarantees control.  prox_gradient also serves the worst-case sweep: when
an oracle answer carries alternative candidate gradients, it steps along
the candidate whose prox step moves farthest; the other two solvers reject
such an answer with ValueError.  A non-finite oracle answer or a blown-up
objective ends any run with DivergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .oracle import NonFiniteAnswer
from .prox import prox_apply
from .rates import rho_opt_horizon, write_csv


class DivergenceError(RuntimeError):
    """Objective blow-up or a retry loop that will not terminate."""


# start values of the momentum sequence, per rule
_THETA0 = {"equality_root": 1.0, "half_linear": 0.5}

# a run is declared divergent when f exceeds f(x0) by this relative margin
_BLOWUP_MARGIN = 1e6


def _ceiling(f0):
    return f0 + _BLOWUP_MARGIN * (1.0 + abs(f0))


def _check_blowup(f, ceiling, step):
    if not math.isfinite(f) or f > ceiling:
        raise DivergenceError(f"objective blew up at step {step}: f = {f!r}")


def _query(oracle, x, rng, step):
    """Oracle answer at x, with a non-finite answer reported as divergence."""
    try:
        return oracle.evaluate(x, rng=rng)
    except NonFiniteAnswer as exc:
        raise DivergenceError(f"oracle answer at step {step}: {exc}") from exc


def _answer_at(objective, oracle, h, config, x, rng, step):
    """Oracle answer and F + h at the iterate x_step; after the last step
    there is no answer, and objective gives F at the final iterate."""
    if step < config.max_iters:
        ev = _query(oracle, x, rng, step)
        return ev, ev.value + h.value(x)
    return None, float(objective(x)) + h.value(x)


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
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")
        if not 0.0 < self.step_scale <= 1.0:
            raise ValueError("step_scale must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class RunTrace:
    """Everything recorded along one solver run.

    Per-step arrays have length equal to the number of completed steps;
    iterates and objective carry one extra leading entry for x0.  The
    fast-method fields stay None for the other solvers.  For the fast
    method gm_sq is measured on the prox point y_k rather than x_{k+1}.
    iterates is None in a trace kept past its run, such as a sweep cell's:
    the (K+1, n) iterates dwarf the per-step columns and no output reads
    them.
    """

    iterates: Optional[np.ndarray]  # (K+1, n)
    objective: np.ndarray          # (K+1,) composite value f(x_k)
    alpha: np.ndarray              # (K,)
    delta: np.ndarray              # (K,) the certificate's accuracy, per step
    gm_sq: np.ndarray              # (K,) squared gradient-mapping norm
    min_gm_sq: np.ndarray          # (K,) running minimum of gm_sq
    cum_alpha_gm_sq: np.ndarray    # (K,) running sum of alpha_j*gm_sq_j
    y_points: Optional[np.ndarray] = None
    z_points: Optional[np.ndarray] = None
    objective_y: Optional[np.ndarray] = None
    theta: Optional[np.ndarray] = None
    a_weights: Optional[np.ndarray] = None
    tau: Optional[np.ndarray] = None

    @classmethod
    def assemble(cls, iterates, objective, alpha, delta, gm_sq, **extra):
        """A trace from the per-step arrays, with the running aggregates filled in."""
        return cls(iterates=iterates, objective=objective, alpha=alpha, delta=delta,
                   gm_sq=gm_sq, min_gm_sq=np.minimum.accumulate(gm_sq),
                   cum_alpha_gm_sq=np.cumsum(alpha * gm_sq), **extra)

    @property
    def steps(self):
        return len(self.gm_sq)

    def write_csv(self, path, bound=None):
        """One row per step k: k,f,gm_sq,min_gm_sq,alpha,delta_k and an optional
        bound column; f is the composite value at the pre-step iterate x_k."""
        columns = {"k": range(self.steps), "f": self.objective[:self.steps],
                   "gm_sq": self.gm_sq, "min_gm_sq": self.min_gm_sq, "alpha": self.alpha,
                   "delta_k": self.delta}
        if bound is not None:
            columns["bound"] = bound
        write_csv(path, list(columns), list(columns.values()))


@dataclass
class AdaptiveState:
    """Snapshot of the adaptive solver's target at one accepted step."""

    epsilon: float
    f_best: float
    retry_count: int


def _check_start(oracle, config, h, x0):
    """The start point as a fresh vector, and the oracle's certificate."""
    cert = oracle.certificate
    if config.rho == 0.0 and cert.degree > 0.0 and cert.delta > 0.0:
        raise ValueError("rho must be positive when the certificate has degree > 0"
                         " and delta > 0")
    x = np.array(x0, dtype=float, copy=True)
    if x.ndim != 1:
        raise ValueError("x0 must be a vector")
    if not h.contains(x):
        raise ValueError("x0 lies outside dom h")
    return x, cert


def _check_single(ev, step):
    """Reject an answer with alternatives: only prox_gradient picks among candidates."""
    if ev.alternatives:
        raise ValueError(f"oracle answer at step {step} offers {len(ev.alternatives) + 1}"
                         " candidate gradients; this method follows one")


def _buffers(x, iters):
    """Iterates (x0 filled in), objective and gm_sq arrays for a run."""
    iterates = np.empty((iters + 1, x.size))
    iterates[0] = x
    return iterates, np.empty(iters + 1), np.empty(iters)


def prox_gradient(objective, oracle, h, config, x0, rng=None):
    """Proximal gradient iteration with inexact oracle calls.

    objective is the exact smooth part F (h contributes through its prox
    and value).  Each step queries the oracle and moves with the constant
    step step_scale / (L + q*rho) of the oracle's certificate.  F at every
    iterate but the last is the value of the oracle answer queried there;
    objective is called only on the final iterate.  When an answer carries
    alternative gradients, the step follows the candidate whose prox step
    moves farthest, the first one on ties.  Raises DivergenceError if an
    oracle answer is not finite or the composite value blows up or turns
    non-finite, which in practice means a certificate lied.
    """
    x, cert = _check_start(oracle, config, h, x0)
    alpha = config.step_scale / (cert.lipschitz + cert.degree * config.rho)
    iters = config.max_iters
    iterates, objective_vals, gm_sq = _buffers(x, iters)
    ev, f0 = _answer_at(objective, oracle, h, config, x, rng, 0)
    objective_vals[0] = f0
    ceiling = _ceiling(f0)
    for k in range(iters):
        nxt = prox_apply(h, alpha, x - alpha * ev.gradient)
        step = nxt - x
        move_sq = float(step @ step)
        for grad in ev.alternatives:
            cand = prox_apply(h, alpha, x - alpha * grad)
            step = cand - x
            cand_sq = float(step @ step)
            if cand_sq > move_sq:
                nxt, move_sq = cand, cand_sq
        gm_sq[k] = move_sq / alpha ** 2
        x = nxt
        iterates[k + 1] = x
        ev, f = _answer_at(objective, oracle, h, config, x, rng, k + 1)
        objective_vals[k + 1] = f
        _check_blowup(f, ceiling, k + 1)
    return RunTrace.assemble(iterates, objective_vals, np.full(iters, alpha),
                             np.full(iters, cert.delta), gm_sq)


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
    and on the prox points y.  An answer with alternative gradients raises
    ValueError.
    """
    if theta_rule not in _THETA0:
        raise ValueError(f"unknown theta rule {theta_rule!r}")
    x, cert = _check_start(oracle, config, h, x0)
    lip = cert.lipschitz + cert.degree * config.rho
    alpha = config.step_scale / lip
    origin = x.copy()
    iters = config.max_iters
    n = x.size
    iterates, objective_vals, gm_sq = _buffers(x, iters)
    y_points = np.empty((iters, n))
    z_points = np.empty((iters, n))
    objective_y = np.empty(iters)
    thetas = np.empty(iters)
    a_arr = np.empty(iters)
    taus = np.empty(iters)
    ev, f0 = _answer_at(objective, oracle, h, config, x, rng, 0)
    objective_vals[0] = f0
    ceiling = _ceiling(f0)
    theta = _THETA0[theta_rule]
    a_weight = theta / lip
    model_sum = np.zeros(n)
    for k in range(iters):
        _check_single(ev, k)
        y = prox_apply(h, alpha, x - alpha * ev.gradient)
        model_sum += (theta / lip) * ev.gradient
        z = prox_apply(h, 1.0, origin - model_sum)
        theta_new = theta_next(a_weight, lip, theta_rule)
        a_new = a_weight + theta_new / lip
        tau = theta_new / (a_new * lip)
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau = {tau!r} outside (0, 1]: momentum rule violated")
        step = y - x
        gm_sq[k] = float(step @ step) / alpha ** 2
        thetas[k] = theta
        a_arr[k] = a_weight
        taus[k] = tau
        x = tau * z + (1.0 - tau) * y
        iterates[k + 1] = x
        y_points[k] = y
        z_points[k] = z
        ev, f = _answer_at(objective, oracle, h, config, x, rng, k + 1)
        fy = float(objective(y)) + h.value(y)
        objective_vals[k + 1] = f
        objective_y[k] = fy
        _check_blowup(f, ceiling, k + 1)
        _check_blowup(fy, math.inf, k + 1)  # y only has to stay finite
        theta = theta_new
        a_weight = a_new
    return RunTrace.assemble(iterates, objective_vals, np.full(iters, alpha),
                             np.full(iters, cert.delta), gm_sq, y_points=y_points,
                             z_points=z_points, objective_y=objective_y,
                             theta=thetas, a_weights=a_arr, tau=taus)


def adaptive_prox_gradient(objective, oracle, h, config, x0, epsilon0,
                           rng=None, max_doublings=64):
    """Plain iteration with the majorization weight retuned on the fly.

    The horizon-optimal weight needs the gap f(x0) - f_inf, which is
    unknown; the solver substitutes f(x0) - f_best where f_best sits an
    optimistic slack epsilon below the best value seen.  Whenever a new
    iterate beats f_best, the slack doubles and the step is recomputed with
    the same oracle answer; after each accepted step the slack halves and
    the target is refreshed.  Returns (trace, history) where history holds
    one AdaptiveState per accepted step.  Requires a certificate degree in
    [1, 2) (the weight formula) and answers without alternative gradients.
    """
    if not 1.0 <= oracle.certificate.degree < 2.0:
        raise ValueError("the adaptive variant needs degree in [1, 2)")
    if epsilon0 <= 0.0:
        raise ValueError("epsilon0 must be positive")
    if max_doublings < 1:
        raise ValueError("max_doublings must be positive")
    x, cert = _check_start(oracle, config, h, x0)
    lip, degree, delta = cert.lipschitz, cert.degree, cert.delta
    iters = config.max_iters
    iterates, objective_vals, gm_sq = _buffers(x, iters)
    alpha_arr = np.empty(iters)
    history: List[AdaptiveState] = []
    f0 = float(objective(x)) + h.value(x)
    objective_vals[0] = f0
    ceiling = _ceiling(f0)
    epsilon = float(epsilon0)
    f_min = f0
    f_best = f_min - epsilon
    for k in range(iters):
        ev = _query(oracle, x, rng, k)
        _check_single(ev, k)
        retries = 0
        while True:
            gap = f0 - f_best
            rho = rho_opt_horizon(lip, degree, delta, gap, k) if delta > 0.0 else 0.0
            alpha_k = config.step_scale / (lip + degree * rho)
            nxt = prox_apply(h, alpha_k, x - alpha_k * ev.gradient)
            f_next = float(objective(nxt)) + h.value(nxt)
            _check_blowup(f_next, ceiling, k + 1)
            if f_next >= f_best:
                break
            retries += 1
            if retries > max_doublings:
                raise DivergenceError(
                    f"adaptive target chase exceeded {max_doublings} doublings at step {k}")
            epsilon *= 2.0
            f_best = f_min - epsilon
        history.append(AdaptiveState(epsilon=epsilon, f_best=f_best, retry_count=retries))
        step = nxt - x
        gm_sq[k] = float(step @ step) / alpha_k ** 2
        alpha_arr[k] = alpha_k
        x = nxt
        iterates[k + 1] = x
        objective_vals[k + 1] = f_next
        f_min = min(f_min, f_next)
        epsilon /= 2.0
        f_best = f_min - epsilon
    return RunTrace.assemble(iterates, objective_vals, alpha_arr, np.full(iters, delta),
                             gm_sq), history
