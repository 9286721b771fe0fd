"""Proximal gradient solvers driven by inexact oracles.

Three variants share the step x+ = prox_{alpha h}(x - alpha g), the
projection onto h's l1 ball of radius h.radius (inf for h = 0).  Each
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
guarantees control.  They share one loop, _lockstep, which advances a
batch of runs in lockstep, each run bitwise the run alone, and keeps one
table of per-run columns, the certificate and the schedule among them.
The loop owns the start check, one oracle.evaluate_rows call a step, the
failure rule and the traces: a non-finite answer or a blown-up objective
ends a run with DivergenceError.  F at x_k, k < K, is the value of the
answer at x_k, and one objective call on the stack (C, n) gives F at x_K.
Each solver passes the loop its start and step rules, which read the
columns, and every step rule moves through one prox kernel,
_farthest_move.  When an answer carries several candidate gradients,
prox_gradient steps along the one whose prox step moves farthest, as the
worst-case sweep needs; the other two solvers raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import _count, _nonnegative, _positive, evaluate_rows, sq_norm
from .prox import project_l1_rows
from .rates import rho_opt_horizon


class DivergenceError(RuntimeError):
    """Objective blow-up or a retry loop that will not terminate."""


# each momentum rule's (theta_0, c, d): the next theta is (1 + sqrt(1 + c*L*a)) / d
_MOMENTUM = {"equality_root": (1.0, 4.0, 2.0), "half_linear": (0.5, 16.0, 4.0)}

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
    majorization is needed (degree 0 or delta = 0), as prox_gradient and
    fast_prox_gradient check at the start; the adaptive method reads no rho.
    """

    rho: float
    max_iters: int
    step_scale: float = 1.0

    def __post_init__(self):
        _nonnegative(rho=self.rho)
        if not 0.0 < self.step_scale <= 1.0:
            raise ValueError("step_scale must lie in (0, 1]")
        # a bool or a float would reach np.empty or range as a count
        _count(self.max_iters, "max_iters")


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


@dataclass
class AdaptiveState:
    """Snapshot of the adaptive solver's target at one accepted step."""

    epsilon: float
    f_best: float
    retry_count: int


def _rho_rule(run):
    """The start rule of the methods that step with rho: a certificate of
    degree > 0 and delta > 0 needs rho > 0 to majorize its error term."""
    if np.any((run["rho"] == 0.0) & (run["degree"] > 0.0) & (run["delta"] > 0.0)):
        raise ValueError("rho must be positive when the certificate has degree > 0"
                         " and delta > 0")


def _failures(step, f, ceiling, finite):
    """The failure rule, one entry per run: a run ends at step when its
    oracle answer is not finite or its composite value f is not finite or
    above its ceiling.  Returns {run: DivergenceError} for those runs."""
    failed = np.flatnonzero(~(finite & np.isfinite(f) & (f <= ceiling)))
    return {j: DivergenceError(f"oracle answer at step {step} is not finite" if not finite[j]
                               else f"objective blew up at step {step}: f = {float(f[j])!r}")
            for j in failed}


def _leave(run, failures, outcomes):
    """Ends each failed run, {row: DivergenceError}, with its error.
    Returns the table of the others, every column compacted by one mask."""
    keep = np.ones(len(run["index"]), dtype=bool)
    for j, exc in failures.items():
        outcomes[run["index"][j]] = exc
        keep[j] = False
    return {name: column[keep] for name, column in run.items()}


def _values(objective, x):
    """F at each row of the stack x (C, n), by one objective call."""
    f = np.asarray(objective(x), dtype=float)
    if f.shape != (len(x),):
        raise ValueError(f"objective must answer a stack of {len(x)} points with {len(x)} values")
    return f


def _square(a):
    """a ** 2 of a float, inf where Python's power overflows (a above about
    1.34e154) instead of OverflowError, so the start check can refuse it."""
    try:
        return a ** 2
    except OverflowError:
        return math.inf


def _lockstep(objective, oracle, h, config, x0, rng, start, step, finish=None):
    """The step loop of every solver, over a batch or a single run as
    prox_gradient describes; a run's result is finish(trace, records) when
    finish is given.

    run is the one table of the live runs, a column per name and a row per
    run: index, oracle, rng, the certificate's lipschitz, degree and delta
    and the schedule's rho and step_scale, read once here and checked by
    start(run), then x, lip = L + q*rho, alpha, alpha_sq, f0, ceiling, the
    answer's candidates and the step rule's own state.  Step k records the
    value of one evaluate_rows answer at x_k as F(x_k), and F at x_K is one
    objective call on the stack.  The failure rule ends runs, one mask
    drops them from every column, and step(k, run) moves the others on; it
    returns its records {name: one value per run}, gm_sq and optionally
    alpha and objective_y among them, and {row: DivergenceError}.
    """
    batch = isinstance(oracle, (list, tuple))
    oracles, configs, rngs = ((list(oracle), list(config), list(rng)) if batch
                              else ([oracle], [config], [rng]))
    runs = len(oracles)
    if runs == 0 or len(configs) != runs or len(rngs) != runs:
        raise ValueError("a batch needs one oracle, config and generator per run")
    iters = configs[0].max_iters
    if any(cfg.max_iters != iters for cfg in configs):
        raise ValueError("the runs of a batch share max_iters")
    x0 = np.array(x0, dtype=float)  # a fresh vector in dom h
    if x0.ndim != 1:
        raise ValueError("x0 must be a vector")
    if not h.contains(x0):
        raise ValueError("x0 lies outside dom h")
    certs = [o.certificate for o in oracles]
    run = {name: np.array([getattr(c, name) for c in certs], dtype=float)
           for name in ("lipschitz", "degree", "delta")}
    run.update({name: np.array([getattr(c, name) for c in configs], dtype=float)
                for name in ("rho", "step_scale")})
    run.update(index=np.arange(runs), oracle=np.fromiter(oracles, object, runs),
               rng=np.fromiter(rngs, object, runs), x=np.tile(x0, (runs, 1)))
    start(run)
    run["lip"] = run["lipschitz"] + run["degree"] * run["rho"]
    run["alpha"] = run["step_scale"] / run["lip"]
    run["alpha_sq"] = np.array([_square(a) for a in run["alpha"].tolist()])
    for a, a_sq in zip(run["alpha"].tolist(), run["alpha_sq"].tolist()):
        if not 0.0 < a_sq < math.inf:  # gm_sq divides by it: a 0 turns a trace to NaN
            raise ValueError(f"step alpha = {a!r} squares to {a_sq!r}, not a positive finite float")
    outcomes = [None] * runs
    objective_vals = np.empty((runs, iters + 1))
    records = {}
    iterates = None if batch else np.empty((iters + 1, runs, x0.size))
    for k in range(iters + 1):
        if iterates is not None:
            iterates[k, run["index"]] = run["x"]
        if k < iters:  # as lists, which the answers' loops walk faster than object arrays
            f, run["candidates"], finite = evaluate_rows(run["oracle"].tolist(), run["x"],
                                                         run["rng"].tolist())
        else:  # no answer after the last step
            f = _values(objective, run["x"])
            finite = np.ones(len(f), dtype=bool)
        if k == 0:
            run.update(f0=f, ceiling=_ceiling(f))
        objective_vals[run["index"], k] = f
        failures = _failures(k, f, run["ceiling"], finite)
        if failures:
            run = _leave(run, failures, outcomes)
        if k == iters or not len(run["index"]):
            break
        step_records, failures = step(k, run)
        for name, values in step_records.items():
            if name not in records:
                records[name] = np.empty((runs, iters))
            records[name][run["index"], k] = values
        if failures:
            run = _leave(run, failures, outcomes)
        if not len(run["index"]):
            break
    for j, i in enumerate(run["index"]):
        rec = {name: values[i] for name, values in records.items()}
        alpha = rec.pop("alpha") if "alpha" in rec else np.full(iters, run["alpha"][j])
        trace = RunTrace(None if batch else iterates[:, i], objective_vals[i], alpha,
                         float(run["delta"][j]), rec.pop("gm_sq"), rec.pop("objective_y", None))
        outcomes[i] = finish(trace, rec) if finish else trace
    if not batch and isinstance(outcomes[0], DivergenceError):
        raise outcomes[0]
    return outcomes if batch else outcomes[0]


def prox_gradient(objective, oracle, h, config, x0, rng=None):
    """Proximal gradient iteration with inexact oracle calls.

    objective is the exact smooth part F; h contributes through its prox
    only, as it is 0 on its domain, where every iterate lies.  Each step
    queries the oracle and moves with the constant step
    step_scale / (L + q*rho) of the oracle's certificate.  F at every
    iterate but the last is the value of the oracle answer queried there;
    objective is called only on the final iterates, once, taking the stack
    (C, n) of the live runs and returning C values.  When an answer carries
    several candidate gradients, the step follows the one whose prox step
    moves farthest, the first one on ties; _farthest_move, the prox kernel
    all three solvers step through, makes the steps of every run along
    every candidate in one prox call.  Raises DivergenceError if an
    oracle answer is not finite or the composite value blows up or turns
    non-finite, which in practice means a certificate lied.

    A batch of runs advances in lockstep from x0: pass lists of C oracles,
    of C ScheduleConfigs sharing max_iters and of C generators (None for
    an oracle that draws nothing) as oracle, config and rng.  Each step
    answers all runs with one oracle.evaluate_rows call, so the oracles of
    a batch share one family's stacked answer.  Every run is bitwise the
    run alone, whatever the batch.  Returns one entry per run:
    its RunTrace without iterates, or the DivergenceError that ended it; a
    run that fails leaves the batch and the others go on unchanged.  A
    single oracle is a batch of one whose trace keeps its iterates.
    """
    def step(k, run):
        run["x"], move_sq = _farthest_move(h, run["alpha"], run["x"], run["candidates"])
        return {"gm_sq": move_sq / run["alpha_sq"]}, {}

    return _lockstep(objective, oracle, h, config, x0, rng, _rho_rule, step)


def _farthest_move(h, alpha, x, candidates):
    """Each row's prox step along the candidate gradient that moves it
    farthest, and the squared move: the one prox kernel of every step rule.

    One project_l1_rows call, the prox of h, takes the steps of all rows
    along all their candidates (C, m, n) as one (C*m, n) stack; argmax
    then picks each row's longest move, the first candidate's on ties.  The
    one rule holds at every m: at m = 1 it returns the only candidate.  A
    finite candidate can overflow into a NaN move, picked only as the first
    candidate's, since a later one must move strictly farther.
    """
    runs, count, dim = candidates.shape
    steps = project_l1_rows((x[:, None] - alpha[:, None, None] * candidates).reshape(-1, dim),
                            h.radius)
    moves_sq = sq_norm(steps.reshape(runs, count, dim) - x[:, None])
    # argmax takes the first NaN: fmax makes a later candidate's NaN -inf
    ranked = np.fmax(moves_sq, -np.inf)
    ranked[:, 0] = moves_sq[:, 0]
    pick = ranked.argmax(axis=1) + count * np.arange(runs)  # rows of the stack
    return steps[pick], moves_sq.reshape(-1)[pick]


def _gradient(k, candidates):
    """Each run's one candidate gradient, which fast and adaptive follow."""
    if candidates.shape[1] > 1:
        raise ValueError(f"oracle answer at step {k} offers {candidates.shape[1]}"
                         " candidate gradients; this method follows one")
    return candidates[:, 0]


def _theta(a_prev, lipschitz_next, rule):
    """Next weight of the momentum sequence given the accumulated weight,
    unchecked, on scalars or arrays; the product is (c*L)*a.

    equality_root takes the largest root of theta**2/L = a_prev + theta/L,
    the fastest growth the convergence argument allows.  half_linear solves
    the same recursion tightened by a factor 4, which for constant L
    reproduces the linear sequence theta_k = (k+1)/2.
    """
    _, c, d = _MOMENTUM[rule]
    return (1.0 + np.sqrt(1.0 + c * lipschitz_next * a_prev)) / d


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
    oracle answer queried there, and lists of oracles, configs and
    generators are a batch; y_k is the _farthest_move step along the
    answer's one gradient.  objective gives F at the prox points y_k, one
    call on their stack a step, where a non-finite value ends the run at
    step k+1, and at the final iterates.
    An answer with several candidate gradients raises ValueError.
    """
    if theta_rule not in _MOMENTUM:
        raise ValueError(f"unknown theta rule {theta_rule!r}")
    theta0 = _MOMENTUM[theta_rule][0]

    def step(k, run):
        x, lip, grad = run["x"], run["lip"], _gradient(k, run["candidates"])
        if k == 0:
            run.update(origin=x.copy(), theta=np.full(len(x), theta0), a_weight=theta0 / lip,
                       model_sum=np.zeros_like(x))
        theta, a_weight = run["theta"], run["a_weight"]
        y, move_sq = _farthest_move(h, run["alpha"], x, run["candidates"])
        run["model_sum"] += (theta / lip)[:, None] * grad
        z = project_l1_rows(run["origin"] - run["model_sum"], h.radius)
        theta_new = _theta(a_weight, lip, theta_rule)
        a_new = a_weight + theta_new / lip
        tau = theta_new / (a_new * lip)
        if not np.all((0.0 < tau) & (tau <= 1.0)):
            raise ValueError(f"tau = {tau!r} outside (0, 1]: momentum rule violated")
        run.update(x=tau[:, None] * z + (1.0 - tau)[:, None] * y, theta=theta_new,
                   a_weight=a_new)
        fy = _values(objective, y)
        # y only has to stay finite
        return ({"gm_sq": move_sq / run["alpha_sq"], "objective_y": fy},
                _failures(k + 1, fy, math.inf, np.ones(len(fy), dtype=bool)))

    return _lockstep(objective, oracle, h, config, x0, rng, _rho_rule, step)


def adaptive_prox_gradient(objective, oracle, h, config, x0, epsilon0,
                           rng=None, max_doublings=64):
    """Plain iteration with the majorization weight retuned on the fly.

    The horizon-optimal weight needs the gap f(x0) - f_inf, which is
    unknown; the solver substitutes f(x0) - f_best where f_best sits an
    optimistic slack epsilon below the best value seen.  Whenever a new
    iterate beats f_best, the slack doubles and the step is recomputed with
    the same oracle answer; after each accepted step the slack halves and
    the target is refreshed.  F(x0) is the value of the first oracle
    answer, and F at each later iterate but the last is the value of the
    answer there, as in prox_gradient.  objective gives F at the candidate
    steps, one call on the stack of the runs still chasing, which the
    acceptance test reads, and at the final iterates; a
    candidate whose F is not finite or above the ceiling ends the run at
    step k+1.  Each candidate is a _farthest_move step.  Returns
    (trace, history) where history holds one AdaptiveState per accepted
    step.  Requires a certificate degree in [1, 2) (the weight formula) and
    answers with one candidate gradient.  Lists are a batch, as in
    prox_gradient; a retry steps again only the runs that beat their target.
    """
    # a NaN slack would fail every acceptance test and end as a false divergence
    _positive(epsilon0=epsilon0)
    _count(max_doublings, "max_doublings")

    def start(run):
        if not np.all((1.0 <= run["degree"]) & (run["degree"] < 2.0)):
            raise ValueError("the adaptive variant needs degree in [1, 2)")
        run["rho"][:] = 0.0  # read by none of its steps: alpha is then s/L, above each of them

    def step(k, run):
        x = run["x"]
        lipschitz, degree, delta, step_scale = (  # floats: rho_opt_horizon stays scalar
            run[name].tolist() for name in ("lipschitz", "degree", "delta", "step_scale"))
        _gradient(k, run["candidates"])  # refuses an answer with several candidates
        if k == 0:
            run.update(epsilon=np.full(len(x), float(epsilon0)), f_min=run["f0"])
        epsilon, f_best = run["epsilon"], run["f_min"] - run["epsilon"]
        alpha, f_next, move_sq = np.empty((3, len(x)))
        nxt = np.empty_like(x)
        retries = np.zeros(len(x), dtype=int)
        failures = {}
        chase = f"adaptive target chase exceeded {max_doublings} doublings at step {k}"
        chasing = np.arange(len(x))  # the runs whose step is not accepted yet
        while len(chasing):
            for j in chasing:
                gap = float(run["f0"][j] - f_best[j])
                rho = (rho_opt_horizon(lipschitz[j], degree[j], delta[j], gap, k)
                       if delta[j] > 0.0 else 0.0)
                alpha[j] = step_scale[j] / (lipschitz[j] + degree[j] * rho)
            nxt[chasing], move_sq[chasing] = _farthest_move(h, alpha[chasing], x[chasing],
                                                            run["candidates"][chasing])
            f_next[chasing] = _values(objective, nxt[chasing])
            failed = _failures(k + 1, f_next[chasing], run["ceiling"][chasing],
                               np.ones(len(chasing), dtype=bool))
            failures.update((chasing[j], exc) for j, exc in failed.items())
            beaten = f_next[chasing] < f_best[chasing]  # the target ran away: retry
            beaten[list(failed)] = False
            chasing = chasing[beaten]
            retries[chasing] += 1
            over = retries[chasing] > max_doublings
            failures.update((j, DivergenceError(chase)) for j in chasing[over])
            chasing = chasing[~over]
            epsilon[chasing] *= 2.0
            f_best[chasing] = run["f_min"][chasing] - epsilon[chasing]
        records = {"gm_sq": move_sq / np.array([a ** 2 for a in alpha.tolist()]),
                   "alpha": alpha, "epsilon": epsilon, "f_best": f_best, "retries": retries}
        run.update(x=nxt, f_min=np.minimum(run["f_min"], f_next), epsilon=epsilon / 2.0)
        return records, failures

    def finish(trace, records):
        return trace, [AdaptiveState(epsilon=float(e), f_best=float(b), retry_count=int(r))
                       for e, b, r in zip(records["epsilon"], records["f_best"],
                                          records["retries"])]

    return _lockstep(objective, oracle, h, config, x0, rng, start, step, finish)
