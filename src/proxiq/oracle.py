"""Inexact first-order oracles with a tunable error degree.

An oracle for a function F answers a query at y with the exact value F(y)
and a vector g approximating the gradient.  The oracle holds one
certificate (delta, L, q), built when it is constructed, claiming that at
every query point y and for every feasible x

    F(x) - F(y) - <g, x - y>  <=  (L/2)*||x - y||**2 + delta*||x - y||**q.

The degree q in [0, 2) controls how the error term scales with distance:
q = 0 is a flat error budget, larger q makes the error fade near the query
point, which buys better convergence guarantees downstream.  Certificates
may additionally claim a convex lower bound, meaning the linearization
never overshoots F.

Any gradient that satisfies the certificate is an admissible answer, so
an answer may carry several candidate gradients; the noisy-gradient
family offers m noise draws this way, and the solver's worst-case run
steps along the one that moves farthest.  The candidate count belongs to
the whole batch: every answer evaluate_rows reads at once offers the same
number of candidates.

Besides the abstract certificate this module provides several constructive
oracle families (additive gradient noise, evaluation at shifted points,
mini-batch subsampling, approximate inner maximization, weakly smooth
functions), the AM-GM split used by the solvers, and an empirical
certifier that hunts for violating point pairs.  Each family is one class:
its constructor checks the family's parameters and keeps the certificate
they imply as oracle.certificate, and evaluate(x, rng=None) returns the
answer as the pair (value, candidates), a sequence of candidate gradients
whose first is the answer's gradient.

The exact, noisy-gradient and Holder families are model oracles: they
answer from the exact value and gradient of their problem, plus m
bounded_noise draws under their noise bound, which is zero for the exact
and Holder families.  evaluate_rows answers a stack of points for a batch
of oracles, one oracle and one generator per row, as plain arrays; for
model oracles over one problem, a batch of one included, it makes a
single stacked evaluation of the problem and draws the batch's noise as
one (C, m, n) slab, each generator's vectors in the order bounded_noise
draws them one at a time.  A model oracle's evaluate is that same answer
for a stack of one.  evaluate_rows is the one place an answer's shapes
and finiteness are checked, and every solver and certify_oracle ask
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class OracleCertificate:
    """Error certificate (delta, L, q) an oracle holds for all its answers.

    convex_lower_bound additionally claims 0 <= F(x) - F(y) - <g, x - y>
    for all feasible x, i.e. g is a true subgradient of a convex F.
    """

    delta: float
    lipschitz: float
    degree: float
    convex_lower_bound: bool = False

    def __post_init__(self):
        if not 0.0 <= self.degree < 2.0:
            raise ValueError("degree must lie in [0, 2)")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        if self.lipschitz <= 0.0:
            raise ValueError("lipschitz must be positive")


def majorize_amgm(delta, degree, rho):
    """Split the error term delta*r**q into a quadratic plus a constant.

    Weighted AM-GM gives, for every r >= 0 and every rho > 0,

        delta*r**q  <=  (q*rho/2)*r**2 + (2-q)*delta**(2/(2-q)) / (2*rho**(q/(2-q))).

    Returns the pair (quadratic coefficient, additive constant).  At q = 0
    the split degenerates to (0, delta) and rho is irrelevant.
    """
    q = float(degree)
    if not 0.0 <= q < 2.0:
        raise ValueError("degree must lie in [0, 2)")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if q == 0.0:
        return 0.0, float(delta)
    if rho <= 0.0:
        raise ValueError("rho must be positive when degree > 0")
    additive = (2.0 - q) * delta ** (2.0 / (2.0 - q)) / (2.0 * rho ** (q / (2.0 - q)))
    return 0.5 * q * rho, additive


def holder_smoothing_constant(holder_constant, exponent, degree, delta):
    """Smoothness constant certifying a weakly smooth function at accuracy delta.

    If the (sub)gradient of F is Holder continuous with constant H and
    exponent nu, then (H/(1+nu))*r**(1+nu) <= (L/2)*r**2 + delta*r**q holds
    for all r >= 0 with

        L(delta) = 2*lam * (H/(1+nu))**(1/lam) * ((1-lam)/delta)**(1/lam - 1),
        lam = (1+nu-q)/(2-q),

    and this L is the smallest such constant (the AM-GM split is tight).
    At nu = 1 the function is plainly smooth, L = H, and delta is ignored.
    Shrinking delta only ever increases L, as L(delta) = L(1) *
    delta**(-(1-nu)/(1+nu-q)); rate formulas use L(1) as the coefficient.
    """
    nu = float(exponent)
    q = float(degree)
    h = float(holder_constant)
    if not 0.0 <= nu <= 1.0:
        raise ValueError("exponent must lie in [0, 1]")
    if h <= 0.0:
        raise ValueError("holder_constant must be positive")
    if not 0.0 <= q < 1.0 + nu:
        raise ValueError("degree must lie in [0, 1 + exponent)")
    if nu == 1.0:
        return h
    if delta <= 0.0:
        raise ValueError("delta must be positive when exponent < 1")
    lam = (1.0 + nu - q) / (2.0 - q)
    try:
        base = (h / (1.0 + nu)) ** (1.0 / lam)
        lip = 2.0 * lam * base * ((1.0 - lam) / float(delta)) ** (1.0 / lam - 1.0)
    except OverflowError:
        lip = math.inf
    if not math.isfinite(lip):
        raise ValueError("the smoothing constant is not a finite float")
    return lip


def sq_norm(x):
    """x @ x for one point or for each row of a stack, one BLAS dot per row,
    so each row's value is bitwise that of the row alone."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def noise_slab(rngs, bounds, count, dim):
    """Bounded noise for a batch: a (C, count, dim) slab, count vectors per row.

    Each vector has Euclidean norm at most its row's bound: the direction
    is standard normal and the norm equals the bound with probability 1/2
    and is uniform on [0, bound] otherwise, so the worst case is exercised
    often.  Row i draws from rngs[i], vector by vector, the direction and
    then its radius; the directions are then scaled to their radii all at
    once.  A row with a zero bound stays zero without touching its
    generator, keeping exact runs bit-identical to noise-free code; a zero
    direction, never met in practice, gives zero after its radius draw.
    """
    slab = np.zeros((len(bounds), count, dim))
    radii = np.zeros((len(bounds), count))
    for row, radius, rng, bound in zip(slab, radii, rngs, bounds):
        if bound < 0.0:
            raise ValueError("bound must be nonnegative")
        if bound == 0.0:
            continue
        if rng is None:
            raise ValueError("a generator is required to draw noise")
        for j in range(count):
            rng.standard_normal(out=row[j])
            radius[j] = bound if rng.random() < 0.5 else bound * rng.random()
    norms = np.sqrt(sq_norm(slab))
    # a zero row stays zero whatever it is scaled by, so it keeps its radius
    slab *= np.divide(radii, norms, out=radii, where=norms > 0.0)[..., None]
    return slab


def bounded_noise(rng, dim, bound):
    """One random vector with Euclidean norm at most bound: noise_slab's
    single draw."""
    return noise_slab([rng], [bound], 1, dim)[0, 0]


# power iteration of spectral_norm: at most this many steps, stopping once
# the estimate moves by at most this relative amount
_POWER_ITERS = 200
_POWER_TOL = 1e-10


def spectral_norm(operator):
    """Largest singular value via power iteration on operator.T @ operator.

    Deterministic: starts from the normalized all-ones vector and runs at
    most _POWER_ITERS iterations with the relative stopping tolerance
    _POWER_TOL.
    """
    a = np.asarray(operator, dtype=float)
    if a.ndim != 2:
        raise ValueError("operator must be a matrix")
    n = a.shape[1]
    v = np.ones(n) / math.sqrt(n)
    estimate = 0.0
    for _ in range(_POWER_ITERS):
        w = a.T @ (a @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - estimate) <= _POWER_TOL * max(norm, 1.0):
            estimate = norm
            break
        estimate = norm
    return math.sqrt(estimate)


@dataclass(frozen=True)
class SaddleProblem:
    """Max-type objective F(x) = max_u { G(u) + <A u, x> } with quadratic G.

    G(u) = -(kappa/2)*||u - c||**2 is strongly concave, so the inner problem
    has the closed-form maximizer u(x) = c + A.T x / kappa.  This makes
    F(x) = <A c, x> + ||A.T x||**2 / (2 kappa), a convex smooth function
    with gradient A u(x) and smoothness constant ||A||**2 / kappa.  The
    value and the maximizer share the one product A.T x.
    """

    operator: np.ndarray
    concave_center: np.ndarray
    concavity: float

    def __post_init__(self):
        if self.concavity <= 0.0:
            raise ValueError("concavity must be positive")
        if self.operator.shape[1] != self.concave_center.shape[0]:
            raise ValueError("operator and concave_center dimensions differ")

    def value_and_maximizer(self, x):
        x = np.asarray(x, dtype=float)
        atx = self.operator.T @ x
        value = float((self.operator @ self.concave_center) @ x
                      + atx @ atx / (2.0 * self.concavity))
        return value, self.concave_center + atx / self.concavity

    def value(self, x):
        # the maximizer costs no further pass over the operator
        return self.value_and_maximizer(x)[0]


class ModelOracle:
    """An oracle that answers from the exact value and gradient of self.problem.

    Its answer is the exact value and self.directions candidates, the exact
    gradient plus bounded_noise draws under self.noise_bound, drawn in
    sequence from rng.  The base's bound is zero, so an exact answer draws
    nothing.  One problem.value_and_gradient call serves a query, so the
    residual it computes once feeds both the value and the gradient.  The
    problem takes a stack (C, n), returning one value per row: evaluate is
    the answer to a stack of one, and evaluate_rows answers every batch of
    model oracles over one problem in one evaluation, drawing the whole
    batch's noise as one slab, each generator in the order its own answer
    would.  A subclass may override evaluate to spoil the answer, calling
    super().evaluate for the honest one; evaluate_rows then asks it row by
    row.
    """

    noise_bound = 0.0
    directions = 1

    def evaluate(self, x, rng=None):
        values, candidates = _model_answers([self], np.asarray(x, dtype=float)[None], [rng])
        return float(values[0]), candidates[0]


def _stacks(oracles):
    """Whether a batch can share one stacked exact evaluation and one noise
    slab: model oracles over one problem that answer through
    ModelOracle.evaluate."""
    return all(isinstance(o, ModelOracle) and type(o).evaluate is ModelOracle.evaluate
               and o.problem is oracles[0].problem for o in oracles)


def _candidate_count(counts):
    """The one candidate count of a batch's answers, given each answer's."""
    counts = sorted(set(counts))
    if len(counts) > 1:
        raise ValueError("every answer of a batch must offer the same number of candidate"
                         f" gradients; these offer {counts}")
    return counts[0]


def _model_answers(oracles, points, rngs):
    """Answers of model oracles over one problem at a stack of points:
    values (C,) and candidate gradients (C, m, n).

    One value_and_gradient call evaluates the whole stack; each row's
    candidates are its exact gradient plus its noise slab.  A row with a
    zero bound draws nothing and is exact bitwise.
    """
    values, exact = oracles[0].problem.value_and_gradient(points)
    if np.shape(values) != (len(points),) or np.shape(exact) != points.shape:
        raise ValueError("value_and_gradient must answer a stack (C, n) with C values"
                         " and a (C, n) gradient")
    count = _candidate_count(o.directions for o in oracles)
    bounds = [o.noise_bound for o in oracles]
    quiet = [i for i, bound in enumerate(bounds) if bound == 0.0]
    if len(quiet) == len(bounds):  # an exact batch draws and adds nothing
        return values, exact[:, None].repeat(count, axis=1)
    candidates = exact[:, None] + noise_slab(rngs, bounds, count, exact.shape[1])
    if quiet:  # adding the slab's +0.0 turned their -0.0 into 0.0
        candidates[quiet] = exact[quiet, None]
    return values, candidates


def evaluate_rows(oracles, points, rngs):
    """Answers of a batch of oracles, row i of points for oracles[i] with
    the generator rngs[i].

    A batch of model oracles over one problem that answer through
    ModelOracle.evaluate makes one stacked exact evaluation: the problem's
    value_and_gradient runs once on the whole stack (C, n), giving each row
    bitwise the answer it gives that row alone.  Their noise is one
    (C, m, n) slab, added to the exact gradients in one operation; row i's
    generator draws its m vectors in the order its own answer would, and a
    row with a zero bound keeps its exact gradient bitwise.  Any other
    batch calls each oracle's evaluate on its row.  Either way every random
    stream is the one of a run alone.  This is where an answer is checked.
    Returns (values (C,), candidates (C, m, n), finite (C,)): row i's value
    and candidate gradients, its first candidate being the answer's
    gradient, and whether all of them are finite.  Every row offers the
    same number m of candidates.  Rows offering different numbers, a
    candidate whose shape differs from its point, or a stacked evaluation
    that does not give (C,) values and a (C, n) gradient raise ValueError.
    """
    if _stacks(oracles):
        values, candidates = _model_answers(oracles, points, rngs)
    else:
        values, candidates = zip(*[oracle.evaluate(row, rng=rng)
                                   for oracle, row, rng in zip(oracles, points, rngs)])
        count = _candidate_count(map(len, candidates))
        candidates = np.array(candidates, dtype=float)  # ragged shapes raise ValueError here
        if candidates.shape != (len(points), count, points.shape[1]):
            raise ValueError("gradient and point shapes differ")
    values = np.array(values, dtype=float)
    return values, candidates, np.isfinite(values) & np.isfinite(candidates).all(axis=(1, 2))


class ExactOracle(ModelOracle):
    """Exact value and gradient wrapped in the oracle interface.

    The zero-delta certificate is valid at any degree, so the degree is
    whatever the caller wants to run with.
    """

    def __init__(self, problem, degree=1.0, convex_lower_bound=False):
        self.problem = problem
        self.certificate = OracleCertificate(delta=0.0, lipschitz=float(problem.lipschitz),
                                             degree=float(degree),
                                             convex_lower_bound=bool(convex_lower_bound))


class NoisyGradientOracle(ModelOracle):
    """Gradient corrupted by additive noise with a hard norm cap.

    The natural certificate has degree 1 with delta equal to the noise
    bound.  On a domain of known diameter D the same answer also certifies
    any degree q in [0, 1] with delta scaled by D**(1-q), because
    ||x - y|| <= D there.  Degrees above 1 are not certifiable this way.

    With directions = m the exact gradient is perturbed by m noise vectors
    drawn in sequence: the first gives the gradient, the others the
    alternatives, all under the same certificate.  This is how the
    worst-case sweep picks its noise direction.
    """

    def __init__(self, problem, noise_bound, degree=1.0, diameter=None, directions=1):
        q = float(degree)
        if q != 1.0 and not 0.0 <= q < 1.0:
            raise ValueError("degree must lie in [0, 1] for a noisy-gradient oracle")
        if q != 1.0 and diameter is None:
            raise ValueError("degree < 1 needs a domain diameter to rescale delta")
        if noise_bound < 0.0:
            raise ValueError("noise_bound must be nonnegative")
        if directions < 1:
            raise ValueError("directions must be at least 1")
        self.problem = problem
        self.noise_bound = float(noise_bound)
        self.directions = int(directions)
        delta = self.noise_bound if q == 1.0 else self.noise_bound * float(diameter) ** (1.0 - q)
        self.certificate = OracleCertificate(delta=delta, lipschitz=float(problem.lipschitz),
                                             degree=q)


class ShiftedPointOracle:
    """Exact gradient evaluated at a point displaced by at most the shift bound.

    The value stays the exact F(x); only the gradient is off.  Smoothness
    turns the displacement into a degree-1 certificate with
    delta = L * shift, keeping L itself unchanged.
    """

    def __init__(self, problem, shift_bound):
        if shift_bound < 0.0:
            raise ValueError("shift_bound must be nonnegative")
        self.problem = problem
        self.shift_bound = float(shift_bound)
        lip = float(problem.lipschitz)
        self.certificate = OracleCertificate(delta=lip * self.shift_bound, lipschitz=lip,
                                             degree=1.0)

    def evaluate(self, x, rng=None):
        x = np.asarray(x, dtype=float)
        shifted = x + bounded_noise(rng, x.size, self.shift_bound)
        return float(self.problem.value(x)), (self.problem.gradient(shifted),)


class MinibatchOracle:
    """Subsampled gradient of a finite sum over random fixed-size batches.

    The gradient is the batch average and the value is the exact mean of
    all components.  No certificate can be derived from the batch alone
    (the error is probabilistic), so the claimed constants are passed
    through and certify_oracle is the judge.  A full batch needs no
    generator and reproduces the exact mean gradient.
    """

    def __init__(self, components, batch_size, claimed_delta=0.0, claimed_lipschitz=1.0,
                 degree=1.0):
        if not 1 <= batch_size <= len(components):
            raise ValueError("batch_size out of range")
        self.components = list(components)
        self.batch_size = int(batch_size)
        self.certificate = OracleCertificate(delta=float(claimed_delta),
                                             lipschitz=float(claimed_lipschitz),
                                             degree=float(degree))

    def evaluate(self, x, rng=None):
        n = len(self.components)
        if self.batch_size == n:
            batch = range(n)
        else:
            if rng is None:
                raise ValueError("a generator is required to sample batches")
            batch = rng.choice(n, size=self.batch_size, replace=False)
        x = np.asarray(x, dtype=float)
        grad = sum(self.components[j].gradient(x) for j in batch) / self.batch_size
        value = sum(float(c.value(x)) for c in self.components) / n
        return float(value), (grad,)


class SaddleOracle:
    """Gradient through an approximately solved inner maximization.

    The inner problem is solved in closed form and the approximation error
    is injected deliberately: the returned gradient is A @ u with u within
    the inner accuracy of the true maximizer.  Certifies at degree 1 with
    delta = inner_accuracy * ||A||.  An exact inner solution makes the
    answer the true gradient of a convex function, so the certificate then
    claims the convex lower bound too.
    """

    def __init__(self, saddle, inner_accuracy):
        if inner_accuracy < 0.0:
            raise ValueError("inner_accuracy must be nonnegative")
        self.saddle = saddle
        self.inner_accuracy = float(inner_accuracy)
        self.operator_norm = spectral_norm(saddle.operator)
        self.certificate = OracleCertificate(
            delta=self.inner_accuracy * self.operator_norm,
            lipschitz=self.operator_norm ** 2 / saddle.concavity, degree=1.0,
            convex_lower_bound=(self.inner_accuracy == 0.0))

    def evaluate(self, x, rng=None):
        x = np.asarray(x, dtype=float)
        value, u = self.saddle.value_and_maximizer(x)
        if self.inner_accuracy > 0.0:
            u = u + bounded_noise(rng, u.size, self.inner_accuracy)
        return value, (self.saddle.operator @ u,)


class HolderOracle(ModelOracle):
    """Exact gradient of a weakly smooth problem, certified at degree q.

    The problem's gradient is Holder continuous with constant
    problem.holder_constant and exponent problem.exponent.  Weak smoothness
    admits a certificate at any accuracy delta > 0 by inflating the
    smoothness constant via holder_smoothing_constant, computed once for
    the constructed delta.  It claims the convex lower bound when the
    problem is convex.
    """

    def __init__(self, problem, degree, delta):
        self.problem = problem
        lip = holder_smoothing_constant(problem.holder_constant, problem.exponent,
                                        degree, delta)
        self.certificate = OracleCertificate(delta=float(delta), lipschitz=lip,
                                             degree=float(degree),
                                             convex_lower_bound=problem.convex)


@dataclass
class CertificationReport:
    """Outcome of an empirical certificate check over sampled pairs."""

    certified: bool
    pairs: int
    tolerance: float
    max_violation: float
    worst_pair: Optional[tuple]
    lower_bound_checked: bool
    min_lower_slack: float
    worst_lower_pair: Optional[tuple]

    def summary(self):
        status = "certified" if self.certified else "REFUTED"
        line = f"{status}: {self.pairs} pairs, max upper violation {self.max_violation:.3e}"
        if self.lower_bound_checked:
            line += f", min lower slack {self.min_lower_slack:.3e}"
        return line


def certify_oracle(oracle, exact_value, domain_sampler, pairs=1000, tolerance=1e-7, rng=None):
    """Empirically test an oracle's certificate on sampled point pairs.

    For each sampled (x, y) the oracle answers at y and the bound its
    certificate claims is checked at x against the exact objective, for
    every candidate gradient of the answer.  When the certificate claims a
    convex lower bound, no candidate's linearization may overshoot either.
    The worst pair over all candidates is reported either way, so a
    refutation comes with a concrete witness.  The oracle answers through
    evaluate_rows, as a batch of one; a non-finite answer raises ValueError.
    """
    if pairs <= 0:
        raise ValueError("pairs must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    cert = oracle.certificate
    max_violation = -math.inf
    worst_pair = None
    lower_checked = cert.convex_lower_bound
    min_lower = math.inf
    worst_lower = None
    for _ in range(int(pairs)):
        x, y = domain_sampler(rng)
        x, y = np.array(x, dtype=float), np.array(y, dtype=float)
        values, candidates, finite = evaluate_rows([oracle], y[None], [rng])
        if not finite[0]:
            raise ValueError("oracle answer is not finite")
        diff = x - y
        dist = float(np.linalg.norm(diff))
        value_gap = float(exact_value(x)) - float(values[0])
        quadratic = 0.5 * cert.lipschitz * dist ** 2
        error = cert.delta * dist ** cert.degree
        for grad in candidates[0]:
            gap = value_gap - float(grad @ diff)
            violation = gap - quadratic - error
            if violation > max_violation:
                max_violation = violation
                worst_pair = (x, y)
            if lower_checked and gap < min_lower:
                min_lower = gap
                worst_lower = (x, y)
    certified = max_violation <= tolerance and (not lower_checked or min_lower >= -tolerance)
    return CertificationReport(certified=certified, pairs=int(pairs), tolerance=float(tolerance),
                               max_violation=float(max_violation), worst_pair=worst_pair,
                               lower_bound_checked=lower_checked,
                               min_lower_slack=float(min_lower) if lower_checked else math.nan,
                               worst_lower_pair=worst_lower)
