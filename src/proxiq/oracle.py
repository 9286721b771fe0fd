"""Inexact first-order oracles with a tunable error degree.

An oracle for a function F answers a query at y with the exact value F(y)
and a vector g approximating the gradient.  The answer carries a
certificate (delta, L, q) claiming that for every feasible x

    F(x) - F(y) - <g, x - y>  <=  (L/2)*||x - y||**2 + delta*||x - y||**q.

The degree q in [0, 2) controls how the error term scales with distance:
q = 0 is a flat error budget, larger q makes the error fade near the query
point, which buys better convergence guarantees downstream.  Certificates
may additionally claim a convex lower bound, meaning the linearization
never overshoots F.

Any gradient that satisfies the certificate is an admissible answer, so
an answer may carry several candidate gradients under one certificate; the
noisy-gradient family offers m noise draws this way, and the solver's
worst-case run steps along the one that moves farthest.

Besides the abstract certificate this module provides several constructive
oracle families (additive gradient noise, evaluation at shifted points,
mini-batch subsampling, approximate inner maximization, weakly smooth
functions), the AM-GM split used by the solvers, and an empirical
certifier that hunts for violating point pairs.  Each family is one class:
its constructor checks the family's fixed parameters once, and
evaluate(x, rng=None, delta=None) builds the answer, with delta overriding
the accuracy the family was constructed with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class OracleCertificate:
    """Error certificate (delta, L, q) attached to an oracle answer.

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


class NonFiniteAnswer(ValueError):
    """An oracle answered with a non-finite value or gradient."""


@dataclass(frozen=True)
class OracleEval:
    """One oracle answer: exact value, approximate gradient, certificate.

    alternatives holds further candidate gradients that the same
    certificate covers; a solver may step along any of them.
    """

    point: np.ndarray
    value: float
    gradient: np.ndarray
    certificate: OracleCertificate
    alternatives: Tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NonFiniteAnswer("oracle value is not finite")
        for grad in (self.gradient, *self.alternatives):
            if grad.shape != self.point.shape:
                raise ValueError("gradient and point shapes differ")
        # one isfinite call covers all alternatives; they share a shape by now
        if not (np.isfinite(self.gradient).all()
                and (not self.alternatives or np.isfinite(self.alternatives).all())):
            raise NonFiniteAnswer("oracle gradient has non-finite entries")


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
    Shrinking delta only ever increases L.
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
    base = (h / (1.0 + nu)) ** (1.0 / lam)
    return 2.0 * lam * base * ((1.0 - lam) / float(delta)) ** (1.0 / lam - 1.0)


def holder_smoothing_coefficient(holder_constant, exponent, degree):
    """Coefficient C with holder_smoothing_constant = C * delta**(-(1-nu)/(1+nu-q)).

    Splitting off the delta power lets rate formulas carry the delta
    dependence symbolically.  At nu = 1 the power is zero and C = H.
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
    lam = (1.0 + nu - q) / (2.0 - q)
    base = (h / (1.0 + nu)) ** (1.0 / lam)
    return 2.0 * lam * base * (1.0 - lam) ** (1.0 / lam - 1.0)


def bounded_noise(rng, dim, bound):
    """Random vector with Euclidean norm at most bound.

    The direction is standard normal; the norm equals the bound with
    probability 1/2 and is uniform on [0, bound] otherwise, so the worst
    case is exercised often.  A zero bound returns zeros without touching
    the generator, keeping exact runs bit-identical to noise-free code.
    """
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


def spectral_norm(operator, iters=200, tol=1e-10):
    """Largest singular value via power iteration on operator.T @ operator.

    Deterministic: starts from the normalized all-ones vector and runs a
    fixed maximum of iterations with a relative stopping tolerance.
    """
    a = np.asarray(operator, dtype=float)
    if a.ndim != 2:
        raise ValueError("operator must be a matrix")
    n = a.shape[1]
    v = np.ones(n) / math.sqrt(n)
    estimate = 0.0
    for _ in range(iters):
        w = a.T @ (a @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - estimate) <= tol * max(norm, 1.0):
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
    with gradient A u(x) and smoothness constant ||A||**2 / kappa.
    """

    operator: np.ndarray
    concave_center: np.ndarray
    concavity: float

    def __post_init__(self):
        if self.concavity <= 0.0:
            raise ValueError("concavity must be positive")
        if self.operator.shape[1] != self.concave_center.shape[0]:
            raise ValueError("operator and concave_center dimensions differ")

    def maximizer(self, x):
        return self.concave_center + self.operator.T @ np.asarray(x, dtype=float) / self.concavity

    def value(self, x):
        x = np.asarray(x, dtype=float)
        atx = self.operator.T @ x
        return float((self.operator @ self.concave_center) @ x + atx @ atx / (2.0 * self.concavity))

    def gradient(self, x):
        return self.operator @ self.maximizer(x)

    @cached_property
    def lipschitz(self):
        return spectral_norm(self.operator) ** 2 / self.concavity


@dataclass(frozen=True)
class HolderFunction:
    """Function whose (sub)gradient is Holder continuous.

    ||g(x) - g(y)|| <= holder_constant * ||x - y||**exponent for all
    admissible subgradient selections.
    """

    exponent: float
    holder_constant: float
    value: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]
    convex: bool = True


class ExactOracle:
    """Exact value and gradient wrapped in the oracle interface.

    The zero-delta certificate is valid at any degree, so the degree is
    whatever the caller wants to run with.
    """

    def __init__(self, problem, degree=1.0, convex_lower_bound=False):
        self.problem = problem
        self.degree = float(degree)
        self.convex_lower_bound = bool(convex_lower_bound)

    def evaluate(self, x, rng=None, delta=None):
        x = np.asarray(x, dtype=float)
        cert = OracleCertificate(delta=0.0, lipschitz=float(self.problem.lipschitz),
                                 degree=self.degree,
                                 convex_lower_bound=self.convex_lower_bound)
        return OracleEval(point=x, value=float(self.problem.value(x)),
                          gradient=self.problem.gradient(x), certificate=cert)


class NoisyGradientOracle:
    """Gradient corrupted by additive noise with a hard norm cap.

    The natural certificate has degree 1 with delta equal to the noise
    bound.  On a domain of known diameter D the same answer also certifies
    any degree q in [0, 1] with delta scaled by D**(1-q), because
    ||x - y|| <= D there.  Degrees above 1 are not certifiable this way.
    delta is the accuracy so certified for the constructed noise bound.

    The noise level is the accuracy knob: a delta override at call time is
    translated back into a noise bound and certified as given, so a solver
    can drive a delta_k schedule without knowing the noise model.  With
    directions = m the exact gradient is perturbed by m noise vectors
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
        self.degree = q
        self.diameter = None if diameter is None else float(diameter)
        self.directions = int(directions)
        self.delta = self.noise_bound if q == 1.0 else self.noise_bound * self.diameter ** (1.0 - q)

    def noise_for(self, delta):
        """Noise bound realizing a certificate accuracy delta at this degree."""
        if self.degree == 1.0:
            return float(delta)
        return float(delta) / self.diameter ** (1.0 - self.degree)

    def evaluate(self, x, rng=None, delta=None):
        if delta is None:
            noise, delta = self.noise_bound, self.delta
        else:
            noise, delta = self.noise_for(delta), float(delta)
        x = np.asarray(x, dtype=float)
        exact = self.problem.gradient(x)
        grad = exact + bounded_noise(rng, x.size, noise)
        alternatives = tuple(exact + bounded_noise(rng, x.size, noise)
                             for _ in range(self.directions - 1))
        cert = OracleCertificate(delta=delta, lipschitz=float(self.problem.lipschitz),
                                 degree=self.degree)
        return OracleEval(point=x, value=float(self.problem.value(x)), gradient=grad,
                          certificate=cert, alternatives=alternatives)


class ShiftedPointOracle:
    """Exact gradient evaluated at a point displaced by at most the shift bound.

    The value stays the exact F(x); only the gradient is off.  Smoothness
    turns the displacement into a degree-1 certificate with
    delta = L * shift, keeping L itself unchanged.  The shift radius is the
    accuracy knob.
    """

    degree = 1.0

    def __init__(self, problem, shift_bound):
        if shift_bound < 0.0:
            raise ValueError("shift_bound must be nonnegative")
        self.problem = problem
        self.shift_bound = float(shift_bound)

    def evaluate(self, x, rng=None, delta=None):
        lip = float(self.problem.lipschitz)
        shift = self.shift_bound if delta is None else float(delta) / lip
        x = np.asarray(x, dtype=float)
        shifted = x + bounded_noise(rng, x.size, shift)
        cert = OracleCertificate(delta=lip * shift, lipschitz=lip, degree=1.0)
        return OracleEval(point=x, value=float(self.problem.value(x)),
                          gradient=self.problem.gradient(shifted), certificate=cert)


class MinibatchOracle:
    """Subsampled gradient of a finite sum over random fixed-size batches.

    Under mean scaling the gradient is the batch average and the value is
    the exact mean of all components; sum scaling multiplies both by the
    number of components.  No certificate can be derived from the batch
    alone (the error is probabilistic), so the claimed constants are passed
    through and certify_oracle is the judge.  A full batch needs no
    generator and reproduces the exact (mean or sum) gradient.
    """

    def __init__(self, components, batch_size, scaling="mean",
                 claimed_delta=0.0, claimed_lipschitz=1.0, degree=1.0):
        if not 1 <= batch_size <= len(components):
            raise ValueError("batch_size out of range")
        if scaling not in ("mean", "sum"):
            raise ValueError("scaling must be 'mean' or 'sum'")
        self.components = list(components)
        self.batch_size = int(batch_size)
        self.scaling = scaling
        self.claimed_delta = float(claimed_delta)
        self.claimed_lipschitz = float(claimed_lipschitz)
        self.degree = float(degree)

    def evaluate(self, x, rng=None, delta=None):
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
        if self.scaling == "sum":
            grad = grad * n
            value = value * n
        claimed = self.claimed_delta if delta is None else float(delta)
        cert = OracleCertificate(delta=claimed, lipschitz=self.claimed_lipschitz,
                                 degree=self.degree)
        return OracleEval(point=x, value=float(value), gradient=grad, certificate=cert)


class SaddleOracle:
    """Gradient through an approximately solved inner maximization.

    The inner problem is solved in closed form and the approximation error
    is injected deliberately: the returned gradient is A @ u with u within
    the inner accuracy of the true maximizer.  Certifies at degree 1 with
    delta = inner_accuracy * ||A||.  An exact inner solution makes the
    answer the true gradient of a convex function, so the certificate then
    claims the convex lower bound too.  Inner accuracy is the knob.
    """

    degree = 1.0

    def __init__(self, saddle, inner_accuracy):
        if inner_accuracy < 0.0:
            raise ValueError("inner_accuracy must be nonnegative")
        self.saddle = saddle
        self.inner_accuracy = float(inner_accuracy)
        self.operator_norm = spectral_norm(saddle.operator)

    def evaluate(self, x, rng=None, delta=None):
        acc = self.inner_accuracy if delta is None else float(delta) / self.operator_norm
        x = np.asarray(x, dtype=float)
        u = self.saddle.maximizer(x)
        if acc > 0.0:
            u = u + bounded_noise(rng, u.size, acc)
        cert = OracleCertificate(delta=acc * self.operator_norm,
                                 lipschitz=self.operator_norm ** 2 / self.saddle.concavity,
                                 degree=1.0,
                                 convex_lower_bound=(acc == 0.0))
        return OracleEval(point=x, value=self.saddle.value(x), gradient=self.saddle.operator @ u,
                          certificate=cert)


class HolderOracle:
    """Exact subgradient of a weakly smooth function, certified at degree q.

    Weak smoothness admits a certificate at any accuracy delta > 0 by
    inflating the smoothness constant via holder_smoothing_constant, so the
    certificate adapts L to the requested delta.  It claims the convex
    lower bound when the function is convex.
    """

    def __init__(self, holder, degree, delta):
        self.holder = holder
        self.degree = float(degree)
        self.delta = float(delta)

    def evaluate(self, x, rng=None, delta=None):
        delta = self.delta if delta is None else float(delta)
        x = np.asarray(x, dtype=float)
        lip = holder_smoothing_constant(self.holder.holder_constant, self.holder.exponent,
                                        self.degree, delta)
        cert = OracleCertificate(delta=delta, lipschitz=lip, degree=self.degree,
                                 convex_lower_bound=self.holder.convex)
        return OracleEval(point=x, value=float(self.holder.value(x)),
                          gradient=np.asarray(self.holder.subgradient(x), dtype=float),
                          certificate=cert)


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
    """Empirically test an oracle's certificates on sampled point pairs.

    For each sampled (x, y) the oracle answers at y and the claimed upper
    bound is checked at x against the exact objective.  When the
    certificate claims a convex lower bound, the linearization must also
    not overshoot.  The worst pair is reported either way, so a refutation
    comes with a concrete witness.
    """
    if pairs <= 0:
        raise ValueError("pairs must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    max_violation = -math.inf
    worst_pair = None
    lower_checked = False
    min_lower = math.inf
    worst_lower = None
    for _ in range(int(pairs)):
        x, y = domain_sampler(rng)
        ev = oracle.evaluate(y, rng=rng)
        cert = ev.certificate
        diff = np.asarray(x, dtype=float) - ev.point
        dist = float(np.linalg.norm(diff))
        gap = float(exact_value(x)) - ev.value - float(ev.gradient @ diff)
        violation = gap - 0.5 * cert.lipschitz * dist ** 2 - cert.delta * dist ** cert.degree
        if violation > max_violation:
            max_violation = violation
            worst_pair = (np.array(x, dtype=float, copy=True), ev.point.copy())
        if cert.convex_lower_bound:
            lower_checked = True
            if gap < min_lower:
                min_lower = gap
                worst_lower = (np.array(x, dtype=float, copy=True), ev.point.copy())
    certified = max_violation <= tolerance and (not lower_checked or min_lower >= -tolerance)
    return CertificationReport(certified=certified, pairs=int(pairs), tolerance=float(tolerance),
                               max_violation=float(max_violation), worst_pair=worst_pair,
                               lower_bound_checked=lower_checked,
                               min_lower_slack=float(min_lower) if lower_checked else math.nan,
                               worst_lower_pair=worst_lower)
