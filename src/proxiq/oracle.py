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
steps along the one that moves farthest.

Besides the abstract certificate this module provides several constructive
oracle families (additive gradient noise, evaluation at shifted points,
mini-batch subsampling, approximate inner maximization, weakly smooth
functions), the AM-GM split behind the solvers' step 1/(L + q*rho) and
the rate bounds (the solvers step with L + q*rho and never call it), and
an empirical certifier that hunts for violating point pairs.  Each family is one Oracle
class: its constructor checks the family's parameters and keeps the
certificate they imply as oracle.certificate, and its static method
answers(oracles, points, rngs) answers a stack of points (C, n), row i for
oracles[i] with the generator rngs[i], as values (C,) and candidate
gradients (C, m, n), the first being the answer's gradient.  Each row is
bitwise its answer alone, and each generator draws what it draws alone,
for the rows it serves in row order.  The noisy families add their noise
to an exact stack (gradients, query points or inner maximizers) through
one helper, perturbed, so a zero bound gives the exact stack bitwise and
draws nothing.  evaluate(x, rng=None) is the answer to a stack of one.
A subclass spoils an answer by overriding answers and calling its
parent's for the honest one.  evaluate_rows is the one answer call, once
per solver step and once for all of certify_oracle's pairs, and checks the
shapes and finiteness of every answer.

The package's scalar checks live here, one helper per rule: _finite,
_count (a positive integer, never a bool), _positive and _nonnegative (both
finite too), _check_degree and _check_k (an iteration count or horizon,
a scalar or an array).  The other modules check their scalar parameters
through them, and each message names the parameter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np


def _finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def _count(value, name):
    """value as an int of at least 1; a bool or a non-integral number is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _positive(**named):
    for name, value in named.items():
        _finite(name, value)
        if value <= 0.0:
            raise ValueError(f"{name} must be positive")


def _nonnegative(**named):
    for name, value in named.items():
        _finite(name, value)
        if value < 0.0:
            raise ValueError(f"{name} must be nonnegative")


def _check_degree(degree, lo=0.0):
    q = float(degree)
    if not lo <= q < 2.0:  # NaN fails too
        raise ValueError(f"degree must lie in [{lo:g}, 2)")
    return q


def _check_k(k, floor=0.0, name="k"):
    """An iteration count, a scalar or an array, as a float array; NaN, +-inf
    or an entry below floor is an error."""
    k = np.asarray(k, dtype=float)
    if not ((k >= floor) & (k < math.inf)).all():  # NaN fails too
        raise ValueError(f"{name} must be finite and at least {floor:g}")
    return k


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
        _check_degree(self.degree)
        # NaN fails every comparison, so certify_oracle could never refute it
        _nonnegative(delta=self.delta)
        _positive(lipschitz=self.lipschitz)


def majorize_amgm(delta, degree, rho):
    """Split the error term delta*r**q into a quadratic plus a constant.

    Weighted AM-GM gives, for every r >= 0 and every rho > 0,

        delta*r**q  <=  (q*rho/2)*r**2 + (2-q)*delta**(2/(2-q)) / (2*rho**(q/(2-q))).

    Returns the pair (quadratic coefficient, additive constant).  At q = 0
    the split degenerates to (0, delta) and rho is irrelevant.
    """
    q = _check_degree(degree)
    _nonnegative(delta=delta)
    if q == 0.0:
        return 0.0, float(delta)
    _positive(rho=rho)
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
    _positive(holder_constant=h)
    if not 0.0 <= q < 1.0 + nu:
        raise ValueError("degree must lie in [0, 1 + exponent)")
    if nu == 1.0:
        return h
    _positive(delta=delta)
    lam = (1.0 + nu - q) / (2.0 - q)
    try:
        base = (h / (1.0 + nu)) ** (1.0 / lam)
        lip = 2.0 * lam * base * ((1.0 - lam) / float(delta)) ** (1.0 / lam - 1.0)
    except OverflowError:
        lip = math.inf
    if not math.isfinite(lip):
        raise ValueError("the smoothing constant is not a finite float")
    return lip


def _row_dot(a, b):
    """a @ b for one pair of vectors or for each row of broadcast stacks, one
    BLAS dot per row, so each row's value is bitwise that of the row alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def sq_norm(x):
    """x @ x for one point or for each row of a stack, as _row_dot takes it."""
    return _row_dot(x, x)


def _matvec(matrix, x):
    """matrix @ x for one point x or for each row of a stack, one BLAS
    matrix-vector product per row, so row i does not depend on the others."""
    return np.matmul(matrix, x[..., None])[..., 0]


def perturbed(base, rngs, bounds, count=1):
    """count noisy copies of each row of a stack base (C, n): a (C, count, n)
    slab, row i's copies base[i] plus vectors of Euclidean norm at most
    bounds[i].  The one place noise is added to an exact answer.

    Each vector's direction is standard normal and its norm equals the bound
    with probability 1/2 and is uniform on [0, bound] otherwise, so the worst
    case is exercised often.  Row i draws from rngs[i], rows in order, into
    a (C, 2, count) table of coins and fractions: at count = m > 1 its m
    directions as one block, then 2m uniforms; at count = 1 the direction, a
    coin and, when that is not below 1/2, a fraction, the gate's stream (as
    a block, its degree-1 gap windows at seed 42 stop shrinking).  One
    expression gives every copy the bound (coin below 1/2) or its fraction
    of it.  A zero-bound row is its base row bitwise, -0.0 included, and
    leaves its generator untouched, so exact runs stay bit-identical to
    noise-free code; a zero direction adds nothing.
    """
    slab = np.zeros((len(base), count, base.shape[1]))
    uniforms = np.zeros((len(base), 2, count))
    exact = []
    for i, (row, u, rng, bound) in enumerate(zip(slab, uniforms, rngs, bounds)):
        if bound < 0.0:
            raise ValueError("bound must be nonnegative")
        if bound == 0.0:
            exact.append(i)
            continue
        if rng is None:
            raise ValueError("a generator is required to draw noise")
        rng.standard_normal(out=row)
        if count > 1:
            rng.random(out=u)
        else:  # scalar draws and stores: out= views made this call 15% slower
            u[0, 0] = coin = rng.random()
            u[1, 0] = rng.random() if coin >= 0.5 else 0.0
    radii = np.asarray(bounds, dtype=float)[:, None] * np.where(
        uniforms[:, 0] < 0.5, 1.0, uniforms[:, 1])  # a zero bound's radii are 0
    norms = np.sqrt(sq_norm(slab))
    # a zero row stays zero whatever it is scaled by, so it keeps its radius
    slab *= np.divide(radii, norms, out=radii, where=norms > 0.0)[..., None]
    slab += base[:, None]
    if exact:  # adding their +0.0 turned a -0.0 into 0.0
        slab[exact] = base[exact, None]
    return slab


def spectral_norm(operator):
    """Largest singular value of a matrix, rounded up so it is never below
    the true one.

    The singular values come from one LAPACK SVD, whose computed top value
    can sit a few ulp below the exact one; scaling it by
    1 + max(shape) * eps lifts it over that rounding error.  Smoothness
    constants built from it are therefore upper bounds, as a certificate
    needs, and exceed the tight value by a relative few ulp only.
    """
    a = np.asarray(operator, dtype=float)
    if a.ndim != 2:
        raise ValueError("operator must be a matrix")
    return float(np.linalg.norm(a, 2) * (1.0 + max(a.shape) * np.finfo(float).eps))


@dataclass(frozen=True)
class SaddleProblem:
    """Max-type objective F(x) = max_u { G(u) + <A u, x> } with quadratic G.

    G(u) = -(kappa/2)*||u - c||**2 is strongly concave, so the inner problem
    has the closed-form maximizer u(x) = c + A.T x / kappa.  This makes
    F(x) = <A c, x> + ||A.T x||**2 / (2 kappa), a convex smooth function
    with gradient A u(x) and smoothness constant ||A||**2 / kappa.  The
    value and the maximizer share the one product A.T x.  Both take a
    point or a stack (C, n), row i bitwise the point x[i] alone: the
    products are one BLAS product per row, as problems' are.
    """

    operator: np.ndarray
    concave_center: np.ndarray
    concavity: float

    def __post_init__(self):
        _positive(concavity=self.concavity)
        if self.operator.shape[1] != self.concave_center.shape[0]:
            raise ValueError("operator and concave_center dimensions differ")

    def value_and_maximizer(self, x):
        x = np.asarray(x, dtype=float)
        atx = _matvec(self.operator.T, x)
        value = (_row_dot(x, self.operator @ self.concave_center)
                 + sq_norm(atx) / (2.0 * self.concavity))
        return (float(value) if x.ndim == 1 else value), self.concave_center + atx / self.concavity

    def value(self, x):
        # the maximizer costs no further pass over the operator
        return self.value_and_maximizer(x)[0]


def _shared(oracles, name):
    """The one object, such as a problem, that every oracle of a batch
    answers from under name."""
    first = getattr(oracles[0], name)
    if any(getattr(o, name) is not first for o in oracles):
        raise ValueError(f"the oracles of a batch must share one {name}")
    return first


class Oracle:
    """The base of every family: a family defines the static method answers
    (see the module docstring), and evaluate is its answer to a stack of one."""

    def evaluate(self, x, rng=None):
        values, candidates, _ = evaluate_rows([self], np.asarray(x, dtype=float)[None], [rng])
        return float(values[0]), candidates[0]


class ModelOracle(Oracle):
    """An oracle that answers from the exact value and gradient of self.problem.

    Its answer is the exact value and self.directions candidates, the exact
    gradient perturbed under self.noise_bound; the base's bound is zero, so
    an exact answer draws nothing.  A batch shares one problem and one
    candidate count: one value_and_gradient call on the stack (C, n) feeds
    the values and gradients from one residual, and one perturbed call
    gives every candidate, a row with a zero bound the exact gradient
    bitwise.
    """

    noise_bound = 0.0
    directions = 1

    @staticmethod
    def answers(oracles, points, rngs):
        counts = sorted({o.directions for o in oracles})
        if len(counts) > 1:
            raise ValueError("every answer of a batch must offer the same number of candidate"
                             f" gradients; these offer {counts}")
        values, exact = _shared(oracles, "problem").value_and_gradient(points)
        return values, perturbed(exact, rngs, [o.noise_bound for o in oracles], counts[0])


def evaluate_rows(oracles, points, rngs):
    """Answers of a batch of oracles, row i of points for oracles[i] with
    the generator rngs[i], by one call of the answers they share; a batch
    mixing answers raises ValueError.

    Returns (values (C,), candidates (C, m, n), finite (C,)): row i's value
    and candidate gradients, the first being the answer's gradient, and
    whether all of them are finite, so a non-finite answer marks only its
    row.  An answer that is not C values and (C, m, n) candidates, one m
    for the batch, raises ValueError.
    """
    answers = type(oracles[0]).answers
    if any(type(o).answers is not answers for o in oracles):
        raise ValueError("the oracles of a batch must share one stacked answer")
    values, candidates = answers(oracles, points, rngs)
    values = np.asarray(values, dtype=float)
    candidates = np.asarray(candidates, dtype=float)
    shape = candidates.shape
    if values.shape != (len(points),) or shape[:1] + shape[2:] != points.shape:
        raise ValueError(f"an answer to a stack {points.shape} must give {len(points)} values"
                         f" and (C, m, n) candidates, not {values.shape} and {shape}")
    return values, candidates, np.isfinite(values) & np.isfinite(candidates).all(axis=(1, 2))


class ExactOracle(ModelOracle):
    """Exact value and gradient wrapped in the oracle interface.

    The zero-delta certificate is valid at any degree, so the degree is
    whatever the caller wants to run with.  It claims the convex lower
    bound when the problem is convex.
    """

    def __init__(self, problem, degree=1.0):
        self.problem = problem
        self.certificate = OracleCertificate(delta=0.0, lipschitz=float(problem.lipschitz),
                                             degree=float(degree),
                                             convex_lower_bound=problem.convex)


class NoisyGradientOracle(ModelOracle):
    """Gradient corrupted by additive noise with a hard norm cap.

    The natural certificate has degree 1 with delta equal to the noise
    bound.  On a domain of known diameter D the same answer also certifies
    any degree q in [0, 1] with delta scaled by D**(1-q), because
    ||x - y|| <= D there.  Degrees above 1 are not certifiable this way.

    With directions = m the exact gradient is perturbed by m noise vectors,
    all under the same certificate: the first gives the gradient, the
    others the alternatives.  This is how the worst-case sweep picks its
    noise direction.  At m = 1 the one vector is drawn as it always was,
    the stream the gate's seeded runs ride; at m > 1 the m directions come
    as one block and then their radii's 2m uniforms (see perturbed), so the
    first candidate is not the m = 1 draw.
    """

    def __init__(self, problem, noise_bound, degree=1.0, diameter=None, directions=1):
        q = float(degree)
        if q != 1.0 and not 0.0 <= q < 1.0:
            raise ValueError("degree must lie in [0, 1] for a noisy-gradient oracle")
        if q != 1.0 and diameter is None:
            raise ValueError("degree < 1 needs a domain diameter to rescale delta")
        if diameter is not None:
            _positive(diameter=diameter)
        _nonnegative(noise_bound=noise_bound)
        self.problem = problem
        self.noise_bound = float(noise_bound)
        self.directions = _count(directions, "directions")
        delta = self.noise_bound if q == 1.0 else self.noise_bound * float(diameter) ** (1.0 - q)
        self.certificate = OracleCertificate(delta=delta, lipschitz=float(problem.lipschitz),
                                             degree=q)


class ShiftedPointOracle(Oracle):
    """Exact gradient evaluated at a point displaced by at most the shift bound.

    The value stays the exact F(x); only the gradient is off.  Smoothness
    turns the displacement into a degree-1 certificate with
    delta = L * shift, keeping L itself unchanged.  A batch over one
    problem answers with one stacked value call and one stacked gradient
    call at the points one perturbed call displaces; a zero shift queries
    the point itself bitwise, -0.0 included.
    """

    def __init__(self, problem, shift_bound):
        _nonnegative(shift_bound=shift_bound)
        self.problem = problem
        self.shift_bound = float(shift_bound)
        lip = float(problem.lipschitz)
        self.certificate = OracleCertificate(delta=lip * self.shift_bound, lipschitz=lip,
                                             degree=1.0)

    @staticmethod
    def answers(oracles, points, rngs):
        problem = _shared(oracles, "problem")
        shifted = perturbed(points, rngs, [o.shift_bound for o in oracles])[:, 0]
        return problem.value(points), problem.gradient(shifted)[:, None]


class MinibatchOracle(Oracle):
    """Subsampled gradient of a finite sum over random fixed-size batches.

    The gradient is the batch average and the value is the exact mean of
    all components.  No certificate can be derived from the batch alone
    (the error is probabilistic), so the claimed constants are passed
    through and certify_oracle is the judge.  A full batch needs no
    generator and reproduces the exact mean gradient.  The components take
    one point each, so a stack is answered row by row.
    """

    def __init__(self, components, batch_size, claimed_delta=0.0, claimed_lipschitz=1.0,
                 degree=1.0):
        self.components = list(components)
        self.batch_size = _count(batch_size, "batch_size")
        if self.batch_size > len(self.components):
            raise ValueError("batch_size out of range")
        self.certificate = OracleCertificate(delta=float(claimed_delta),
                                             lipschitz=float(claimed_lipschitz),
                                             degree=float(degree))

    @staticmethod
    def answers(oracles, points, rngs):
        values, gradients = [], []
        for oracle, x, rng in zip(oracles, points, rngs):
            components, size = oracle.components, oracle.batch_size
            n = len(components)
            if size == n:
                batch = range(n)
            else:
                if rng is None:
                    raise ValueError("a generator is required to sample batches")
                batch = rng.choice(n, size=size, replace=False)
            gradients.append(sum(components[j].gradient(x) for j in batch) / size)
            values.append(sum(float(c.value(x)) for c in components) / n)
        return values, np.array(gradients)[:, None]


class SaddleOracle(Oracle):
    """Gradient through an approximately solved inner maximization.

    The inner problem is solved in closed form and the approximation error
    is injected deliberately: the returned gradient is A @ u with u within
    the inner accuracy of the true maximizer.  Certifies at degree 1 with
    delta = inner_accuracy * ||A|| and L = ||A||**2 / kappa, where ||A|| is
    spectral_norm's upper bound, so both constants are upper bounds too.
    An exact inner solution makes the answer the true gradient of a convex
    function, so the certificate then claims the convex lower bound too.
    A batch over one saddle answers with one stacked value_and_maximizer
    call and one perturbed call on the maximizers; an exact inner solution
    keeps its maximizer bitwise.
    """

    def __init__(self, saddle, inner_accuracy):
        _nonnegative(inner_accuracy=inner_accuracy)
        self.saddle = saddle
        self.inner_accuracy = float(inner_accuracy)
        self.operator_norm = spectral_norm(saddle.operator)
        self.certificate = OracleCertificate(
            delta=self.inner_accuracy * self.operator_norm,
            lipschitz=self.operator_norm ** 2 / saddle.concavity, degree=1.0,
            convex_lower_bound=(self.inner_accuracy == 0.0))

    @staticmethod
    def answers(oracles, points, rngs):
        saddle = _shared(oracles, "saddle")
        values, u = saddle.value_and_maximizer(points)
        u = perturbed(u, rngs, [o.inner_accuracy for o in oracles])[:, 0]
        return values, _matvec(saddle.operator, u)[:, None]


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
    worst_pair: tuple
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

    All pairs (x, y) are sampled first; one evaluate_rows call then answers
    every y, a non-finite answer raising ValueError.  exact_value takes one
    point and gives a finite F(x), called once per pair, so an F that takes
    one point at a time, such as a mean over single-point components, can
    serve.  Every pair and candidate gradient is checked at
    once, in (pairs, m) arrays, so memory grows with pairs * m * n: the
    violations F(x) - F(y) - <g, x - y> - (L/2)*r**2 - delta*r**q, r = ||x - y||,
    must not exceed the tolerance, nor the gaps F(x) - F(y) - <g, x - y> fall
    below minus it under a convex lower bound claim.  The witnesses are the
    first pairs, in (pair, candidate) order, of the largest violation and of
    the smallest gap.
    """
    pairs = _count(pairs, "pairs")
    # an infinite tolerance would certify any claim and a NaN one refute every claim
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    cert = oracle.certificate
    xs, ys = (np.array(side, dtype=float)
              for side in zip(*[domain_sampler(rng) for _ in range(pairs)]))
    values, candidates, finite = evaluate_rows([oracle] * len(ys), ys, [rng] * len(ys))
    if not finite.all():
        raise ValueError("oracle answer is not finite")
    exact = np.array([float(exact_value(x)) for x in xs])
    if not np.isfinite(exact).all():  # a bad F(x) would be blamed on the oracle
        raise ValueError("exact value is not finite")
    diffs = xs - ys
    dist = np.sqrt(sq_norm(diffs))
    gaps = (exact - values)[:, None] - _row_dot(candidates, diffs[:, None])
    violations = (gaps - (0.5 * cert.lipschitz * dist ** 2)[:, None]
                  - (cert.delta * dist ** cert.degree)[:, None])
    count = candidates.shape[1]
    worst, lowest = violations.argmax() // count, gaps.argmin() // count
    max_violation, min_lower = float(violations.max()), float(gaps.min())
    lower_checked = cert.convex_lower_bound
    certified = max_violation <= tolerance and (not lower_checked or min_lower >= -tolerance)
    return CertificationReport(certified=certified, pairs=pairs, tolerance=float(tolerance),
                               max_violation=max_violation, worst_pair=(xs[worst], ys[worst]),
                               lower_bound_checked=lower_checked,
                               min_lower_slack=min_lower if lower_checked else math.nan,
                               worst_lower_pair=(xs[lowest], ys[lowest]) if lower_checked
                               else None)
