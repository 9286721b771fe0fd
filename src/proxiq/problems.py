"""Benchmark problem instances with known structure.

Three families: a nonconvex smooth logarithmic least-squares model over an
l1 ball, a convex quadratic with a known minimizer and controlled
conditioning, and a separable power objective whose gradient is Holder
continuous.  Each instance knows its own smoothness data, so oracles and
solvers never have to guess constants.

Every instance offers value(x) and value_and_gradient(x).  The fused call
computes the shared intermediate (the residual of the logsum and quadratic
models, x - c of the power objective) once and feeds both the value and the
gradient from it, as an oracle answering at x needs both; value(x) alone
is one pass for callers that need only F.  Both return bitwise the same
value, and gradient(x) is the second half of the fused answer.

Both also take a stack of points (C, n) and then return C values and a
(C, n) gradient, row i bitwise equal to the answer at the point x[i]
alone: products with a matrix are stacked matrix-vector products, and
sums run along the last axis.  One GEMM over the stack would be faster on
paper but is not bitwise equal, and its rounding changes with C.

The logsum constant ||rows||_F**2 is summed leaf by leaf in a small reused
buffer instead of from a squared copy of rows, in the order NumPy's own
pairwise sum takes, so it is bitwise float((rows ** 2).sum()).  That
equality rests on NumPy's summation order, which is not a documented
interface; a property test in tests/test_problems.py compares the two on
shapes around the leaf size and would fail if that order changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .oracle import _count, _finite, _matvec, _positive, spectral_norm, sq_norm


def _per_point(values):
    """A reduction over the last axis: a float for one point, an array for a stack."""
    return float(values) if values.ndim == 0 else values


# elements per np.add.reduce call in _squared_frobenius: a 256 KiB buffer
_LEAF = 1 << 15


def _squared_frobenius(matrix):
    """float((matrix ** 2).sum()), bitwise, without a temporary of matrix's size.

    NumPy's float64 add-reduce over a contiguous range is one pairwise sum:
    a range of n > 128 elements splits at n2 = n//2 - (n//2) % 8 and the
    sums of the two parts are added.  This makes the same splits down to
    ranges of at most _LEAF elements, squares each such range into one
    reused buffer and leaves its sum to np.add.reduce, so every addition
    happens as in NumPy's own reduction.  The elements are read in memory
    order, as (matrix ** 2).sum() reads them; only a matrix that is
    contiguous in neither order is copied.
    """
    flat = np.ravel(matrix, order="K")
    buffer = np.empty(min(flat.size, _LEAF))

    def pairwise(lo, hi):
        if hi - lo > _LEAF:
            half = (hi - lo) // 2
            mid = lo + half - half % 8
            return pairwise(lo, mid) + pairwise(mid, hi)
        return float(np.add.reduce(np.square(flat[lo:hi], out=buffer[:hi - lo])))

    return pairwise(0, flat.size)


@dataclass(frozen=True)
class LogSumProblem:
    """Sum of log(1 + residual**2) terms over an l1 ball.

    Nonconvex, bounded below by zero, and smooth.  The second derivative of
    log(1 + r**2) is at most 2, reached at r = 0, so the Hessian is bounded
    by 2*||rows||_2**2 in spectral norm.  The constant used here is
    L = sum_i ||row_i||**2, the squared Frobenius norm, which is a valid
    smoothness constant only where it is at least 2*||rows||_2**2.  That
    holds for generated instances with many rows (64 x 128 and larger) but
    fails for a few rows or a dominant direction: a single row gets half
    the true constant.  It is computed by _squared_frobenius, bitwise
    float((rows ** 2).sum()) with no (N, n) temporary.

    value_and_gradient computes the residual r = rows @ x - targets and
    r*r once: one pass over rows for r and one for rows.T @ (2r/(1 + r*r)).
    """

    rows: np.ndarray       # (N, n), one data vector per row
    targets: np.ndarray    # (N,)
    radius: float
    x_true: Optional[np.ndarray] = None

    convex = False
    f_lower = 0.0

    def __post_init__(self):
        if self.rows.ndim != 2 or self.targets.shape != (self.rows.shape[0],):
            raise ValueError("rows must be (N, n) with matching targets (N,)")
        if not self.radius > 0.0:  # NaN fails too
            raise ValueError("radius must be positive")

    @property
    def dim(self):
        return self.rows.shape[1]

    @cached_property
    def lipschitz(self):
        return _squared_frobenius(self.rows)

    def value(self, x):
        r = _matvec(self.rows, np.asarray(x, dtype=float)) - self.targets
        return _per_point(np.log1p(r * r).sum(axis=-1))

    def value_and_gradient(self, x):
        r = _matvec(self.rows, np.asarray(x, dtype=float)) - self.targets
        r_sq = r * r
        return (_per_point(np.log1p(r_sq).sum(axis=-1)),
                _matvec(self.rows.T, 2.0 * r / (1.0 + r_sq)))

    def gradient(self, x):
        return self.value_and_gradient(x)[1]


def sample_l1_ball(rng, dim, radius):
    """Uniform sample from the l1 ball (simplex plus radial power trick)."""
    e = rng.exponential(size=dim)
    signs = rng.choice(np.array([-1.0, 1.0]), size=dim)
    surface = signs * e / e.sum()
    return radius * surface * rng.random() ** (1.0 / dim)


def generate_logsum_instance(n, N, radius, noise_level=None, seed=0):
    """Random instance with a ground truth inside the ball.

    Rows are standard normal scaled by 1/sqrt(n); targets are the clean
    responses at x_true plus Gaussian noise.  noise_level defaults to 1% of
    the root-mean-square clean response.  Zero noise_level makes x_true a
    global minimizer with value 0.
    """
    _count(n, "n")
    _count(N, "N")
    if noise_level is not None:
        _finite("noise_level", noise_level)
    _positive(radius=radius)  # x_true would not be finite
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((N, n))
    rows /= np.sqrt(n)  # in place: one (N, n) array
    x_true = sample_l1_ball(rng, n, radius)
    clean = rows @ x_true
    if noise_level is None:
        noise_level = 0.01 * float(np.linalg.norm(clean)) / np.sqrt(N)
    targets = clean + float(noise_level) * rng.standard_normal(N)
    return LogSumProblem(rows=rows, targets=targets, radius=float(radius), x_true=x_true)


@dataclass(frozen=True)
class QuadraticProblem:
    """Least squares 0.5*||B x - c||**2 with a known minimizer.

    lipschitz is spectral_norm(B)**2, an upper bound on the smoothness
    constant ||B||**2 that exceeds it by a relative few ulp at most.
    """

    operator: np.ndarray
    offset: np.ndarray
    x_star: np.ndarray
    f_star: float

    convex = True

    @cached_property
    def lipschitz(self):
        return spectral_norm(self.operator) ** 2

    @property
    def f_lower(self):
        return self.f_star

    def value(self, x):
        r = _matvec(self.operator, np.asarray(x, dtype=float)) - self.offset
        return 0.5 * _per_point(sq_norm(r))

    def value_and_gradient(self, x):
        r = _matvec(self.operator, np.asarray(x, dtype=float)) - self.offset
        return 0.5 * _per_point(sq_norm(r)), _matvec(self.operator.T, r)

    def gradient(self, x):
        return self.value_and_gradient(x)[1]


def generate_quadratic_instance(n, conditioning=10.0, seed=0):
    """Random least-squares instance with unit largest singular value.

    conditioning is the ratio of the largest to smallest singular value of
    the operator (so the normal matrix has eigenvalue ratio conditioning**2)
    with the spectrum log-spaced in between.  The offset is chosen so the
    minimizer is known exactly and the optimal value is zero.
    """
    _count(n, "n")
    if not 1.0 <= conditioning < np.inf:  # NaN fails too
        raise ValueError("conditioning must be finite and at least 1")
    rng = np.random.default_rng(seed)
    qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if n == 1:
        sigma = np.ones(1)
    else:
        sigma = np.logspace(-np.log10(conditioning), 0.0, n)
    operator = qu @ (sigma[:, None] * qv.T)
    x_star = rng.standard_normal(n)
    offset = operator @ x_star
    return QuadraticProblem(operator=operator, offset=offset, x_star=x_star, f_star=0.0)


@dataclass(frozen=True)
class HolderPowerProblem:
    """Separable objective sum_i |x_i - c_i|**(1+nu) / (1+nu).

    Convex, minimized at the centers with value 0, and its gradient
    sign(x - c)*|x - c|**nu is Holder continuous with exponent nu and
    constant holder_constant.
    """

    centers: np.ndarray
    exponent: float
    holder_constant: float

    convex = True
    f_lower = 0.0

    def __post_init__(self):
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError("exponent must lie in (0, 1]")
        _positive(holder_constant=self.holder_constant)

    def value(self, x):
        d = np.abs(np.asarray(x, dtype=float) - self.centers)
        p = 1.0 + self.exponent
        return _per_point((d ** p).sum(axis=-1) / p)

    def value_and_gradient(self, x):
        d = np.asarray(x, dtype=float) - self.centers
        mags = np.abs(d)
        p = 1.0 + self.exponent
        return _per_point((mags ** p).sum(axis=-1) / p), np.sign(d) * mags ** self.exponent

    def gradient(self, x):
        return self.value_and_gradient(x)[1]


def generate_holder_instance(n, nu, seed=0):
    """Power objective with centers uniform in [-2, 2]**n and its exact constant.

    The Euclidean Holder constant of the gradient on all of R**n is
    H = 2**(1-nu) * n**((1-nu)/2).  Per coordinate,
    |sign(a)|a|**nu - sign(b)|b|**nu| <= 2**(1-nu)*|a - b|**nu, with equality
    at b = -a; summing squares and applying Holder's inequality across the
    n coordinates adds the factor n**((1-nu)/2), with equality at
    x - c = a*1, y - c = -a*1.  At nu = 1 the objective is a unit quadratic
    and H = 1.
    """
    _count(n, "n")
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=n)
    constant = 2.0 ** (1.0 - nu) * n ** ((1.0 - nu) / 2.0)
    return HolderPowerProblem(centers=centers, exponent=float(nu), holder_constant=constant)
