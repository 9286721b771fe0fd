"""Benchmark problem instances with known structure.

Three families: a nonconvex smooth logarithmic least-squares model over an
l1 ball, a convex quadratic with a known minimizer and controlled
conditioning, and a separable power objective whose gradient is Holder
continuous.  Each instance knows its own smoothness data, so oracles and
solvers never have to guess constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .oracle import spectral_norm


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
    the true constant.
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
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")

    @property
    def dim(self):
        return self.rows.shape[1]

    @cached_property
    def lipschitz(self):
        return float((self.rows ** 2).sum())

    def value(self, x):
        r = self.rows @ np.asarray(x, dtype=float) - self.targets
        return float(np.log1p(r * r).sum())

    def gradient(self, x):
        r = self.rows @ np.asarray(x, dtype=float) - self.targets
        return self.rows.T @ (2.0 * r / (1.0 + r * r))


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
    if n < 1 or N < 1:
        raise ValueError("dimensions must be at least 1")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((N, n)) / np.sqrt(n)
    x_true = sample_l1_ball(rng, n, radius)
    clean = rows @ x_true
    if noise_level is None:
        noise_level = 0.01 * float(np.linalg.norm(clean)) / np.sqrt(N)
    targets = clean + float(noise_level) * rng.standard_normal(N)
    return LogSumProblem(rows=rows, targets=targets, radius=float(radius), x_true=x_true)


@dataclass(frozen=True)
class QuadraticProblem:
    """Least squares 0.5*||B x - c||**2 with a known minimizer."""

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
        r = self.operator @ np.asarray(x, dtype=float) - self.offset
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.operator.T @ (self.operator @ np.asarray(x, dtype=float) - self.offset)


def generate_quadratic_instance(n, conditioning=10.0, seed=0):
    """Random least-squares instance with unit largest singular value.

    conditioning is the ratio of the largest to smallest singular value of
    the operator (so the normal matrix has eigenvalue ratio conditioning**2)
    with the spectrum log-spaced in between.  The offset is chosen so the
    minimizer is known exactly and the optimal value is zero.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if conditioning < 1.0:
        raise ValueError("conditioning must be at least 1")
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
        if self.holder_constant <= 0.0:
            raise ValueError("holder_constant must be positive")

    @property
    def dim(self):
        return self.centers.shape[0]

    def value(self, x):
        d = np.abs(np.asarray(x, dtype=float) - self.centers)
        p = 1.0 + self.exponent
        return float((d ** p).sum() / p)

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.centers
        return np.sign(d) * np.abs(d) ** self.exponent


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
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=n)
    constant = 2.0 ** (1.0 - nu) * n ** ((1.0 - nu) / 2.0)
    return HolderPowerProblem(centers=centers, exponent=float(nu), holder_constant=constant)
