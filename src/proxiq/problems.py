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

from .oracle import HolderFunction, spectral_norm


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


def save_logsum_instance(problem, path):
    """Plain-text dump, full double precision, newline-normalized."""
    N, n = problem.rows.shape
    with open(path, "w", newline="\n") as fh:
        fh.write(f"logsum {N} {n} {problem.radius:.17g}\n")
        for row in problem.rows:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write(" ".join(f"{v:.17g}" for v in problem.targets) + "\n")
        if problem.x_true is None:
            fh.write("none\n")
        else:
            fh.write(" ".join(f"{v:.17g}" for v in problem.x_true) + "\n")


def load_logsum_instance(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "logsum":
            raise ValueError(f"not a logsum instance file: {path}")
        N, n, radius = int(header[1]), int(header[2]), float(header[3])
        rows = np.array([[float(v) for v in fh.readline().split()] for _ in range(N)])
        targets = np.array([float(v) for v in fh.readline().split()])
        tail = fh.readline().split()
        x_true = None if tail == ["none"] else np.array([float(v) for v in tail])
    if rows.shape != (N, n) or targets.shape != (N,):
        raise ValueError(f"corrupt logsum instance file: {path}")
    return LogSumProblem(rows=rows, targets=targets, radius=radius, x_true=x_true)


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
    sign(x - c)*|x - c|**nu is Holder continuous with exponent nu.  The
    stored constant is certified on the working box, not globally.
    """

    centers: np.ndarray
    exponent: float
    holder_constant: float
    box: tuple = (-4.0, 4.0)

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

    @property
    def lipschitz(self):
        # only meaningful at exponent 1; inexact certificates go through the oracle
        return self.holder_constant

    def value(self, x):
        d = np.abs(np.asarray(x, dtype=float) - self.centers)
        p = 1.0 + self.exponent
        return float((d ** p).sum() / p)

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.centers
        return np.sign(d) * np.abs(d) ** self.exponent

    def as_holder_function(self):
        return HolderFunction(exponent=self.exponent, holder_constant=self.holder_constant,
                              value=self.value, subgradient=self.gradient, convex=True)


def generate_holder_instance(n, nu, seed=0, box=(-4.0, 4.0), pairs=10000, inflation=1.1):
    """Random-center power objective with an empirically certified constant.

    At nu = 1 the objective is a unit quadratic and the constant is exactly
    1.  Otherwise the Euclidean-norm Holder ratio over the box is estimated
    from sampled pairs and inflated by 10% for safety.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    lo, hi = float(box[0]), float(box[1])
    if lo >= hi:
        raise ValueError("box must be a nonempty interval")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(lo / 2.0, hi / 2.0, size=n)
    if nu == 1.0:
        constant = 1.0
    else:
        xs = rng.uniform(lo, hi, size=(int(pairs), n))
        ys = rng.uniform(lo, hi, size=(int(pairs), n))
        gx = np.sign(xs - centers) * np.abs(xs - centers) ** nu
        gy = np.sign(ys - centers) * np.abs(ys - centers) ** nu
        num = np.linalg.norm(gx - gy, axis=1)
        den = np.linalg.norm(xs - ys, axis=1) ** nu
        keep = den > 0
        constant = float(inflation) * float((num[keep] / den[keep]).max())
    return HolderPowerProblem(centers=centers, exponent=float(nu),
                              holder_constant=constant, box=(lo, hi))
