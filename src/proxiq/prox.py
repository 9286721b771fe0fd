"""Simple convex terms and their proximal maps.

Everything here is exact: soft thresholding for the l1 norm, sort-based
projection for the l1 ball, and the identity for the zero function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def soft_threshold(x, threshold):
    """Coordinatewise shrinkage toward zero by the given amount."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def project_l1_ball(x, radius):
    """Euclidean projection onto the l1 ball of the given radius.

    Sort-and-threshold in O(n log n): the projection is soft_threshold(x, t)
    with t the smallest shift making the result feasible.  Interior points
    are returned as they are (as a fresh copy).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float)
    mags = np.abs(x)
    if float(mags.sum()) <= radius:
        return x.copy()
    sorted_mags = np.sort(mags)[::-1]
    csum = np.cumsum(sorted_mags)
    counts = np.arange(1, x.size + 1)
    # support size = largest m with sorted_mags[m-1] > (csum[m-1] - radius)/m
    m = int(np.count_nonzero(sorted_mags * counts > csum - radius))
    threshold = (csum[m - 1] - radius) / m
    return soft_threshold(x, threshold)


@dataclass(frozen=True)
class ProxFunction:
    """One of the simple convex terms h shared by the solvers.

    kind 'zero' is h = 0, 'l1_norm' is h(x) = weight*||x||_1, and 'l1_ball'
    is the indicator of {x : ||x||_1 <= radius}.
    """

    kind: str
    weight: float = 0.0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "l1_norm", "l1_ball"):
            raise ValueError(f"unknown prox kind {self.kind!r}")
        if self.kind == "l1_norm" and self.weight <= 0.0:
            raise ValueError("l1_norm needs a positive weight")
        if self.kind == "l1_ball" and self.radius <= 0.0:
            raise ValueError("l1_ball needs a positive radius")

    @staticmethod
    def zero():
        return ProxFunction("zero")

    @staticmethod
    def l1_norm(weight):
        return ProxFunction("l1_norm", weight=float(weight))

    @staticmethod
    def l1_ball(radius):
        return ProxFunction("l1_ball", radius=float(radius))

    def contains(self, x, tol_scale=1e-9):
        """Domain membership, with slack so freshly projected points pass."""
        if self.kind != "l1_ball":
            return True
        norm = float(np.abs(np.asarray(x)).sum())
        return norm <= self.radius * (1.0 + tol_scale) + tol_scale

    def value(self, x):
        if self.kind == "zero":
            return 0.0
        if self.kind == "l1_norm":
            return self.weight * float(np.abs(np.asarray(x)).sum())
        return 0.0 if self.contains(x) else np.inf


def prox_apply(h, gamma, x):
    """Proximal map of gamma*h at x, exact for every supported kind."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    if h.kind == "zero":
        return x.copy()
    if h.kind == "l1_norm":
        return soft_threshold(x, gamma * h.weight)
    return project_l1_ball(x, h.radius)
