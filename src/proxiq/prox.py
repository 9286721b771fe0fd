"""Simple convex terms and their proximal maps.

Everything here is exact: soft thresholding for the l1 norm, sort-based
projection for the l1 ball, and the identity for the zero function.  The
maps work on a stack of points (C, n) row by row, so the batched solver
treats a run alone and inside a batch the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def soft_threshold(x, threshold):
    """Coordinatewise shrinkage toward zero by the given amount."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def project_l1_ball(x, radius):
    """Euclidean projection of one point onto the l1 ball of the given radius.

    The row-wise projection of a stack of one, so the two agree bit for
    bit.  Interior points are returned as they are (as a fresh copy).
    """
    return project_l1_rows(np.asarray(x, dtype=float)[None], radius)[0]


# relative slack of l1-ball membership, so that fresh projections, whose l1
# norm can exceed the radius by rounding, count as inside
_SLACK = 1e-9


def _slack_radius(radius):
    """The largest l1 norm that counts as inside the ball of this radius."""
    return radius * (1.0 + _SLACK)


def project_l1_rows(points, radius):
    """Projection of each row of a stack (C, n) onto the l1 ball.

    Rows in the ball, within the slack ProxFunction.contains allows, come
    back as they are, in a fresh array, so every output is a fixed point.
    The rest are projected by sort and threshold in O(n log n) (Duchi et
    al., ICML 2008): the projection is soft_threshold(x, t) with t the
    smallest shift making the result feasible.  Every step runs along the
    rows, so row i does not depend on the other rows.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    points = np.asarray(points, dtype=float)
    out = points.copy()
    outside = np.abs(points).sum(axis=1) > _slack_radius(radius)
    if outside.any():
        out[outside] = _shrink_onto_ball(points[outside], radius)
    return out


def _shrink_onto_ball(rows, radius):
    """Projections of rows that lie outside the ball."""
    sorted_mags = np.sort(np.abs(rows), axis=1)[:, ::-1]
    csum = np.cumsum(sorted_mags, axis=1)
    counts = np.arange(1, rows.shape[1] + 1)
    # support size = largest m with sorted_mags[m-1] > (csum[m-1] - radius)/m
    m = np.count_nonzero(sorted_mags * counts > csum - radius, axis=1)
    threshold = (csum[np.arange(len(rows)), m - 1] - radius) / m
    out = soft_threshold(rows, threshold[:, None])
    # (csum - radius)/m cancels when ||x||_1 is far above the radius, and the
    # output can then overshoot the ball by about ulp(||x||_1), beyond the
    # slack; raise the threshold of such a row until its l1 norm is at most
    # the radius.  An output within the slack is kept as computed.
    norms = np.abs(out).sum(axis=1)
    over = norms > _slack_radius(radius)
    while over.any():
        support = np.count_nonzero(out[over], axis=1)
        threshold[over] = np.maximum(threshold[over] + (norms[over] - radius) / support,
                                     np.nextafter(threshold[over], np.inf))
        out[over] = soft_threshold(rows[over], threshold[over, None])
        norms[over] = np.abs(out[over]).sum(axis=1)
        over &= norms > radius
    return out


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

    def contains(self, x):
        """Domain membership, with slack so freshly projected points pass."""
        if self.kind != "l1_ball":
            return True
        return float(np.abs(np.asarray(x)).sum()) <= _slack_radius(self.radius)

    def value(self, x):
        return self.value_on_domain(x) if self.contains(x) else np.inf

    def value_on_domain(self, x):
        """h(x) for an x known to lie in dom h, such as a prox output; one
        value per row for a stack.

        The indicator is 0 there, so no membership check is paid.
        """
        if self.kind == "l1_norm":
            norms = np.abs(np.asarray(x)).sum(axis=-1)
            return self.weight * (float(norms) if norms.ndim == 0 else norms)
        return 0.0


def prox_apply(h, gamma, x):
    """Proximal map of gamma*h at one point x: prox_rows on a stack of one."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return prox_rows(h, np.array([gamma]), np.asarray(x, dtype=float)[None])[0]


def prox_rows(h, gammas, points):
    """Proximal map of gammas[i]*h at each row i of a stack (C, n), exact for
    every supported kind; row i is the prox of that row alone."""
    points = np.asarray(points, dtype=float)
    if h.kind == "zero":
        return points.copy()
    if h.kind == "l1_norm":
        return soft_threshold(points, gammas[:, None] * h.weight)
    return project_l1_rows(points, h.radius)
