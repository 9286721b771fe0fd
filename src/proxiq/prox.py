"""The simple convex term h and its proximal map.

h is the indicator of the l1 ball of radius R in (0, inf], so R = inf is
h = 0.  Its proximal map reads no step size and is exact: sort-based
projection onto the ball, which copies every row already inside.  Every
prox output lies in the domain, so the solvers take h as 0 there and
never evaluate it.  The projection works on a stack of points (C, n) row
by row, so the batched solver treats a run alone and in a batch alike.
"""

from __future__ import annotations

import math
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
    rows, so row i does not depend on the other rows.  At radius inf every
    row is inside, NaN and infinite entries included, and the output is a
    bitwise copy.
    """
    if not radius > 0.0:  # NaN fails too
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
    """The simple convex term h shared by the solvers: the indicator of
    {x : ||x||_1 <= radius}, zero on its domain and +inf off it.

    radius lies in (0, inf]; the default inf is h = 0.  The solvers take
    its prox as project_l1_rows or project_l1_ball at this radius.
    """

    radius: float = math.inf

    def __post_init__(self):
        if not self.radius > 0.0:  # NaN fails too
            raise ValueError("radius must be positive")

    @staticmethod
    def zero():
        return ProxFunction()

    @staticmethod
    def l1_ball(radius):
        return ProxFunction(float(radius))

    def contains(self, x):
        """Domain membership, with slack so freshly projected points pass."""
        return float(np.abs(np.asarray(x)).sum()) <= _slack_radius(self.radius)

    def value(self, x):
        return 0.0 if self.contains(x) else np.inf
