"""Closed-form convergence bounds and optimal-parameter formulas.

The nonconvex bounds control the best squared gradient-mapping norm seen so
far; the convex ones control objective gaps of averaged or accelerated
iterates.  Every evaluator is vectorized in the iteration counter k and
accepts real-valued k so curves can be sampled smoothly.  Parameters are
validated strictly; out-of-range inputs raise instead of being clamped.
"""

from __future__ import annotations

import numpy as np

from .oracle import holder_smoothing_constant


def _ret(values):
    # hand back a plain float for scalar queries, an array otherwise
    values = np.asarray(values, dtype=float)
    return float(values) if values.ndim == 0 else values


def _check_degree(degree, lo=0.0, hi=2.0):
    q = float(degree)
    if not lo <= q < hi:
        raise ValueError(f"degree must lie in [{lo:g}, {hi:g})")
    return q


def bound_nonconvex_schedule(lipschitz, rho, degree, delta, beta, zeta, gap, k):
    """Best gradient-mapping bound under decaying accuracy and step schedules.

    Covers runs with delta_j = delta/(j+1)**(beta*(2-q)/2) and
    alpha_j = 1/((L + q*rho)*(j+1)**zeta):

        2*(L+q*rho)*gap / ((1-zeta)*(k+1)**(1-zeta))
        + (2-q)*(L+q*rho)*delta**(2/(2-q))
          / ((1-zeta)*(1-beta)*rho**(q/(2-q))*(k+1)**(beta-zeta)).

    gap is f(x0) minus a lower bound on the objective.  Requires beta and
    zeta in [0, 1); the noise term decays only when beta > zeta.
    """
    q = _check_degree(degree)
    if not 0.0 <= beta < 1.0 or not 0.0 <= zeta < 1.0:
        raise ValueError("beta and zeta must lie in [0, 1)")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if gap < 0.0:
        raise ValueError("gap must be nonnegative")
    k = np.asarray(k, dtype=float)
    smooth = lipschitz + q * rho
    lead = 2.0 * smooth * gap / ((1.0 - zeta) * (k + 1.0) ** (1.0 - zeta))
    noise = ((2.0 - q) * smooth * delta ** (2.0 / (2.0 - q))
             / ((1.0 - zeta) * (1.0 - beta) * rho ** (q / (2.0 - q)) * (k + 1.0) ** (beta - zeta)))
    return _ret(lead + noise)


def bound_nonconvex_const(lipschitz, degree, delta, gap, k):
    """Constant-schedule bound at the canonical weight rho = L.

    2*(q+1)*L*gap/(k+1) + (q+1)*(2-q)*L**((2-2q)/(2-q))*delta**(2/(2-q)).
    The second term is the noise plateau the iteration cannot descend below.
    """
    q = _check_degree(degree)
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if gap < 0.0:
        raise ValueError("gap must be nonnegative")
    k = np.asarray(k, dtype=float)
    lead = 2.0 * (q + 1.0) * lipschitz * gap / (k + 1.0)
    return _ret(lead + nonconvex_plateau(lipschitz, q, delta))


def nonconvex_plateau(lipschitz, degree, delta):
    """Noise floor of the constant-schedule bound: its k-independent term."""
    q = _check_degree(degree)
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    return ((q + 1.0) * (2.0 - q) * lipschitz ** ((2.0 - 2.0 * q) / (2.0 - q))
            * delta ** (2.0 / (2.0 - q)))


def rho_opt_horizon(lipschitz, degree, delta, gap, horizon):
    """Weight minimizing the flat-schedule bound at a fixed horizon (q >= 1).

    rho = L**((2-q)/2) * delta * (horizon+1)**((2-q)/2) / (2*gap)**((2-q)/2).
    Degenerates to 0 as delta goes to 0, recovering the exact-oracle step.
    """
    q = _check_degree(degree, lo=1.0)
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    horizon = np.asarray(horizon, dtype=float)
    e = (2.0 - q) / 2.0
    return _ret(lipschitz ** e * float(delta) * (horizon + 1.0) ** e / (2.0 * gap) ** e)


def bound_nonconvex_horizon(lipschitz, degree, delta, gap, k):
    """Flat-schedule bound evaluated at the horizon-optimal weight.

    Exact expansion of bound_nonconvex_schedule(beta=zeta=0) at
    rho_opt_horizon(..., k):

        2*L*gap/(k+1)
        + 2*delta*L**(1-q/2)*(2*gap)**(q/2)/(k+1)**(q/2)
        + q*(2-q)*delta**2*L**(1-q)*(2*gap)**(q-1)/(k+1)**(q-1).

    The middle coefficient is q + (2-q) = 2: the two pieces come from the
    step-size and accuracy terms respectively and always sum to 2.
    """
    q = _check_degree(degree, lo=1.0)
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    k = np.asarray(k, dtype=float)
    t1 = 2.0 * lipschitz * gap / (k + 1.0)
    t2 = (2.0 * delta * lipschitz ** (1.0 - q / 2.0) * (2.0 * gap) ** (q / 2.0)
          / (k + 1.0) ** (q / 2.0))
    t3 = (q * (2.0 - q) * delta ** 2 * lipschitz ** (1.0 - q) * (2.0 * gap) ** (q - 1.0)
          / (k + 1.0) ** (q - 1.0))
    return _ret(t1 + t2 + t3)


def bound_convex_ergodic(lipschitz, degree, delta, radius, k, rho=None):
    """Objective-gap bound for the averaged iterates of the plain method, k >= 1.

    With an explicit rho:  (L+q*rho)*R**2/(2k) + (2-q)*delta**(2/(2-q))/(2*rho**(q/(2-q))).
    With rho omitted the weight minimizing the bound is substituted, giving
    L*R**2/(2k) + (2+q)*delta*R**q/(2*k**(q/2)).
    """
    q = _check_degree(degree)
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    k = np.asarray(k, dtype=float)
    if np.any(k < 1.0):
        raise ValueError("k must be at least 1")
    if rho is None:
        return _ret(lipschitz * radius ** 2 / (2.0 * k)
                    + (2.0 + q) * delta * radius ** q / (2.0 * k ** (q / 2.0)))
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return _ret((lipschitz + q * rho) * radius ** 2 / (2.0 * k)
                + (2.0 - q) * delta ** (2.0 / (2.0 - q)) / (2.0 * rho ** (q / (2.0 - q))))


def rho_opt_fast(radius, degree, delta, k):
    """Weight minimizing the accelerated bound at iteration k.

    rho = ((k+1)*(k+2)*(k+3))**((2-q)/2) * delta / (8*R**2)**((2-q)/2).
    """
    q = _check_degree(degree)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    k = np.asarray(k, dtype=float)
    e = (2.0 - q) / 2.0
    return _ret(((k + 1.0) * (k + 2.0) * (k + 3.0)) ** e * float(delta)
                / (8.0 * radius ** 2) ** e)


def bound_fast_convex(lipschitz, degree, delta, radius, k, rho=None):
    """Objective-gap bound for the accelerated method at iteration k >= 0.

    With an explicit rho:
        4*(L+q*rho)*R**2/((k+1)*(k+2)) + (k+3)*(2-q)*delta**(2/(2-q))/(2*rho**(q/(2-q))).
    With rho omitted the optimal weight is substituted:
        4*L*R**2/((k+1)*(k+2)) + 8**(q/2)*R**q*(k+3)*delta/((k+1)*(k+2)*(k+3))**(q/2).
    The accuracy term grows with k like k**(1 - 3q/2): acceleration
    accumulates oracle error unless q > 2/3.
    """
    q = _check_degree(degree)
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("k must be nonnegative")
    lead = 4.0 * lipschitz * radius ** 2 / ((k + 1.0) * (k + 2.0))
    if rho is None:
        noise = (8.0 ** (q / 2.0) * radius ** q * (k + 3.0) * delta
                 / ((k + 1.0) * (k + 2.0) * (k + 3.0)) ** (q / 2.0))
        return _ret(lead + noise)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return _ret(4.0 * (lipschitz + q * rho) * radius ** 2 / ((k + 1.0) * (k + 2.0))
                + (k + 3.0) * (2.0 - q) * delta ** (2.0 / (2.0 - q))
                / (2.0 * rho ** (q / (2.0 - q))))


def holder_delta_opt(holder_constant, exponent, degree, gap, k):
    """Best oracle accuracy for a weakly smooth objective at horizon k.

    Substituting the delta-dependent smoothness constant into the
    constant-schedule nonconvex bound leaves two competing terms,

        C1*delta**(-a)/(k+1) + C2*delta**b,
        a = (1-nu)/(1+nu-q),  b = 2*nu/(1+nu-q),

    with C1 = 2*(q+1)*gap*C and C2 = (q+1)*(2-q)*C**((2-2q)/(2-q)) built
    from the smoothing coefficient C, the smoothing constant at delta = 1.
    Returns the stationary delta and the bound value there, as a pair.  At
    nu = 1 the best delta is 0 and the bound is C1/(k+1); the resulting
    rate in k is k**(-2*nu/(1+nu)).
    """
    nu = float(exponent)
    q = float(degree)
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    k = np.asarray(k, dtype=float)
    coeff = holder_smoothing_constant(holder_constant, nu, q, 1.0)
    c1 = 2.0 * (q + 1.0) * gap * coeff
    if nu == 1.0:
        zeros = np.zeros_like(k)
        return _ret(zeros), _ret(c1 / (k + 1.0))
    a = (1.0 - nu) / (1.0 + nu - q)
    b = 2.0 * nu / (1.0 + nu - q)
    c2 = (q + 1.0) * (2.0 - q) * coeff ** ((2.0 - 2.0 * q) / (2.0 - q))
    delta = (a * c1 / ((k + 1.0) * b * c2)) ** (1.0 / (a + b))
    bound = c1 * delta ** (-a) / (k + 1.0) + c2 * delta ** b
    return _ret(delta), _ret(bound)


# each named curve: its bound function, called as bound(k=ks, **parameters),
# and the parameter names it takes besides k
_CURVES = {
    "nonconvex_schedule": (bound_nonconvex_schedule,
                           ("lipschitz", "rho", "degree", "delta", "beta", "zeta", "gap")),
    "nonconvex_const": (bound_nonconvex_const, ("lipschitz", "degree", "delta", "gap")),
    "nonconvex_horizon": (bound_nonconvex_horizon, ("lipschitz", "degree", "delta", "gap")),
    "convex_ergodic": (bound_convex_ergodic, ("lipschitz", "degree", "delta", "radius", "rho")),
    "convex_ergodic_opt_rho": (bound_convex_ergodic, ("lipschitz", "degree", "delta", "radius")),
    "fast_convex": (bound_fast_convex, ("lipschitz", "degree", "delta", "radius", "rho")),
    "fast_convex_opt_rho": (bound_fast_convex, ("lipschitz", "degree", "delta", "radius")),
    "holder_rate": (lambda **p: holder_delta_opt(**p)[1],
                    ("holder_constant", "exponent", "degree", "gap")),
}

CURVE_KINDS = tuple(_CURVES)


def write_csv(path, header, columns):
    """Write equal-length columns as CSV under a header of column names.

    Numbers are written %.17g, which round-trips every finite double.  A
    column whose first entry is a string is text and written verbatim, so
    its entries must hold no comma or line break.  Lines end in a bare
    newline on every platform.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns differ in length")
    fmt = ",".join("{}" if c and isinstance(c[0], str) else "{:.17g}" for c in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt.format(*row) for row in zip(*cols))


def sample_curve(kind, parameters, ks):
    """Values of one named bound over an array of iteration counts.

    parameters must supply exactly the keys the kind needs; unknown or
    missing keys raise.
    """
    if kind not in _CURVES:
        raise ValueError(f"unknown curve kind {kind!r}")
    bound, required = _CURVES[kind]
    unknown = set(parameters) - set(required)
    if unknown:
        raise ValueError(f"unknown parameters for {kind}: {sorted(unknown)}")
    missing = set(required) - set(parameters)
    if missing:
        raise ValueError(f"missing parameters for {kind}: {sorted(missing)}")
    p = {name: float(parameters[name]) for name in required}
    return np.asarray(bound(k=np.asarray(ks, dtype=float), **p), dtype=float)
