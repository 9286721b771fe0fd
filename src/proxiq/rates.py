"""Closed-form convergence bounds and optimal-parameter formulas.

The nonconvex bounds control the best squared gradient-mapping norm seen so
far; the convex ones control objective gaps of averaged or accelerated
iterates.  Every evaluator is vectorized in the iteration counter k and
accepts real-valued k so curves can be sampled smoothly; a k or horizon
that is NaN, infinite or below the bound's floor (0, or 1 for the ergodic
bound) raises.  Parameters are
validated strictly, through the oracle module's scalar checks; out-of-range
inputs raise instead of being clamped.
"""

from __future__ import annotations

import numpy as np

from .oracle import (_check_degree, _check_k, _float_or_array, _nonnegative, _positive,
                     holder_smoothing_constant)


def bound_nonconvex_const(lipschitz, degree, delta, gap, k):
    """Constant-schedule bound at the canonical weight rho = L.

    2*(q+1)*L*gap/(k+1) + (q+1)*(2-q)*L**((2-2q)/(2-q))*delta**(2/(2-q)).
    The second term is the noise plateau the iteration cannot descend below,
    the whole bound at gap = 0.
    """
    q = _check_degree(degree)
    _positive(lipschitz=lipschitz)
    _nonnegative(delta=delta, gap=gap)
    k = _check_k(k)
    lead = 2.0 * (q + 1.0) * lipschitz * gap / (k + 1.0)
    plateau = ((q + 1.0) * (2.0 - q) * lipschitz ** ((2.0 - 2.0 * q) / (2.0 - q))
               * delta ** (2.0 / (2.0 - q)))
    return _float_or_array(lead + plateau)


def rho_opt_horizon(lipschitz, degree, delta, gap, horizon):
    """Weight minimizing the flat-schedule bound at a fixed horizon (q >= 1).

    rho = L**((2-q)/2) * delta * (horizon+1)**((2-q)/2) / (2*gap)**((2-q)/2).
    Degenerates to 0 as delta goes to 0, recovering the exact-oracle step.
    """
    q = _check_degree(degree, lo=1.0)
    _positive(lipschitz=lipschitz, gap=gap)
    _nonnegative(delta=delta)
    horizon = _check_k(horizon, name="horizon")
    e = (2.0 - q) / 2.0
    return _float_or_array(lipschitz ** e * float(delta) * (horizon + 1.0) ** e / (2.0 * gap) ** e)


def bound_nonconvex_horizon(lipschitz, degree, delta, gap, k):
    """Flat-schedule bound evaluated at the horizon-optimal weight.

    Exact expansion of the flat-schedule bound at weight rho and step
    1/(L + q*rho),

        2*(L+q*rho)*gap/(k+1) + (2-q)*(L+q*rho)*delta**(2/(2-q))/rho**(q/(2-q)),

    at rho = rho_opt_horizon(..., k):

        2*L*gap/(k+1)
        + 2*delta*L**(1-q/2)*(2*gap)**(q/2)/(k+1)**(q/2)
        + q*(2-q)*delta**2*L**(1-q)*(2*gap)**(q-1)/(k+1)**(q-1).

    The middle coefficient is q + (2-q) = 2: the two pieces come from the
    step-size and accuracy terms respectively and always sum to 2.
    """
    q = _check_degree(degree, lo=1.0)
    _positive(lipschitz=lipschitz, gap=gap)
    _nonnegative(delta=delta)
    k = _check_k(k)
    t1 = 2.0 * lipschitz * gap / (k + 1.0)
    t2 = (2.0 * delta * lipschitz ** (1.0 - q / 2.0) * (2.0 * gap) ** (q / 2.0)
          / (k + 1.0) ** (q / 2.0))
    t3 = (q * (2.0 - q) * delta ** 2 * lipschitz ** (1.0 - q) * (2.0 * gap) ** (q - 1.0)
          / (k + 1.0) ** (q - 1.0))
    return _float_or_array(t1 + t2 + t3)


def bound_convex_ergodic(lipschitz, degree, delta, radius, k, rho=None):
    """Objective-gap bound for the averaged iterates of the plain method, k >= 1.

    With an explicit rho:  (L+q*rho)*R**2/(2k) + (2-q)*delta**(2/(2-q))/(2*rho**(q/(2-q))).
    With rho omitted it is the display form
    L*R**2/(2k) + (2+q)*delta*R**q/(2*k**(q/2)), an upper bound on the
    minimum over rho: that minimum, reached at rho = delta*(k/R**2)**((2-q)/2),
    carries 1 instead of (2+q)/2 on the accuracy term.
    """
    q = _check_degree(degree)
    _positive(lipschitz=lipschitz, radius=radius)
    _nonnegative(delta=delta)
    k = _check_k(k, floor=1.0)
    if rho is None:
        return _float_or_array(lipschitz * radius ** 2 / (2.0 * k)
                               + (2.0 + q) * delta * radius ** q / (2.0 * k ** (q / 2.0)))
    _positive(rho=rho)
    return _float_or_array((lipschitz + q * rho) * radius ** 2 / (2.0 * k)
                           + (2.0 - q) * delta ** (2.0 / (2.0 - q))
                           / (2.0 * rho ** (q / (2.0 - q))))


def rho_opt_fast(radius, degree, delta, k):
    """Weight minimizing the accelerated bound at iteration k.

    rho = ((k+1)*(k+2)*(k+3))**((2-q)/2) * delta / (8*R**2)**((2-q)/2).
    """
    q = _check_degree(degree)
    _positive(radius=radius)
    _nonnegative(delta=delta)
    k = _check_k(k)
    e = (2.0 - q) / 2.0
    return _float_or_array(((k + 1.0) * (k + 2.0) * (k + 3.0)) ** e * float(delta)
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
    _positive(lipschitz=lipschitz, radius=radius)
    _nonnegative(delta=delta)
    k = _check_k(k)
    lead = 4.0 * lipschitz * radius ** 2 / ((k + 1.0) * (k + 2.0))
    if rho is None:
        noise = (8.0 ** (q / 2.0) * radius ** q * (k + 3.0) * delta
                 / ((k + 1.0) * (k + 2.0) * (k + 3.0)) ** (q / 2.0))
        return _float_or_array(lead + noise)
    _positive(rho=rho)
    return _float_or_array(4.0 * (lipschitz + q * rho) * radius ** 2 / ((k + 1.0) * (k + 2.0))
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
    _positive(gap=gap)
    k = _check_k(k)
    coeff = holder_smoothing_constant(holder_constant, nu, q, 1.0)
    c1 = 2.0 * (q + 1.0) * gap * coeff
    if nu == 1.0:
        zeros = np.zeros_like(k)
        return _float_or_array(zeros), _float_or_array(c1 / (k + 1.0))
    a = (1.0 - nu) / (1.0 + nu - q)
    b = 2.0 * nu / (1.0 + nu - q)
    c2 = (q + 1.0) * (2.0 - q) * coeff ** ((2.0 - 2.0 * q) / (2.0 - q))
    delta = (a * c1 / ((k + 1.0) * b * c2)) ** (1.0 / (a + b))
    bound = c1 * delta ** (-a) / (k + 1.0) + c2 * delta ** b
    return _float_or_array(delta), _float_or_array(bound)


# each named curve: its bound function, called as bound(k=ks, **parameters),
# and the parameter names it takes besides k
_CURVES = {
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


def format_numbers(values):
    """The %.17g text of each number of a sequence, as a list of strings.
    Integers print as the double they round to, as %.17g prints them."""
    return list(map("%.17g".__mod__, np.asarray(values, dtype=np.float64).tolist()))


def running_min_text(values, texts):
    """format_numbers(np.minimum.accumulate(values)), given texts =
    format_numbers(values), with no number formatted again.

    Where a run of the running minimum starts, its bits differ from the
    step before, so np.minimum, which returns one of its two inputs, took
    that step's entry: every entry of the run has that entry's text.
    """
    mins = np.minimum.accumulate(np.asarray(values, dtype=np.float64))
    starts = _run_starts(mins)
    return [texts[i] for i in np.repeat(starts, np.diff(starts, append=mins.size)).tolist()]


def _run_starts(numbers):
    """Where each run of consecutive entries with one float64 bit pattern starts."""
    bits = numbers.view(np.int64)
    starts = np.ones(numbers.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def write_csv(path, header, columns):
    """Write equal-length columns as CSV under a header of column names.

    Numbers are written %.17g, which round-trips every finite double, by
    format_numbers.  A column whose first entry is a string is text: its
    entries are strings, written verbatim, so they must hold no comma or
    line break.  That is how a caller passes a column it writes into
    several files, such as a sweep's step counter: format it once with
    format_numbers and hand every file the text.  Lines end in a bare
    newline on every platform.
    """
    texts = [column if len(column) and isinstance(column[0], str) else format_numbers(column)
             for column in columns]
    if len({len(text) for text in texts}) > 1:
        raise ValueError("columns differ in length")
    lines = [",".join(header), *map(",".join, zip(*texts))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def sample_curve(kind, parameters, ks):
    """Values of one named bound over an array of iteration counts.

    parameters must supply exactly the keys the kind needs; unknown or
    missing keys raise, and so does a curve with a value that overflows a
    float, infinite or NaN, as a ValueError.
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
    try:
        values = np.asarray(bound(k=np.asarray(ks, dtype=float), **p), dtype=float)
    except OverflowError:  # a power of Python floats out of range
        values = np.array(np.inf)
    if not np.isfinite(values).all():  # or a product of huge parameters
        raise ValueError(f"the {kind} curve overflows a float at these parameters")
    return values
