"""Scalar root finding: closed-form solvers up to degree 3 and guarded
bisection."""

import math

# Leading coefficients below this fraction of the largest coefficient are
# treated as zero and the solver falls through to the next lower degree.
LEADING_COEFF_TOL = 1e-14


def horner(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _signed_cbrt(x):
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _depressed_cubic_roots(p, q):
    """Real roots of t^3 + p t + q = 0 (trigonometric / Cardano forms)."""
    if p == 0.0:
        return [_signed_cbrt(-q)]
    disc = q * q / 4.0 + p * p * p / 27.0
    if disc > 0.0:
        s = math.sqrt(disc)
        return [_signed_cbrt(-q / 2.0 + s) + _signed_cbrt(-q / 2.0 - s)]
    r = 3.0 * q / p
    if disc == 0.0:
        return [r, -r / 2.0]
    # three distinct real roots
    arg = max(-1.0, min(1.0, r / 2.0 * math.sqrt(-3.0 / p)))
    phase = math.acos(arg) / 3.0
    amp = 2.0 * math.sqrt(-p / 3.0)
    return [amp * math.cos(phase - 2.0 * math.pi * k / 3.0) for k in range(3)]


def _cubic_roots(a, b, c, d):
    b, c, d = b / a, c / a, d / a
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b * b * b / 27.0
    return [t - b / 3.0 for t in _depressed_cubic_roots(p, q)]


def _quadratic_roots(a, b, c):
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-b / (2.0 * a)]
    s = math.sqrt(disc)
    # stable form: avoid cancellation between -b and the square root
    q = -(b + math.copysign(s, b)) / 2.0
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / a - r1
    return [r1, r2]


def _polish(coeffs, r):
    # one Newton step controls floating-point drift from the closed form
    n = len(coeffs) - 1
    deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
    fp = horner(deriv, r)
    if fp != 0.0:
        step = horner(coeffs, r) / fp
        if abs(step) < 1e-2 * (1.0 + abs(r)):
            r = r - step
    return r


def roots_in_unit(coeffs, lo: float, hi: float):
    """All real roots of a polynomial of degree <= 3 inside [lo, hi], ascending.

    Coefficients are ordered highest degree first. Near-zero leading
    coefficients fall through to the lower-degree solver; the all-zero
    polynomial is rejected.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    c = [float(v) for v in coeffs]
    if len(c) > 4:
        raise ValueError(f"degree must be <= 3, got {len(c) - 1}")
    scale = max(abs(v) for v in c) if c else 0.0
    if scale == 0.0:
        raise ValueError("all-zero polynomial")
    while len(c) > 1 and abs(c[0]) <= LEADING_COEFF_TOL * scale:
        c = c[1:]

    if len(c) == 1:
        roots = []  # nonzero constant: no roots
    elif len(c) == 2:
        roots = [-c[1] / c[0]]
    elif len(c) == 3:
        roots = _quadratic_roots(*c)
    else:
        roots = _cubic_roots(*c)

    roots = [_polish(c, r) for r in roots]
    edge = 1e-12 * max(1.0, abs(lo), abs(hi))
    kept = sorted(min(max(r, lo), hi) for r in roots if lo - edge <= r <= hi + edge)
    out = []
    for r in kept:
        if not out or r - out[-1] > 1e-12 * max(1.0, abs(r)):
            out.append(r)
    return out


def bisect(f, lo: float, hi: float, tol: float):
    """Locate a sign change of f in [lo, hi] to within tol.

    Uses exactly ceil(log2((hi - lo) / tol)) midpoint evaluations after the
    two endpoint evaluations. An exact root at an endpoint is returned
    without iterating; equal signs at both endpoints are rejected.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo!r}, f(hi)={fhi!r}")

    steps = max(0, math.ceil(math.log2((hi - lo) / tol)))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at float resolution
        fmid = f(mid)
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)
