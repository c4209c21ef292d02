"""Reference code that only the tests use: independent oracles and retired
solvers that the tests still pin down.

`narrow_bracket` is the Illinois narrowing that the betting learners' corner
solve used before safeguarded Newton replaced it. `closed_form_corner_poly`
is the cubic (or quadratic) whose roots are `ImplicitCoin`'s corner h.
`closed_form_w_next` replays an `ImplicitCoin` round from public pieces,
and `wealth_update` is its multiplicative wealth step. `fold_all` runs a
diagnostics fold over a list of traces.
"""

import numpy as np

from implicitcoin.learners import SHRINK_GAIN, SHRINK_THRESHOLD
from implicitcoin.truncated import make_pair

# Evaluation cap of narrow_bracket: bisection halves [0, 1] to 1e-12 in 40,
# so a narrowing that needs more has met a function it cannot speed up.
NARROW_MAX_EVALS = 64


def narrow_bracket(f, lo: float, hi: float, flo: float, fhi: float, width: float):
    """Shrink a bracket with f(lo) >= 0 > f(hi) by Illinois steps.

    Regula falsi where an endpoint kept twice in a row has its stored value
    halved (Dowell & Jarratt 1971), so both ends converge. flo and fhi are
    the known endpoint values. A point with f >= 0 replaces lo, any other
    replaces hi, so the sign change is kept. Stops once hi - lo <= width,
    after NARROW_MAX_EVALS evaluations, or when an exact zero has moved lo.
    Returns (lo, hi, f(lo), f(hi)) with the true, unhalved values at the
    ends, never a root; `bisect` finishes the bracket.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not flo >= 0.0 > fhi:
        raise ValueError(f"need f(lo) >= 0 > f(hi) on [{lo}, {hi}]: "
                         f"f(lo)={flo!r}, f(hi)={fhi!r}")
    a, b = flo, fhi  # the Illinois-weighted values of lo and hi
    kept = 0  # +1: lo kept by the last step, -1: hi kept
    for _ in range(NARROW_MAX_EVALS):
        if hi - lo <= width or a == 0.0:
            break
        x = (lo * b - hi * a) / (b - a)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break  # interval at float resolution
        fx = f(x)
        if fx >= 0.0:
            lo, flo, a = x, fx, fx
            if kept < 0:
                b *= 0.5
            kept = -1
        else:
            hi, fhi, b = x, fx, fx
            if kept > 0:
                a *= 0.5
            kept = 1
    return lo, hi, flo, fhi


def wealth_update(wealth, beta, pair, beta_next):
    """One multiplicative wealth step.

    Both factors stay in [1/2, 3/2] whenever ||g|| <= 1 and the betting
    fractions stay in the half-unit ball, so the result is always positive.
    """
    num = 1.0 - float(pair.g @ beta)
    den = 1.0 + (pair.h - 1.0) * float(pair.g @ beta_next)
    return wealth * num / den


def closed_form_w_next(beta, wealth, inv_eta, g, h):
    """`ImplicitCoin`'s next iterate when g is scaled by h, from the
    subgradient pair and the norms of the update rule only."""
    pair = make_pair(g, h)
    norm_gp = float(np.linalg.norm(pair.g_plus))
    if float(np.linalg.norm(beta)) < SHRINK_THRESHOLD:
        gain = 2.0 * float(np.linalg.norm(g)) * norm_gp - norm_gp ** 2
        beta_next = beta - (pair.g_plus + 2.0 * gain * beta) / inv_eta
    else:
        beta_next = beta * (1.0 - 2.0 * SHRINK_GAIN * norm_gp / inv_eta)
    return beta_next * wealth_update(wealth, beta, pair, beta_next)


def closed_form_residual(beta, wealth, inv_eta, loss, g):
    """The corner equation r(h) = loss + <g, w_next(h) - w> of one round."""
    w = beta * wealth
    return lambda h: loss + float(g @ (closed_form_w_next(beta, wealth, inv_eta, g, h) - w))


def closed_form_corner_poly(beta, wealth, inv_eta, loss, g):
    """Coefficients, highest degree first, of a polynomial whose roots in
    [0, 1) include the corner h of an `ImplicitCoin` round from this state.

    With s = <g, beta>, a = <g, w> - loss and b = wealth (1 - s), clearing
    the denominator of the corner equation leaves a cubic on the small
    branch and a quadratic on the shrink branch. The closed form loses
    digits to float noise, so a root counts only where the corner residual
    is small too.
    """
    eta = 1.0 / inv_eta
    nrm = float(np.linalg.norm(g))
    s = float(g @ beta)
    a = s * wealth - loss
    b = wealth * (1.0 - s)
    if float(beta @ beta) < SHRINK_THRESHOLD * SHRINK_THRESHOLD:
        e = eta * nrm * nrm
        d = 2.0 * e * s
        return [-a * d,
                2.0 * a * d + a * e + (a + b) * d,
                -(a + b) * e - 2.0 * (a + b) * d - a * s,
                (a + b) * s - a]
    d = 2.0 * SHRINK_GAIN * eta * nrm * s
    return [a * d, -a * s - (a + b) * d, (a + b) * s - a]


def fold_all(fold, traces):
    """Feed every trace through a diagnostics fold; returns its report."""
    for tr in traces:
        fold.update(tr)
    return fold.report()
