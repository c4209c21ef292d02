"""Reference code that only the tests use: independent oracles and retired
solvers that the tests still pin down.

`narrow_bracket` is the Illinois narrowing that the betting learners' corner
solve used before safeguarded Newton replaced it.
"""

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
