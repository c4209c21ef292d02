"""Reference code that only the tests use: independent oracles and retired
solvers that the tests still pin down.

`narrow_bracket` is the Illinois narrowing that the betting learners' corner
solve used before safeguarded Newton replaced it. `closed_form_corner_poly`
is the cubic (or quadratic) whose roots are `ImplicitCoin`'s corner h.
`closed_form_w_next` replays an `ImplicitCoin` round from public pieces,
and `wealth_update` is its multiplicative wealth step. `fold_all` runs a
diagnostics fold over a list of traces. The `Reference*` folds and
`reference_wealth_trace` are the diagnostics in their plain form, with
`np.linalg.norm`, `@` and f-strings and nothing shared between records or
folds; the diagnostics must give the same reports and bytes.
`reference_hinge_eval_grad` and `reference_absolute_eval_grad` are the loss
oracles as they were when every call built its gradient (`-y * x`,
`x.copy()`, `-x`, `np.zeros_like`), and `reference_parse_libsvm` is the
token-by-token LIBSVM parser; the vectorised versions must match them bit
for bit, error messages included.
"""

import io
import math

import numpy as np

from implicitcoin.diagnostics import (BetaBallFold, NoOvershootFold,
                                      WealthIdentityFold, WealthLowerBoundFold)
from implicitcoin.learners import PROJECTED, SHRINK_GAIN, SHRINK_THRESHOLD
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


class ReferenceNoOvershootFold(NoOvershootFold):
    def update(self, tr):
        if not np.any(tr.g):
            return
        self.rounds += 1
        self._note(tr.loss_value + float(tr.g @ (tr.w_next - tr.w)), tr.t)


class ReferenceWealthIdentityFold(WealthIdentityFold):
    def update(self, tr):
        if tr.t == 1:
            self._spent = 0.0
        self.rounds += 1
        g_plus = tr.h * tr.g
        self._spent += float(tr.g @ (tr.w - tr.w_next)) + float(g_plus @ tr.w_next)
        dev = abs(tr.wealth_after - (self.epsilon - self._spent))
        self._note(-dev / max(1.0, abs(tr.wealth_after)), tr.t)


class ReferenceBetaBallFold(BetaBallFold):
    def __init__(self, norm="l2"):
        super().__init__(norm)
        self._reference_norm = {
            "l2": np.linalg.norm,
            "linf": lambda v: np.max(np.abs(v)) if v.size else 0.0}[norm]

    def update(self, tr):
        self.rounds += 1
        worst = max(float(self._reference_norm(tr.beta)),
                    float(self._reference_norm(tr.beta_next)))
        self._note(0.5 - worst, tr.t)


class ReferenceWealthLowerBoundFold(WealthLowerBoundFold):
    def update(self, tr):
        if tr.t == 1 and self._last_t:
            self._note(self._run_slack(), self._last_t)
            self._reset_run()
        self.rounds += 1
        if self._gplus_sum is None:
            self._gplus_sum = np.zeros_like(tr.g)
        norm_g = float(np.linalg.norm(tr.g))
        self._gplus_sum += tr.h * tr.g
        self._pair_sum += norm_g * (tr.h * norm_g)
        self._mu_sum += 2.0 * norm_g * norm_g * tr.h * (2.0 - tr.h)
        self._final_wealth = tr.wealth_after
        self._last_t = tr.t

    def _run_slack(self):
        gps = 0.0 if self._gplus_sum is None else float(np.linalg.norm(self._gplus_sum))
        if self.variant == PROJECTED:
            bound = -1.5 - 7.25 * math.log1p(2.0 * self._pair_sum)
            gain = gps / 4.0
        else:
            bound = -110.25 * math.log(16.0 + 2.0 * self._pair_sum)
            gain = gps / 8.0
        if self._mu_sum > 0.0:
            gain = min(gain, gps * gps / (2.0 * self._mu_sum))
        return math.log(self._final_wealth) - (bound + gain)


def reference_wealth_trace(traces):
    """The text a `WealthTraceWriter` writes for these records."""
    rows = ["t,h,wealth,beta_norm,residual\n"]
    for tr in traces:
        resid = tr.loss_value + float(tr.g @ (tr.w_next - tr.w))
        rows.append(f"{tr.t},{tr.h:.10g},{tr.wealth_after:.10g},"
                    f"{float(np.linalg.norm(tr.beta_next)):.10g},{resid:.10g}\n")
    return "".join(rows)


def reference_hinge_eval_grad(w, ex):
    """Hinge loss and a subgradient, the gradient built per call."""
    margin = 1.0 - ex.y * float(w.dot(ex.x))
    if margin > 0.0:
        return margin, -ex.y * ex.x
    return 0.0, np.zeros_like(ex.x)


def reference_absolute_eval_grad(w, ex):
    """Absolute loss and a subgradient, the gradient built per call."""
    r = float(w.dot(ex.x)) - ex.y
    if r > 0.0:
        return r, ex.x.copy()
    if r < 0.0:
        return -r, -ex.x
    return 0.0, np.zeros_like(ex.x)


def reference_parse_libsvm(text):
    """(X, y) of LIBSVM text parsed token by token, before any label
    mapping or finiteness check; raises the parser's ValueError messages."""
    labels, rows, max_idx = [], [], 0
    for lineno, line in enumerate(io.StringIO(text), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            label = float(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: bad label {parts[0]!r}") from None
        feats, prev_idx = [], 0
        for tok in parts[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx <= prev_idx:
                raise ValueError(
                    f"line {lineno}: indices must be ascending and >= 1, got {idx}")
            prev_idx = idx
            feats.append((idx - 1, val))
        max_idx = max(max_idx, prev_idx)
        labels.append(label)
        rows.append(feats)
    X = np.zeros((len(rows), max_idx))
    for i, feats in enumerate(rows):
        for j, v in feats:
            X[i, j] = v
    return X, np.array(labels, dtype=np.float64)
