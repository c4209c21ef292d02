"""Reference code that only the tests use: independent oracles and retired
solvers that the tests still pin down.

`narrow_bracket` is the Illinois narrowing that the betting learners' corner
solve used before safeguarded Newton replaced it. `closed_form_corner_poly`
is the cubic (or quadratic) whose roots are `ImplicitCoin`'s corner h.
`closed_form_step` replays an `ImplicitCoin` (or `ProjectedImplicitCoin`)
round from public pieces on a plain fraction (its norms are `l2_norm`, the
bits of `np.linalg.norm` at a fraction of its cost, since C5 calls it about
300,000 times), `closed_form_w_next` gives its
iterate, `plain_replay` replays a whole traced stream with it, and
`wealth_update` is its multiplicative wealth step;
`coordinate_step` replays a `CoordinateImplicitCoin` round one coordinate
at a time, `coordinate_w_next` gives its iterate, and `coordinate_rounds`
plays a whole stream with it, for rounds that every learner is asked
alike. `fold_all` runs a diagnostics fold over a list of traces. The
`Reference*` folds and `reference_wealth_trace` are the diagnostics in
their plain form, with `np.linalg.norm`, `@` and f-strings and nothing
shared between records or folds; the diagnostics must give the same
reports and bytes.
`expected_shape` looks up the task and shape of a benchmark-table dataset
in `TABLE_SHAPES`.
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

# Sample and feature counts of the benchmark datasets, keyed by name.
TABLE_SHAPES = {
    "cpu-act": ("classification", 8192, 21),
    "2dplane": ("classification", 40768, 10),
    "houses": ("classification", 20640, 8),
    "rainfall": ("regression", 16755, 3),
    "bank32nh": ("regression", 8192, 32),
    "houses-8l": ("regression", 22784, 8),
}


def expected_shape(name):
    """Benchmark-table (task, samples, features) for a known dataset name."""
    key = name.lower()
    if key not in TABLE_SHAPES:
        raise ValueError(f"no recorded shape for dataset {name!r}")
    return TABLE_SHAPES[key]


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


def l2_norm(v):
    """np.linalg.norm(v) of a 1-d float64 vector, which numpy computes as
    sqrt(v.dot(v)): the same bits without its Python wrapper."""
    return math.sqrt(v.dot(v))


def wealth_update(wealth, beta, pair, beta_next):
    """One multiplicative wealth step.

    Both factors stay in [1/2, 3/2] whenever ||g|| <= 1 and the betting
    fractions stay in the half-unit ball, so the result is always positive.
    """
    num = 1.0 - float(pair.g @ beta)
    den = 1.0 + (pair.h - 1.0) * float(pair.g @ beta_next)
    return wealth * num / den


def closed_form_step(beta, wealth, inv_eta, g, h, projected=False):
    """`ImplicitCoin`'s next (beta, wealth, 1/eta) when g is scaled by h, on
    the plain fraction beta, from the subgradient pair and the norms of the
    update rule only; with projected, `ProjectedImplicitCoin`'s, whose step
    is the small-fraction one projected onto the half-unit ball."""
    pair = make_pair(g, h)
    norm_gp = l2_norm(pair.g_plus)
    if projected or l2_norm(beta) < SHRINK_THRESHOLD:
        gain = 2.0 * l2_norm(g) * norm_gp - norm_gp ** 2
        beta_next = beta - (pair.g_plus + 2.0 * gain * beta) / inv_eta
        if projected:
            beta_next = beta_next / max(1.0, 2.0 * l2_norm(beta_next))
        inc = 2.0 * gain
    else:
        inc = 2.0 * SHRINK_GAIN * norm_gp
        beta_next = beta * (1.0 - inc / inv_eta)
    return beta_next, wealth_update(wealth, beta, pair, beta_next), inv_eta + inc


def closed_form_w_next(beta, wealth, inv_eta, g, h, projected=False):
    """The next iterate of `closed_form_step`."""
    beta_next, wealth_next, _ = closed_form_step(beta, wealth, inv_eta, g, h, projected)
    return beta_next * wealth_next


def plain_replay(cls, dim, records):
    """The iterates of a one-game learner of class cls, replayed from its
    trace records with the learner's own g and h each round on a plain
    fraction beta: the reference of its scaled state."""
    beta, wealth, inv_eta = np.zeros(dim), 1.0, cls.inv_eta0
    iterates = []
    for tr in records:
        if tr.h != 0.0:
            beta, wealth, inv_eta = closed_form_step(beta, wealth, inv_eta, tr.g, tr.h,
                                                     cls.variant == PROJECTED)
        iterates.append(beta * wealth)
    return iterates


def coordinate_step(beta, wealth, inv_eta, g, h):
    """`CoordinateImplicitCoin`'s next (beta, wealth, 1/eta) when g is
    scaled by h: every coordinate plays its own one-dimensional game, on the
    small branch while |beta_i| < SHRINK_THRESHOLD and shrunk otherwise."""
    beta_next, wealth_next, inv_eta_next = (np.empty(len(beta)) for _ in range(3))
    for i, (gi, bi, wi, ii) in enumerate(zip(g, beta, wealth, inv_eta)):
        gp = h * gi
        if abs(bi) < SHRINK_THRESHOLD:
            inc = 2.0 * (2.0 * abs(gi) * abs(gp) - gp * gp)
            nb = bi - (gp + inc * bi) / ii
        else:
            inc = 2.0 * SHRINK_GAIN * abs(gp)
            nb = bi * (1.0 - inc / ii)
        beta_next[i] = nb
        wealth_next[i] = wi * (1.0 - gi * bi) / (1.0 + (h - 1.0) * gi * nb)
        inv_eta_next[i] = ii + inc
    return beta_next, wealth_next, inv_eta_next


def coordinate_w_next(beta, wealth, inv_eta, g, h):
    """The next iterate and 1/eta of `coordinate_step`."""
    beta_next, wealth_next, inv_eta_next = coordinate_step(beta, wealth, inv_eta, g, h)
    return beta_next * wealth_next, inv_eta_next


def coordinate_rounds(G, U):
    """The (beta, wealth, 1/eta, loss, g) of every nonzero-gradient round of
    the stream G, U (losses alternating between 10 u and u at the scale of
    the tentative step) played by `coordinate_step`, with the corner h of
    each round found by bisecting loss + <g, w_next(h) - w> to 1e-13: rounds
    that do not depend on the learner under test."""
    d = G.shape[1]
    beta, wealth, inv_eta = np.zeros(d), np.ones(d), np.full(d, 2.0 * SHRINK_GAIN)
    rounds = []
    for i, (g, u) in enumerate(zip(G, U)):
        if not np.any(g):
            continue
        loss = 10.0 * u if i % 2 == 0 else (
            u * 2.0 * float(g @ g) * float(np.sum(wealth)) / float(np.min(inv_eta)))
        rounds.append((beta, wealth, inv_eta, loss, g))
        w = beta * wealth

        def residual(h):
            return loss + float(g @ (coordinate_w_next(beta, wealth, inv_eta, g, h)[0] - w))

        lo, hi = 0.0, 1.0
        if residual(1.0) >= 0.0:
            lo = 1.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if residual(mid) >= 0.0 else (lo, mid)
        beta, wealth, inv_eta = coordinate_step(beta, wealth, inv_eta, g, lo)
    return rounds


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
        if not self._final_wealth > 0.0:  # also nan
            return -math.inf
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
