"""Parameter-free coin-betting learners driven by truncated linear models.

All variants play one round, `_BettingCoin.step`: predict w = beta * wealth,
receive one loss value and one subgradient g, scale g by h in [0, 1] (h < 1
exactly when the full step would cross the model's corner), then update the
betting fraction and the wealth multiplicatively. With s = <g, beta> and
dq(h) = <g, beta_next(h)> - s, q = s + dq, the corner equation
loss + <g, w_next(h) - w> = 0 reads loss + W (dq - h q s) / (1 + (h-1) q):
the residual has no <g, w> term to cancel, so its float noise scales with
the loss, and it is exactly the loss at h = 0.

A round pays only for what it uses. `_norm(g)` gives the unit-bound norm
and the gradient magnitude `ag` the hooks take: ||g|| for a one-game variant,
|g| per coordinate for `CoordinateImplicitCoin`. A variant's fused
`_full_round(g, ag, s, loss, wealth)` returns f(1), the residual of the full
round, and `out`: beta_next(1) with its 1/eta increment when f(1) >= 0.
f(1) < 0 means the full round would cross the corner; then `out` holds the
round's quantities (the branch, |g|, g^2 ...) that `_round(g, ag, s, loss,
wealth, out)` reuses to build two closures, fd(h) -> (residual, slope) and
commit(h) -> (beta_next, 1/eta increment); the one-game variants get f(1)
from scalars and build no vector for it. Every variant finds the corner by
`solve_corner`, safeguarded Newton inside the bracket.
`CoordinateImplicitCoin` plays one game per coordinate, so its s, dq,
wealth and 1/eta are arrays and the residual sums over them.

The learner holds the iterate it last returned with the (beta, wealth) it
came from. A round that does not move (h = 0: a zero gradient, or a corner
at the anchor) returns that held array itself, whenever `self.beta` and
`self.wealth` are still the objects it came from, and so allocates nothing;
otherwise it builds w = beta * wealth. A trace record's w and total wealth
before the round come from the same hold.

A learner never writes into an array it has stored, returned or been
given, so trace records share arrays with the learner and the caller
instead of copying, and the gradients may be read-only.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rootsolve

PROJECTED = "projected"        # explicit projection of the betting fraction
CLOSED_FORM = "closed-form"    # shrink-branch update, no projection

SHRINK_GAIN = 9.0                       # gain of the shrink branch
SHRINK_THRESHOLD = 3.0 / 8.0            # fraction norm where shrinking engages
PROJECTED_INV_ETA0 = 3.0
CLOSED_FORM_INV_ETA0 = 2.0 * SHRINK_GAIN
BETA_RADIUS = 0.5
# The projection engages only past float noise, so a stored fraction on the
# ball boundary is left alone at h = 0 and dq(0) is exactly 0.
PROJECTION_SLACK = 1e-15

GRAD_NORM_SLACK = 1e-9       # accepted float excess over the unit-norm bound
# A corner solve stops once its bracket is this many ulps of h wide, so h
# matches a full-bracket bisection to float resolution, near h = 0 as well
# as near 1 (and among subnormals, where a relative width underflows).
CORNER_WIDTH_ULPS = 4.0
# Evaluation cap of the Newton phase: a bisection halves [0, 1] to float
# resolution in about 60 steps, so a solve that needs more has met a
# residual it cannot speed up.
CORNER_MAX_EVALS = 64


@dataclass(slots=True)
class StepTrace:
    """Per-round record consumed by the diagnostics folds (arrays shared)."""

    t: int
    w: np.ndarray
    g: np.ndarray
    loss_value: float
    h: float
    w_next: np.ndarray
    beta: np.ndarray
    beta_next: np.ndarray
    wealth_before: float
    wealth_after: float


def solve_corner(fd, f0, f1):
    """Corner h in [0, 1) from residual(0) = f0 >= 0 > residual(1) = f1.

    fd(h) returns the residual and its slope. Safeguarded Newton (rtsafe,
    Press et al., Numerical Recipes, section 9.4) keeps the bracket
    f(lo) >= 0 > f(hi): it starts from the secant point of the known ends,
    takes a bisection step whenever a Newton step leaves the bracket, and
    once a Newton step is shorter than half the target width it steps that
    half-width past the root, so the next point closes the bracket from the
    other side. It stops when the bracket is CORNER_WIDTH_ULPS ulps of hi
    wide or lo holds an exact root. One bisection call finishes the bracket (no
    midpoint once it is closed) with the ends answered from the Newton
    phase, so 0 and 1 are never evaluated. Returns (h, evaluations of fd).
    """
    lo, hi, flo, fhi = 0.0, 1.0, f0, f1
    evals = 0
    x = f0 / (f0 - f1)  # secant point
    while flo != 0.0 and evals < CORNER_MAX_EVALS:
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break  # bracket at float resolution
        fx, slope = fd(x)
        evals += 1
        if fx >= 0.0:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        if hi - lo <= CORNER_WIDTH_ULPS * math.ulp(hi):
            break
        if slope < 0.0:
            dx = fx / slope
            half = 0.5 * CORNER_WIDTH_ULPS * math.ulp(x)
            if abs(dx) <= half:
                dx += math.copysign(half, dx)
            x -= dx
        else:
            x = math.nan  # no falling slope: bisect

    def f(h):
        # bisect evaluates the ends first, then only points strictly inside
        nonlocal evals
        if h == lo:
            return flo
        if h == hi:
            return fhi
        evals += 1
        return fd(h)[0]

    return rootsolve.bisect(f, lo, hi, CORNER_WIDTH_ULPS * math.ulp(hi)), evals


def _scalar_corner(dq, loss, wealth, s):
    """fd(h) of a one-game variant from dq(h) -> (dq, dq/dh)."""

    def fd(h):
        d, dd = dq(h)
        q = s + d
        num = d - h * q * s
        den = 1.0 + (h - 1.0) * q
        slope = (dd - q * s - h * s * dd) * den - num * (q + (h - 1.0) * dd)
        return loss + wealth * (num / den), wealth * slope / (den * den)

    return fd


class _BettingCoin:
    """The round of every variant, for one game with a scalar wealth; a
    per-coordinate variant overrides the reductions below.

    Counters: corner_rounds (rounds whose full step would cross the
    corner), residual_evals (residual evaluations of their solves) and
    grad_norm_warnings (gradients renormalised from float excess).
    corner_fallbacks stays 0, since every corner takes the same solve; the
    benchmark's per-layer report still reads it."""

    variant = None
    inv_eta0 = None

    def __init__(self, dim, initial_wealth=1.0, trace_cb=None):
        self.dim = int(dim)
        self.beta = np.zeros(self.dim)
        self.wealth = self._per_game(float(initial_wealth))
        self.inv_eta = self._per_game(self.inv_eta0)
        self.t = 0
        self.corner_rounds = 0
        self.residual_evals = 0
        self.grad_norm_warnings = 0
        self.corner_fallbacks = 0
        self.trace_cb = trace_cb
        # (beta, wealth, w = beta * wealth, total wealth) of the iterate the
        # last round returned
        self._held = (None, None, None, None)

    def _per_game(self, value):
        return value

    def _norm(self, g):
        """(the unit-bound norm of g, the magnitude the round hooks take)"""
        nrm = math.sqrt(float(g.dot(g)))
        return nrm, nrm

    def _gdot(self, g, beta):
        return float(g.dot(beta))

    def _total(self, wealth):
        return wealth

    def predict(self):
        return self.beta * self.wealth

    def step(self, loss_value, g, ex=None):
        """One round; returns w_next. ex is unused: every algorithm accepts
        the example, and only the oracle needs it. Bad input, or a wealth
        that would overflow, raises ValueError before any state changes.
        A round that does not move returns the held iterate: the array the
        last round returned, unless the state was replaced since."""
        loss_value = float(loss_value)
        if not 0.0 <= loss_value < math.inf:  # also rejects nan
            raise ValueError(f"loss value must be finite and >= 0, got {loss_value}")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.dim,):
            raise ValueError(f"gradient shape {g.shape} != ({self.dim},)")
        nrm, ag = self._norm(g)
        if not nrm <= 1.0 + GRAD_NORM_SLACK:  # also rejects nan entries
            raise ValueError(f"gradient norm {nrm} exceeds the unit bound")
        if nrm > 1.0:
            g = g / nrm
            ag = ag / nrm  # the same bits as the magnitude of g / nrm
            nrm = 1.0
            self.grad_norm_warnings += 1

        beta, wealth = self.beta, self.wealth
        held = self._held
        known = held[0] is beta and held[1] is wealth
        h = 0.0
        evals = None
        if nrm > 0.0:
            s = self._gdot(g, beta)
            f1, out = self._full_round(g, ag, s, loss_value, wealth)
            h = 1.0
            if f1 < 0.0:
                fd, commit = self._round(g, ag, s, loss_value, wealth, out)
                h, evals = solve_corner(fd, loss_value, f1)
                if h != 0.0:
                    out = commit(h)

        if h == 0.0:  # a zero gradient, or a corner at the anchor: no move
            beta_next, wealth_next = beta, wealth
            if known:
                w_next, total = held[2], held[3]
            else:
                w_next, total = beta * wealth, self._total(wealth)
                self._held = (beta, wealth, w_next, total)
        else:
            beta_next, inv_eta_step = out
            wealth_next = wealth * (1.0 - s)
            if h != 1.0:  # a full round has denominator 1
                wealth_next /= 1.0 + (h - 1.0) * self._gdot(g, beta_next)
            total = self._total(wealth_next)
            if not total < math.inf:
                raise ValueError(f"wealth overflows to {total} at round {self.t + 1}")
            w_next = beta_next * wealth_next
            self._held = (beta_next, wealth_next, w_next, total)
            self.beta = beta_next
            self.wealth = wealth_next
            self.inv_eta = self.inv_eta + inv_eta_step
        self.t += 1
        if evals is not None:
            self.corner_rounds += 1
            self.residual_evals += evals

        if self.trace_cb is not None:
            # w (same bits as beta * wealth) and the total wealth before the
            # round: held unless the state was replaced since
            if h == 0.0:
                w, total_before = w_next, total
            elif known:
                w, total_before = held[2], held[3]
            else:
                w, total_before = beta * wealth, self._total(wealth)
            self.trace_cb(StepTrace(self.t, w, g, loss_value, h, w_next, beta,
                                    beta_next, total_before, total))
        return w_next

    def _full_round(self, g, ag, s, loss, wealth):
        raise NotImplementedError

    def _round(self, g, ag, s, loss, wealth, out):
        raise NotImplementedError


class ProjectedImplicitCoin(_BettingCoin):
    """Betting step projected onto the half-unit ball; corner h by
    `solve_corner`, since the projection leaves the corner equation without
    a closed form."""

    variant = PROJECTED
    inv_eta0 = PROJECTED_INV_ETA0

    @staticmethod
    def _dq(h, gg, s, bb, eta):
        """dq(h) and its slope: a scalar replay of `_commit`, <g, .> and the
        projection factor only."""
        k = gg * h * (2.0 - h)
        dk = gg * (2.0 - 2.0 * h)
        step = -eta * (h * gg + 2.0 * k * s)
        dstep = -eta * (gg + 2.0 * dk * s)
        raw_sq = (bb - 2.0 * eta * (h * s + 2.0 * k * bb)
                  + eta * eta * (h * h * gg + 4.0 * h * k * s + 4.0 * k * k * bb))
        scale = 2.0 * math.sqrt(max(raw_sq, 0.0))
        if scale <= 1.0 + PROJECTION_SLACK:
            return step, dstep
        draw_sq = (-2.0 * eta * (s + 2.0 * dk * bb)
                   + eta * eta * (2.0 * h * gg + 4.0 * (k + h * dk) * s + 8.0 * k * dk * bb))
        dscale = 2.0 * draw_sq / scale
        return (s + step) / scale - s, (dstep * scale - (s + step) * dscale) / (scale * scale)

    def _commit(self, g, gg, eta, h):
        beta = self.beta
        k = gg * h * (2.0 - h)
        raw = beta - eta * (h * g + (2.0 * k) * beta)
        scale = 2.0 * math.sqrt(float(raw.dot(raw)))
        if scale > 1.0 + PROJECTION_SLACK:
            raw = raw / scale
        return raw, 2.0 * k

    def _full_round(self, g, nrm, s, loss, wealth):
        gg = nrm * nrm
        eta = 1.0 / self.inv_eta
        bb = float(self.beta.dot(self.beta))
        dq1 = self._dq(1.0, gg, s, bb, eta)[0]
        f1 = loss + wealth * (dq1 - (s + dq1) * s)
        if f1 < 0.0:
            return f1, bb
        return f1, self._commit(g, gg, eta, 1.0)

    def _round(self, g, nrm, s, loss, wealth, bb):
        gg = nrm * nrm
        eta = 1.0 / self.inv_eta
        dq = self._dq
        return (_scalar_corner(lambda h: dq(h, gg, s, bb, eta), loss, wealth, s),
                lambda h: self._commit(g, gg, eta, h))


class ImplicitCoin(_BettingCoin):
    """Projection-free variant: near the ball boundary the fraction is shrunk
    instead of projected, so the corner equation is a cubic (or quadratic)
    in h; `solve_corner` finds its root from the same residual as the other
    variants, and a full round costs a few vector operations."""

    variant = CLOSED_FORM
    inv_eta0 = CLOSED_FORM_INV_ETA0

    _SMALL_SQ = SHRINK_THRESHOLD * SHRINK_THRESHOLD

    def _full_round(self, g, nrm, s, loss, wealth):
        # the closures of _round at h = 1, inlined; dq(1) is a scalar
        beta = self.beta
        eta = 1.0 / self.inv_eta
        small = beta.dot(beta) < self._SMALL_SQ
        if small:
            gg = nrm * nrm
            k2 = 2.0 * gg
            dq1 = -eta * (gg + k2 * s)
        else:
            dq1 = (-2.0 * SHRINK_GAIN) * eta * nrm * s
        f1 = loss + wealth * (dq1 - (s + dq1) * s)
        if f1 < 0.0:
            return f1, small
        if small:
            return f1, (beta - eta * (g + k2 * beta), k2)
        return f1, (beta * (1.0 - 2.0 * SHRINK_GAIN * eta * nrm), 2.0 * SHRINK_GAIN * nrm)

    def _round(self, g, nrm, s, loss, wealth, small):
        beta = self.beta
        eta = 1.0 / self.inv_eta
        if small:
            gg = nrm * nrm

            def dq(h):
                k = gg * h * (2.0 - h)
                return (-eta * (h * gg + 2.0 * k * s),
                        -eta * (gg + 2.0 * gg * (2.0 - 2.0 * h) * s))

            def commit(h):
                k = gg * h * (2.0 - h)
                return beta - eta * (h * g + (2.0 * k) * beta), 2.0 * k
        else:
            def dq(h):
                return (-2.0 * SHRINK_GAIN) * eta * h * nrm * s, (-2.0 * SHRINK_GAIN) * eta * nrm * s

            def commit(h):
                return (beta * (1.0 - 2.0 * SHRINK_GAIN * eta * h * nrm),
                        2.0 * SHRINK_GAIN * h * nrm)

        return _scalar_corner(dq, loss, wealth, s), commit


class CoordinateImplicitCoin(_BettingCoin):
    """Per-coordinate closed-form variant: every coordinate runs its own 1-d
    betting game, coupled only through the shared corner scalar h, which is
    found by `solve_corner`. The unit bound is on the largest gradient
    entry."""

    variant = CLOSED_FORM
    inv_eta0 = CLOSED_FORM_INV_ETA0

    def _per_game(self, value):
        return np.full(self.dim, value)

    def _norm(self, g):
        ag = np.abs(g)
        return (float(np.maximum.reduce(ag)) if self.dim else 0.0), ag

    def _gdot(self, g, beta):
        return g * beta

    def _total(self, wealth):
        return float(wealth.sum())

    def _commit(self, h, small, gsq, ag, gsmall):
        # per coordinate, inc is 2 g^2 h (2 - h) on the small branch and
        # 2 gain |g| h on the shrink branch; beta_next = beta - eta (inc beta
        # + h g) on the first and beta - eta inc beta on the second. small
        # is the branch mask, gsq = g^2, ag = |g| and gsmall = g * small.
        beta = self.beta
        inc = np.where(small, (2.0 * h * (2.0 - h)) * gsq, (2.0 * SHRINK_GAIN * h) * ag)
        return beta - (inc * beta + h * gsmall) / self.inv_eta, inc

    def _full_round(self, g, ag, s, loss, wealth):
        # dq(1) is per coordinate, so beta_next(1) is built first
        small = np.abs(self.beta) < SHRINK_THRESHOLD
        gsq = g * g
        gsmall = g * small
        beta_next, inv_eta_step = self._commit(1.0, small, gsq, ag, gsmall)
        dq1 = g * beta_next - s
        f1 = loss + float(wealth.dot(dq1 - (s + dq1) * s))
        if f1 < 0.0:
            return f1, (small, gsq, gsmall)
        return f1, (beta_next, inv_eta_step)

    def _round(self, g, ag, s, loss, wealth, out):
        # per coordinate, dq(h) = h gA + h^2 gB on both branches, so the
        # residual term's numerator N = dq - h q s and denominator
        # D = 1 + (h-1) q are cubics in h. Row k of K holds the h^k
        # coefficients of N (first d columns) and D (last d), and one
        # (2, 4) @ (4, 2d) product with the powers of h and their slopes
        # gives N, D, N' and D'
        small, gsq, gsmall = out
        eta = 1.0 / self.inv_eta
        gB = (2.0 * eta) * gsq * s * small
        gA = np.where(small, -eta * gsq - 2.0 * gB, (-2.0 * SHRINK_GAIN) * eta * ag * s)
        d = self.dim
        K = np.array((np.zeros(d), 1.0 - s, gA - s * s, s - gA,
                      gB - gA * s, gA - gB, -gB * s, gB)).reshape(4, 2 * d)
        powers = np.zeros((2, 4))  # rows (1, h, h^2, h^3) and their slopes
        powers[0, 0] = powers[1, 1] = 1.0

        def fd(h):
            hh = h * h
            powers[0, 1] = h
            powers[0, 2] = hh
            powers[0, 3] = hh * h
            powers[1, 2] = 2.0 * h
            powers[1, 3] = 3.0 * hh
            r = powers.dot(K)
            den = r[0, d:]
            q = r[0, :d] / den
            return (loss + float(wealth.dot(q)),
                    float(wealth.dot((r[1, :d] - q * r[1, d:]) / den)))

        return fd, lambda h: self._commit(h, small, gsq, ag, gsmall)
