"""Parameter-free coin-betting learners driven by truncated linear models.

All variants play one round, `_BettingCoin.step`: predict w = beta * wealth,
receive one loss value and one subgradient g, scale g by h in [0, 1] (h < 1
exactly when the full step would cross the model's corner), then update the
betting fraction and the wealth multiplicatively. h = 1 is tried first; a
corner round solves loss + <g, w_next(h) - w> = 0. Per round, a variant's
`_round(g, nrm, s)`, with s = <g, beta>, returns two closures:
dq(h) = <g, beta_next(h)> - s, and commit(h) -> (beta_next, 1/eta increment).
With q = s + dq, <g, w_next(h) - w> = W (dq - h q s) / (1 + (h-1) q): the
residual has no <g, w> term to cancel, so its float noise scales with the
loss, and it is exactly the loss at h = 0. `ImplicitCoin` solves the corner
in closed form; the others narrow [0, 1] with Illinois steps and bisect to
float resolution. `CoordinateImplicitCoin` plays one game per coordinate, so
its s, dq, wealth and 1/eta are arrays and the residual sums over them.

A learner never writes into an array it has stored or returned, so trace
records share arrays with the learner and the caller instead of copying.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rootsolve

PROJECTED = "projected"        # explicit projection of the betting fraction
CLOSED_FORM = "closed-form"    # shrink-branch update, corner h from a cubic

SHRINK_GAIN = 9.0                       # gain of the shrink branch
SHRINK_THRESHOLD = 3.0 / 8.0            # fraction norm where shrinking engages
PROJECTED_INV_ETA0 = 3.0
CLOSED_FORM_INV_ETA0 = 2.0 * SHRINK_GAIN
BETA_RADIUS = 0.5
# The projection engages only past float noise, so a stored fraction on the
# ball boundary is left alone at h = 0 and dq(0) is exactly 0.
PROJECTION_SLACK = 1e-15

GRAD_NORM_SLACK = 1e-9       # accepted float excess over the unit-norm bound
CORNER_RESIDUAL_BAND = 1e-8  # |residual| accepted at a solved corner
# Corner solves narrow the bracket [0, 1] to CORNER_NARROW_WIDTH with
# Illinois steps, then bisect it to CORNER_BRACKET_TOL, which is below float
# resolution on [0, 1]: the trajectory must match the closed-form variant to
# ~1e-12 in one dimension, and h matches a full-bracket bisection to ~1e-12.
CORNER_NARROW_WIDTH = 1e-12
CORNER_BRACKET_TOL = 1e-18


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


def solve_corner(residual, f0, f1):
    """Corner h in (0, 1) from residual(0) = f0 >= 0 > residual(1) = f1.

    Illinois steps narrow [0, 1]; one bisection call finishes the bracket to
    float resolution, with its step bound as the safeguard. The bisection
    gets the residuals at the narrowed ends from the narrowing instead of
    evaluating them again. An exact root at the narrowed lo (a zero loss,
    say) comes back from that call unchanged.
    """
    lo, hi, flo, fhi = rootsolve.narrow_bracket(
        residual, 0.0, 1.0, f0, f1, CORNER_NARROW_WIDTH)

    def f(h):
        # bisect evaluates the ends first, then only points strictly inside
        if h == lo:
            return flo
        if h == hi:
            return fhi
        return residual(h)

    return rootsolve.bisect(f, lo, hi, CORNER_BRACKET_TOL)


def wealth_update(wealth, beta, pair, beta_next):
    """One multiplicative wealth step.

    Both factors stay in [1/2, 3/2] whenever ||g|| <= 1 and the betting
    fractions stay in the half-unit ball, so the result is always positive.
    """
    num = 1.0 - float(pair.g @ beta)
    den = 1.0 + (pair.h - 1.0) * float(pair.g @ beta_next)
    return wealth * num / den


class _BettingCoin:
    """The round of every variant, for one game with a scalar wealth; a
    per-coordinate variant overrides the reductions below."""

    variant = None
    inv_eta0 = None

    def __init__(self, dim, initial_wealth=1.0, trace_cb=None):
        self.dim = int(dim)
        self.beta = np.zeros(self.dim)
        self.wealth = self._per_game(float(initial_wealth))
        self.inv_eta = self._per_game(self.inv_eta0)
        self.t = 0
        self.grad_norm_warnings = 0
        self.corner_fallbacks = 0
        self.trace_cb = trace_cb

    def _per_game(self, value):
        return value

    def _norm(self, g):
        return math.sqrt(float(g @ g))

    def _gdot(self, g, beta):
        return float(g @ beta)

    def _spend(self, wealth, x):
        return wealth * x

    def _total(self, wealth):
        return wealth

    def predict(self):
        return self.beta * self.wealth

    def step(self, loss_value, g, ex=None):
        """One round; returns w_next. ex is unused: every algorithm accepts
        the example, and only the oracle needs it."""
        loss_value = float(loss_value)
        if not 0.0 <= loss_value < math.inf:  # also rejects nan
            raise ValueError(f"loss value must be finite and >= 0, got {loss_value}")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.dim,):
            raise ValueError(f"gradient shape {g.shape} != ({self.dim},)")
        nrm = self._norm(g)
        if not nrm <= 1.0 + GRAD_NORM_SLACK:  # also rejects nan entries
            raise ValueError(f"gradient norm {nrm} exceeds the unit bound")
        if nrm > 1.0:
            g = g / nrm
            nrm = 1.0
            self.grad_norm_warnings += 1

        self.t += 1
        beta, wealth = self.beta, self.wealth
        w = beta * wealth
        h = 0.0
        if nrm > 0.0:
            s = self._gdot(g, beta)
            dq, commit = self._round(g, nrm, s)
            h = 1.0
            dq1 = dq(1.0)
            f1 = loss_value + self._spend(wealth, dq1 - (s + dq1) * s)
            if f1 < 0.0:
                spend = self._spend

                def residual(h):
                    dqh = dq(h)
                    q = s + dqh
                    return loss_value + spend(wealth, (dqh - h * q * s) / (1.0 + (h - 1.0) * q))

                h = self._corner_h(residual, loss_value, f1, nrm, s)

        if h == 0.0:  # a zero gradient, or a corner at the anchor: no move
            beta_next, wealth_next, w_next = beta, wealth, w
        else:
            beta_next, inv_eta_step = commit(h)
            wealth_next = wealth * (1.0 - s)
            if h != 1.0:  # a full round has denominator 1
                wealth_next /= 1.0 + (h - 1.0) * self._gdot(g, beta_next)
            w_next = beta_next * wealth_next
            self.beta = beta_next
            self.wealth = wealth_next
            self.inv_eta = self.inv_eta + inv_eta_step

        if self.trace_cb is not None:
            self.trace_cb(StepTrace(
                t=self.t, w=w, g=g, loss_value=loss_value, h=h, w_next=w_next,
                beta=beta, beta_next=beta_next, wealth_before=self._total(wealth),
                wealth_after=self._total(wealth_next)))
        return w_next

    def _corner_h(self, residual, f0, f1, nrm, s):
        return solve_corner(residual, f0, f1)

    def _round(self, g, nrm, s):
        raise NotImplementedError


class ProjectedImplicitCoin(_BettingCoin):
    """Betting step projected onto the half-unit ball; corner h by bisection,
    since the projection leaves the corner equation without a closed form."""

    variant = PROJECTED
    inv_eta0 = PROJECTED_INV_ETA0

    def _round(self, g, nrm, s):
        beta = self.beta
        gg = nrm * nrm
        bb = float(beta @ beta)
        eta = 1.0 / self.inv_eta

        def dq(h):
            # scalar replay of commit: <g, .> and the projection factor only
            k = gg * h * (2.0 - h)
            step = -eta * (h * gg + 2.0 * k * s)
            raw_sq = (bb - 2.0 * eta * (h * s + 2.0 * k * bb)
                      + eta * eta * (h * h * gg + 4.0 * h * k * s + 4.0 * k * k * bb))
            scale = 2.0 * math.sqrt(max(raw_sq, 0.0))
            if scale <= 1.0 + PROJECTION_SLACK:
                return step
            return (s + step) / scale - s

        def commit(h):
            k = gg * h * (2.0 - h)
            raw = beta - eta * (h * g + (2.0 * k) * beta)
            scale = 2.0 * math.sqrt(float(raw @ raw))
            if scale > 1.0 + PROJECTION_SLACK:
                raw = raw / scale
            return raw, 2.0 * k

        return dq, commit


class ImplicitCoin(_BettingCoin):
    """Projection-free variant: near the ball boundary the fraction is shrunk
    instead of projected, so the corner h solves a cubic (or quadratic) in
    closed form and a round costs the same as a plain gradient step."""

    variant = CLOSED_FORM
    inv_eta0 = CLOSED_FORM_INV_ETA0

    _SMALL_SQ = SHRINK_THRESHOLD * SHRINK_THRESHOLD

    def _round(self, g, nrm, s):
        beta = self.beta
        eta = 1.0 / self.inv_eta
        self._small = float(beta @ beta) < self._SMALL_SQ  # the corner's branch too
        if self._small:
            gg = nrm * nrm

            def dq(h):
                k = gg * h * (2.0 - h)
                return -eta * (h * gg + 2.0 * k * s)

            def commit(h):
                k = gg * h * (2.0 - h)
                return beta - eta * (h * g + (2.0 * k) * beta), 2.0 * k
        else:
            def dq(h):
                return (-2.0 * SHRINK_GAIN) * eta * h * nrm * s

            def commit(h):
                return (beta * (1.0 - 2.0 * SHRINK_GAIN * eta * h * nrm),
                        2.0 * SHRINK_GAIN * h * nrm)

        return dq, commit

    def _corner_h(self, residual, f0, f1, nrm, s):
        eta = 1.0 / self.inv_eta
        a = s * self.wealth - f0          # <g, w> - loss
        b = self.wealth * (1.0 - s)
        if self._small:
            gg = nrm * nrm
            e = eta * gg
            d = 2.0 * eta * gg * s
            coeffs = [-a * d,
                      2.0 * a * d + a * e + (a + b) * d,
                      -(a + b) * e - 2.0 * (a + b) * d - a * s,
                      (a + b) * s - a]
        else:
            d = 2.0 * SHRINK_GAIN * eta * nrm * s
            coeffs = [a * d, -a * s - (a + b) * d, (a + b) * s - a]
        # the acceptance band cannot sit below float noise when the wealth
        # scale is huge, so widen it with the residual's natural magnitude
        band = max(CORNER_RESIDUAL_BAND, 64.0 * 2.3e-16 * (abs(a) + abs(b)))
        best = None
        for r in rootsolve.roots_in_unit(coeffs, 0.0, 1.0):
            if r < 1.0 and abs(residual(r)) <= band:
                best = r  # roots come back ascending; keep the largest that lands
        if best is None:
            self.corner_fallbacks += 1
            return solve_corner(residual, f0, f1)
        return best


class CoordinateImplicitCoin(_BettingCoin):
    """Per-coordinate closed-form variant: every coordinate runs its own 1-d
    betting game, coupled only through the shared corner scalar h, which is
    found by bisection. The unit bound is on the largest gradient entry."""

    variant = CLOSED_FORM
    inv_eta0 = CLOSED_FORM_INV_ETA0

    def _per_game(self, value):
        return np.full(self.dim, value)

    def _norm(self, g):
        return float(np.abs(g).max()) if self.dim else 0.0

    def _gdot(self, g, beta):
        return g * beta

    def _spend(self, wealth, x):
        return float(wealth @ x)

    def _total(self, wealth):
        return float(wealth.sum())

    def _round(self, g, nrm, s):
        # per coordinate, dq(h) = h * (gA + h * gB) on both branches
        beta = self.beta
        small = np.abs(beta) < SHRINK_THRESHOLD
        eta = 1.0 / self.inv_eta
        gsq = g * g
        gabs = np.abs(g)
        egb = (2.0 * eta) * gsq * s
        gA = np.where(small, -eta * gsq - 2.0 * egb, (-2.0 * SHRINK_GAIN) * eta * gabs * s)
        gB = np.where(small, egb, 0.0)

        def dq(h):
            return h * (gA + h * gB)

        def commit(h):
            k = gsq * (h * (2.0 - h))
            stepped = beta - eta * (h * g + 2.0 * k * beta)
            shrunk = beta * (1.0 - 2.0 * SHRINK_GAIN * h * eta * gabs)
            return (np.where(small, stepped, shrunk),
                    np.where(small, 2.0 * k, 2.0 * SHRINK_GAIN * h * gabs))

        return dq, commit
