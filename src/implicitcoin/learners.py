"""Parameter-free coin-betting learners driven by truncated linear models.

Three variants share the same skeleton: predict w = beta * wealth, receive
one loss value and one subgradient, scale the subgradient by h in [0, 1]
(h < 1 exactly when the tentative full step would cross the model's corner),
then update the betting fraction and the wealth multiplicatively. The h=1
candidate is always tried first; corner rounds solve the implicit equation
loss + <g, w_next(h) - w> = 0, whose solution lands w_next on the corner.
ImplicitCoin solves it in closed form. The other two variants narrow the
sign change on [0, 1] with Illinois steps and finish it by bisection to float
resolution; the coordinate-wise residual is a precomputed rational function
of h, so each evaluation costs a handful of array operations.
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

GRAD_NORM_SLACK = 1e-9       # accepted float excess over the unit-norm bound
CORNER_RESIDUAL_BAND = 1e-8  # |residual| accepted at a solved corner
# Corner solves narrow the bracket [0, 1] to CORNER_NARROW_WIDTH with
# Illinois steps, then bisect it to CORNER_BRACKET_TOL, which is below float
# resolution on [0, 1]: the trajectory must match the closed-form variant to
# ~1e-12 in one dimension, and h matches a full-bracket bisection to ~1e-12.
CORNER_NARROW_WIDTH = 1e-12
CORNER_BRACKET_TOL = 1e-18


@dataclass(frozen=True)
class StepTrace:
    """Per-round record consumed by the diagnostics folds."""

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


def _checked_loss(loss_value):
    loss_value = float(loss_value)
    if not 0.0 <= loss_value < math.inf:  # also rejects nan
        raise ValueError(f"loss value must be finite and >= 0, got {loss_value}")
    return loss_value


def solve_corner(residual, f0, f1):
    """Corner h in (0, 1) from residual(0) = f0 >= 0 > residual(1) = f1.

    Illinois steps narrow [0, 1]; one bisection call finishes the bracket to
    float resolution, with its step bound as the safeguard. An exact root at
    the narrowed lo (a zero loss, say) comes back from that call unchanged.
    """
    lo, hi = rootsolve.narrow_bracket(residual, 0.0, 1.0, f0, f1, CORNER_NARROW_WIDTH)
    return rootsolve.bisect(residual, lo, hi, CORNER_BRACKET_TOL)


def wealth_update(wealth, beta, pair, beta_next):
    """One multiplicative wealth step.

    Both factors stay in [1/2, 3/2] whenever ||g|| <= 1 and the betting
    fractions stay in the half-unit ball, so the result is always positive.
    """
    num = 1.0 - float(pair.g @ beta)
    den = 1.0 + (pair.h - 1.0) * float(pair.g @ beta_next)
    return wealth * num / den


class _SharedWealthCoin:
    """Common skeleton of the two scalar-wealth variants."""

    variant = None

    def __init__(self, dim, initial_wealth=1.0, trace_cb=None):
        self.dim = int(dim)
        self.beta = np.zeros(self.dim)
        self.wealth = float(initial_wealth)
        self.inv_eta = self._initial_inv_eta()
        self.t = 0
        self.grad_norm_warnings = 0
        self.corner_fallbacks = 0
        self.trace_cb = trace_cb

    def predict(self):
        return self.beta * self.wealth

    def step(self, loss_value, g, ex=None):
        loss_value = _checked_loss(loss_value)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.dim,):
            raise ValueError(f"gradient shape {g.shape} != ({self.dim},)")
        nrm = math.sqrt(float(g @ g))
        if not nrm <= 1.0 + GRAD_NORM_SLACK:  # also rejects nan entries
            raise ValueError(f"gradient norm {nrm} exceeds the unit bound")
        if nrm > 1.0:
            g = g / nrm
            nrm = 1.0
            self.grad_norm_warnings += 1

        self.t += 1
        w = self.beta * self.wealth
        if nrm == 0.0:
            return self._finish(w, g, loss_value, 0.0, self.beta, self.wealth, w)

        gg = nrm * nrm
        s = float(g @ self.beta)
        bb = float(self.beta @ self.beta)
        eta = 1.0 / self.inv_eta
        wealth = self.wealth

        # With q = <g, beta_next(h)> = s + dq, <g, w_next(h) - w> equals
        # W * (dq - h q s) / (1 + (h-1) q): no <g, w> term to cancel, so the
        # float noise of the residual scales with the loss, not with the bet.
        # At h = 1 the denominator is exactly 1.
        h = 1.0
        dq = self._gdot_change(1.0, nrm, gg, s, bb, eta)
        f1 = loss_value + wealth * (dq - (s + dq) * s)
        if f1 < 0.0:
            def residual(h):
                dq = self._gdot_change(h, nrm, gg, s, bb, eta)
                q = s + dq
                return loss_value + wealth * (dq - h * q * s) / (1.0 + (h - 1.0) * q)

            h = self._corner_h(residual, loss_value, f1, nrm, gg, s, bb, eta)

        beta_next = self._beta_next(h, g, nrm, gg, bb, eta)
        # wealth_update from the scalars in hand; a full round has den = 1
        wealth_next = wealth * (1.0 - s)
        if h != 1.0:
            wealth_next /= 1.0 + (h - 1.0) * float(g @ beta_next)
        w_next = beta_next * wealth_next

        beta_prev, wealth_prev = self.beta, self.wealth
        self.beta = beta_next
        self.wealth = wealth_next
        self.inv_eta += self._inv_eta_increment(h, nrm, gg, bb)
        return self._finish(w, g, loss_value, h, beta_prev, wealth_prev, w_next)

    def _finish(self, w, g, loss_value, h, beta_prev, wealth_prev, w_next):
        if self.trace_cb is not None:
            self.trace_cb(StepTrace(
                t=self.t, w=w, g=g.copy(), loss_value=loss_value, h=h,
                w_next=w_next.copy(), beta=beta_prev.copy(), beta_next=self.beta.copy(),
                wealth_before=wealth_prev, wealth_after=self.wealth))
        return w_next

    def _initial_inv_eta(self):
        raise NotImplementedError

    def _corner_h(self, residual, f0, f1, nrm, gg, s, bb, eta):
        raise NotImplementedError

    def _gdot_change(self, h, nrm, gg, s, bb, eta):
        """<g, beta_next(h)> - <g, beta>."""
        raise NotImplementedError

    def _beta_next(self, h, g, nrm, gg, bb, eta):
        raise NotImplementedError

    def _inv_eta_increment(self, h, nrm, gg, bb):
        raise NotImplementedError


class ProjectedImplicitCoin(_SharedWealthCoin):
    """Betting step projected onto the half-unit ball; corner h by bisection.

    The projection makes the corner equation non-polynomial, hence no closed
    form for this variant.
    """

    variant = PROJECTED

    def _initial_inv_eta(self):
        return PROJECTED_INV_ETA0

    def _beta_next(self, h, g, nrm, gg, bb, eta):
        k = gg * h * (2.0 - h)
        raw = self.beta - eta * (h * g + (2.0 * k) * self.beta)
        scale = max(1.0, 2.0 * math.sqrt(float(raw @ raw)))
        return raw / scale

    def _gdot_change(self, h, nrm, gg, s, bb, eta):
        # scalar replay of _beta_next: <g, .> and the projection factor only
        k = gg * h * (2.0 - h)
        step = -eta * (h * gg + 2.0 * k * s)
        raw_sq = (bb - 2.0 * eta * (h * s + 2.0 * k * bb)
                  + eta * eta * (h * h * gg + 4.0 * h * k * s + 4.0 * k * k * bb))
        scale = 2.0 * math.sqrt(max(raw_sq, 0.0))
        if scale <= 1.0:
            return step
        return (s + step) / scale - s

    def _corner_h(self, residual, f0, f1, nrm, gg, s, bb, eta):
        return solve_corner(residual, f0, f1)

    def _inv_eta_increment(self, h, nrm, gg, bb):
        return 2.0 * gg * h * (2.0 - h)


class ImplicitCoin(_SharedWealthCoin):
    """Projection-free variant: near the ball boundary the fraction is shrunk
    instead of projected, so the corner h solves a cubic (or quadratic) in
    closed form and a round costs the same as a plain gradient step."""

    variant = CLOSED_FORM

    _SMALL_SQ = SHRINK_THRESHOLD * SHRINK_THRESHOLD

    def _initial_inv_eta(self):
        return CLOSED_FORM_INV_ETA0

    def _beta_next(self, h, g, nrm, gg, bb, eta):
        if bb < self._SMALL_SQ:
            k = gg * h * (2.0 - h)
            return self.beta - eta * (h * g + (2.0 * k) * self.beta)
        return self.beta * (1.0 - 2.0 * SHRINK_GAIN * eta * h * nrm)

    def _gdot_change(self, h, nrm, gg, s, bb, eta):
        if bb < self._SMALL_SQ:
            k = gg * h * (2.0 - h)
            return -eta * (h * gg + 2.0 * k * s)
        return (-2.0 * SHRINK_GAIN) * eta * h * nrm * s

    def _inv_eta_increment(self, h, nrm, gg, bb):
        if bb < self._SMALL_SQ:
            return 2.0 * gg * h * (2.0 - h)
        return 2.0 * SHRINK_GAIN * h * nrm

    def _corner_h(self, residual, f0, f1, nrm, gg, s, bb, eta):
        a = s * self.wealth - f0          # <g, w> - loss
        b = self.wealth * (1.0 - s)
        if bb < self._SMALL_SQ:
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


class CoordinateImplicitCoin:
    """Per-coordinate closed-form variant: every coordinate runs its own 1-d
    betting game, coupled only through the shared corner scalar h, which is
    found by bisection."""

    variant = CLOSED_FORM

    def __init__(self, dim, initial_wealth=1.0, trace_cb=None):
        self.dim = int(dim)
        self.beta = np.zeros(self.dim)
        self.wealth = np.full(self.dim, float(initial_wealth))
        self.inv_eta = np.full(self.dim, CLOSED_FORM_INV_ETA0)
        self.t = 0
        self.grad_norm_warnings = 0
        self.corner_fallbacks = 0
        self.trace_cb = trace_cb

    def predict(self):
        return self.beta * self.wealth

    def step(self, loss_value, g, ex=None):
        loss_value = _checked_loss(loss_value)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.dim,):
            raise ValueError(f"gradient shape {g.shape} != ({self.dim},)")
        ninf = float(np.abs(g).max()) if self.dim else 0.0
        if not ninf <= 1.0 + GRAD_NORM_SLACK:  # also rejects nan entries
            raise ValueError(f"gradient max entry {ninf} exceeds the unit bound")
        if ninf > 1.0:
            g = g / ninf
            self.grad_norm_warnings += 1

        self.t += 1
        w = self.beta * self.wealth
        if ninf == 0.0:
            return self._finish(w, g, loss_value, 0.0, self.beta, self.wealth, w)

        small = np.abs(self.beta) < SHRINK_THRESHOLD
        eta = 1.0 / self.inv_eta
        gsq = g * g
        gabs = np.abs(g)
        gb = g * self.beta
        gain = 1.0 - gb

        # On both branches g * beta_next(h) = p = gb + h * d with d = gA + h * gB.
        # Then g * (w_next - w) = W * h * (d - p * gb) / (1 + (h-1) p), so the
        # residual carries no <g, w> term and is exact at h = 0: its float noise
        # scales with the loss, not with the bet.
        egb = (2.0 * eta) * gsq * gb
        gA = np.where(small, -eta * gsq - 2.0 * egb, (-2.0 * SHRINK_GAIN) * eta * gabs * gb)
        gB = np.where(small, egb, 0.0)
        wealth = self.wealth

        def residual(h):
            d = gA + h * gB
            p = gb + h * d
            return loss_value + h * float(wealth @ ((d - p * gb) / (1.0 + (h - 1.0) * p)))

        h = 1.0
        f1 = residual(1.0)
        if f1 < 0.0:
            h = solve_corner(residual, loss_value, f1)

        k = gsq * (h * (2.0 - h))
        stepped = self.beta - eta * (h * g + 2.0 * k * self.beta)
        shrunk = self.beta * (1.0 - 2.0 * SHRINK_GAIN * h * eta * gabs)
        beta_next = np.where(small, stepped, shrunk)
        wealth_next = self.wealth * gain / (1.0 + (h - 1.0) * g * beta_next)
        w_next = beta_next * wealth_next

        beta_prev, wealth_prev = self.beta, self.wealth
        self.beta = beta_next
        self.wealth = wealth_next
        self.inv_eta = self.inv_eta + np.where(
            small, 2.0 * gsq * (h * (2.0 - h)), 2.0 * SHRINK_GAIN * h * gabs)
        return self._finish(w, g, loss_value, h, beta_prev, wealth_prev, w_next)

    def _finish(self, w, g, loss_value, h, beta_prev, wealth_prev, w_next):
        if self.trace_cb is not None:
            self.trace_cb(StepTrace(
                t=self.t, w=w, g=g.copy(), loss_value=loss_value, h=h,
                w_next=w_next.copy(), beta=beta_prev.copy(), beta_next=self.beta.copy(),
                wealth_before=float(np.sum(wealth_prev)),
                wealth_after=float(np.sum(self.wealth))))
        return w_next
