"""Parameter-free coin-betting learners driven by truncated linear models.

Every variant plays one fused round in its `step`: predict w = beta * wealth,
receive one loss value and one subgradient g, scale g by h in [0, 1] (h < 1
exactly when the full step would cross the model's corner), then update the
betting fraction and the wealth multiplicatively. With s = <g, beta> and
dq(h) = <g, beta_next(h)> - s, q = s + dq, the corner equation
loss + <g, w_next(h) - w> = 0 reads loss + W (dq - h q s) / (1 + (h-1) q):
the residual has no <g, w> term to cancel, so its float noise scales with
the loss, and it is exactly the loss at h = 0.

A round checks its input from one g.g (from |g| for the per-coordinate
variant), and a zero gradient returns at once. When the round is handed the
example whose oracle produced g, and g is the example's own x or neg_x, the
check reads the statistics the example carries (`losses.LabeledExample`:
sq_norm, or abs_x and abs_max) instead of recomputing them, and g = ex.zero
is a zero round; they are the bits the round would compute, so the choice
changes no number. Otherwise it takes f(1), the
residual of the full round, from dq(1) and commits at h = 1 if f(1) >= 0;
else the full round would cross the corner, and `solve_corner`, safeguarded
Newton inside the bracket, finds h from the residual built on the same
formula before the round commits there. That residual is a closure that a
module function builds on corner rounds only (`_step_residual`,
`_projected_residual`, `_shrink_residual`, `_cw_residual`), so no per-round
function, neither a `step` nor `solve_corner`, holds a closure cell, which
Python would make on every call, zero rounds and Newton steps included; the
per-coordinate residual evaluates into buffers allocated once per corner.
Each update is stated once, as a
function of h that the round takes at h = 1 and at the solved corner:
`_step_dq`/`_step_beta` for the unprojected step, which the projected
variant projects and `ImplicitCoin` takes on small fractions,
`_shrink_dq`/`_shrink_beta` for `ImplicitCoin`'s shrink branch, and
`_cw_beta` for the per-coordinate games, whose corner residual comes from
cubic coefficients in h.

Traced and untraced rounds run the same arithmetic. The trace record is
built in the round's tail (`_BettingCoin._stay` and `_move`) from values the
round computed anyway, so a `trace_cb` never changes an iterate, a counter or
a bit of the state.

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

_F64 = np.dtype(np.float64)
_SMALL_SQ = SHRINK_THRESHOLD * SHRINK_THRESHOLD

# The per-coordinate corner residual's numerator N = dq - h q s and
# denominator D = 1 + (h-1) q are cubics in h, since dq(h) = h gA + h^2 gB.
# Row 2k (2k+1) holds the h^k coefficient of N (D) over the basis
# (1, s, s^2, gA, gA s, gB, gB s); every entry is 0 or +-1 and no row has
# more than two nonzero entries, so the product has the bits of the
# elementwise sums.
_CW_COEFFS = np.array((
    (0, 0, 0, 0, 0, 0, 0),     # N: h^0
    (1, -1, 0, 0, 0, 0, 0),    # D: 1 - s
    (0, 0, -1, 1, 0, 0, 0),    # N: h^1, gA - s^2
    (0, 1, 0, -1, 0, 0, 0),    # D: s - gA
    (0, 0, 0, 0, -1, 1, 0),    # N: h^2, gB - gA s
    (0, 0, 0, 1, 0, -1, 0),    # D: gA - gB
    (0, 0, 0, 0, 0, 0, -1),    # N: h^3, -gB s
    (0, 0, 0, 0, 0, 1, 0),     # D: gB
), dtype=np.float64)


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

    # the slots are set here: an __init__ call costs more than the cells it
    # replaces
    finish = _Bracket()
    finish.fd, finish.lo, finish.hi, finish.flo, finish.fhi, finish.evals = fd, lo, hi, flo, fhi, 0
    h = rootsolve.bisect(finish.at, lo, hi, CORNER_WIDTH_ULPS * math.ulp(hi))
    return h, evals + finish.evals


class _Bracket:
    """The residual as `solve_corner`'s bisection finish sees it: the ends of
    the Newton phase's bracket are answered from its cache, and every other
    point (bisect evaluates the ends first, then only points strictly
    inside) is evaluated and counted in evals."""

    __slots__ = ("fd", "lo", "hi", "flo", "fhi", "evals")

    def at(self, h):
        if h == self.lo:
            return self.flo
        if h == self.hi:
            return self.fhi
        self.evals += 1
        return self.fd(h)[0]


# -- the one-game updates as functions of h ------------------------------------
# gg = g.g (the square of the checked norm), s = <g, beta>, eta = 1 / inv_eta.

def _step_dq(h, gg, s, eta):
    """dq(h) of the unprojected step beta - eta (h g + 2 k beta), with
    k = g.g h (2 - h)."""
    return -eta * (h * gg + 2.0 * (gg * h * (2.0 - h)) * s)


def _step_slope(h, gg, s, eta):
    """d dq / dh of the unprojected step."""
    return -eta * (gg + 2.0 * (gg * (2.0 - 2.0 * h)) * s)


def _step_beta(beta, g, gg, eta, h):
    """The unprojected step's beta_next(h) and its 1/eta increment 2k. At
    h = 1, h g is g, so a full round skips that product."""
    k2 = 2.0 * (gg * h * (2.0 - h))
    return beta - eta * ((g if h == 1.0 else h * g) + k2 * beta), k2


def _projected_dq(h, gg, s, bb, eta):
    """dq(h) and its slope of the unprojected step projected onto the
    half-unit ball: a scalar replay of <g, .> and the projection factor,
    with bb = <beta, beta>."""
    k = gg * h * (2.0 - h)
    dk = gg * (2.0 - 2.0 * h)
    step, dstep = _step_dq(h, gg, s, eta), _step_slope(h, gg, s, eta)
    raw_sq = (bb - 2.0 * eta * (h * s + 2.0 * k * bb)
              + eta * eta * (h * h * gg + 4.0 * h * k * s + 4.0 * k * k * bb))
    scale = 2.0 * math.sqrt(max(raw_sq, 0.0))
    if scale <= 1.0 + PROJECTION_SLACK:
        return step, dstep
    draw_sq = (-2.0 * eta * (s + 2.0 * dk * bb)
               + eta * eta * (2.0 * h * gg + 4.0 * (k + h * dk) * s + 8.0 * k * dk * bb))
    dscale = 2.0 * draw_sq / scale
    return (s + step) / scale - s, (dstep * scale - (s + step) * dscale) / (scale * scale)


def _shrink_dq(h, nrm, s, eta):
    """dq(h) of the shrink branch beta (1 - 2 gain eta h ||g||); linear in
    h, so its slope is dq(1)."""
    return (-2.0 * SHRINK_GAIN) * eta * h * nrm * s


def _shrink_beta(beta, nrm, eta, h):
    return (beta * (1.0 - 2.0 * SHRINK_GAIN * eta * h * nrm),
            2.0 * SHRINK_GAIN * h * nrm)


def _cw_beta(beta, inv_eta, small, gsq, ag, gsmall, h):
    """Per-coordinate beta_next(h) and 1/eta increment: inc is 2 g^2 h (2 - h)
    where |beta| is small and 2 gain |g| h elsewhere, and beta_next =
    beta - (inc beta + h g [small]) / inv_eta. small is None when every
    coordinate is small. At h = 1, h g is g, so a full round skips that
    product."""
    inc = (2.0 * h * (2.0 - h)) * gsq
    if small is not None:
        inc = np.where(small, inc, (2.0 * SHRINK_GAIN * h) * ag)
    return beta - (inc * beta + (gsmall if h == 1.0 else h * gsmall)) / inv_eta, inc


# -- corner residuals, built per corner round ----------------------------------
# `_step_residual`, `_projected_residual`, `_shrink_residual` and
# `_cw_residual` each return fd(h) -> (residual, slope) for `solve_corner`,
# with the round's scalars (and the per-coordinate round's arrays) in its
# closure, so the steps themselves hold no closure cell.

def _one_game_residual(h, d, dd, loss, s, wealth):
    """loss + W (dq - h q s) / (1 + (h-1) q) and its slope, from dq(h) = d
    and its slope dd."""
    q = s + d
    num = d - h * q * s
    den = 1.0 + (h - 1.0) * q
    slope = (dd - q * s - h * s * dd) * den - num * (q + (h - 1.0) * dd)
    return loss + wealth * (num / den), wealth * slope / (den * den)


def _step_residual(loss, s, wealth, gg, eta):
    def fd(h):
        return _one_game_residual(h, _step_dq(h, gg, s, eta), _step_slope(h, gg, s, eta),
                                  loss, s, wealth)

    return fd


def _projected_residual(loss, s, wealth, gg, bb, eta):
    def fd(h):
        d, dd = _projected_dq(h, gg, s, bb, eta)
        return _one_game_residual(h, d, dd, loss, s, wealth)

    return fd


def _shrink_residual(loss, s, wealth, nrm, eta, dq1):
    def fd(h):  # linear in h: the slope is dq(1)
        return _one_game_residual(h, _shrink_dq(h, nrm, s, eta), dq1, loss, s, wealth)

    return fd


def _cw_residual(loss, wealth, inv_eta, ones, s, gsq, ag, small):
    """loss + sum_i W_i N_i / D_i and its slope for the per-coordinate
    games. dq(h) = h gA + h^2 gB on both branches, so one (2, 4) @ (4, 2d)
    product with the powers of h and their slopes gives N, D, N' and D' (see
    _CW_COEFFS). Every evaluation writes into the same buffers, whose fixed
    views are N, D, N' and D', so it builds no array."""
    eta = ones / inv_eta
    gB = (eta + eta) * gsq * s  # 2 eta g^2 s on the small branch, else 0
    if small is not None:
        gB *= small
    gA = -eta * gsq - (gB + gB)
    if small is not None:
        gA = np.where(small, gA, (-2.0 * SHRINK_GAIN) * eta * ag * s)
    d = s.size
    K = _CW_COEFFS.dot(np.array((ones, s, s * s, gA, gA * s, gB, gB * s)))
    K = K.reshape(4, 2 * d)
    powers = np.zeros((2, 4))  # rows (1, h, h^2, h^3) and their slopes
    powers[0, 0] = powers[1, 1] = 1.0
    r = np.empty((2, 2 * d))
    num, den, dnum, dden = r[0, :d], r[0, d:], r[1, :d], r[1, d:]
    q, slope = np.empty(d), np.empty(d)  # N / D and (N' - q D') / D
    dot, divide, multiply, subtract = np.dot, np.divide, np.multiply, np.subtract

    def fd(h):
        hh = h * h
        powers[0, 1] = h
        powers[0, 2] = hh
        powers[0, 3] = hh * h
        powers[1, 2] = 2.0 * h
        powers[1, 3] = 3.0 * hh
        dot(powers, K, out=r)
        divide(num, den, out=q)
        multiply(q, dden, out=slope)
        subtract(dnum, slope, out=slope)
        divide(slope, den, out=slope)
        return loss + float(wealth.dot(q)), float(wealth.dot(slope))

    return fd


class _BettingCoin:
    """State, counters and the fused round of the one-game variants; the
    per-coordinate variant overrides `step`.

    Counters: corner_rounds (rounds whose full step would cross the
    corner), residual_evals (residual evaluations of their solves) and
    grad_norm_warnings (gradients renormalised from float excess).
    corner_fallbacks stays 0, since every corner takes the same solve; the
    benchmark's per-layer report still reads it."""

    variant = None
    inv_eta0 = None

    def __init__(self, dim, trace_cb=None):
        self.dim = int(dim)
        self._shape = (self.dim,)
        self.beta = np.zeros(self.dim)
        self.wealth = self._per_game(1.0)
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

    @staticmethod
    def _total(wealth):
        return wealth

    def predict(self):
        return self.beta * self.wealth

    def _checked(self, loss_value, g):
        """The round's input as (float loss, float64 g of the learner's
        shape); a loss that is negative or not finite, or a gradient of
        another shape, raises ValueError."""
        loss_value = float(loss_value)
        if not 0.0 <= loss_value < math.inf:  # also rejects nan
            raise ValueError(f"loss value must be finite and >= 0, got {loss_value}")
        if type(g) is not np.ndarray or g.dtype is not _F64:
            g = np.asarray(g, dtype=np.float64)
        if g.shape != self._shape:
            raise ValueError(f"gradient shape {g.shape} != ({self.dim},)")
        return loss_value, g

    def _excess(self, nrm):
        """Whether a gradient of norm nrm must be renormalised: float excess
        over the unit bound is counted, more (or a nan) raises ValueError."""
        if not nrm <= 1.0 + GRAD_NORM_SLACK:  # also rejects nan entries
            raise ValueError(f"gradient norm {nrm} exceeds the unit bound")
        if nrm > 1.0:
            self.grad_norm_warnings += 1
            return True
        return False

    def step(self, loss_value, g, ex=None):
        """One round; returns w_next. ex, when given, is the example whose
        oracle produced g: the input check reads its cached g.g when g is
        one of its arrays. Bad input, or a wealth that would overflow,
        raises ValueError before any state changes. A round that does not
        move returns the held iterate: the array the last round returned,
        unless the state was replaced since."""
        loss_value, g = self._checked(loss_value, g)
        if ex is not None and (g is ex.x or g is ex.neg_x):
            nrm = math.sqrt(ex.sq_norm)
        elif ex is not None and g is ex.zero:
            nrm = 0.0
        else:
            nrm = math.sqrt(float(g.dot(g)))
        if nrm == 0.0:  # a zero gradient
            return self._stay(loss_value, g, None)
        if self._excess(nrm):
            g = g / nrm
            nrm = 1.0

        beta, wealth = self.beta, self.wealth
        gg = nrm * nrm
        s = float(g.dot(beta))
        bb = float(beta.dot(beta))
        eta = 1.0 / self.inv_eta
        # the projected variant projects the unprojected step; the
        # closed-form one takes it while the fraction is small, else shrinks
        projects = self.variant == PROJECTED
        shrinks = not projects and not bb < _SMALL_SQ
        if projects:
            dq1 = _projected_dq(1.0, gg, s, bb, eta)[0]
        elif shrinks:
            dq1 = _shrink_dq(1.0, nrm, s, eta)
        else:
            dq1 = _step_dq(1.0, gg, s, eta)
        h, evals = 1.0, None
        f1 = loss_value + wealth * (dq1 - (s + dq1) * s)  # den = 1 at h = 1
        if f1 < 0.0:  # the full round would cross the corner
            if projects:
                fd = _projected_residual(loss_value, s, wealth, gg, bb, eta)
            elif shrinks:
                fd = _shrink_residual(loss_value, s, wealth, nrm, eta, dq1)
            else:
                fd = _step_residual(loss_value, s, wealth, gg, eta)
            h, evals = solve_corner(fd, loss_value, f1)
            if h == 0.0:  # a corner at the anchor
                return self._stay(loss_value, g, evals)

        if shrinks:
            beta_next, inc = _shrink_beta(beta, nrm, eta, h)
        else:
            beta_next, inc = _step_beta(beta, g, gg, eta, h)
            if projects:
                scale = 2.0 * math.sqrt(float(beta_next.dot(beta_next)))
                if scale > 1.0 + PROJECTION_SLACK:
                    beta_next = beta_next / scale
        wealth_next = wealth * (1.0 - s)
        if h != 1.0:  # a full round has denominator 1
            wealth_next /= 1.0 + (h - 1.0) * float(g.dot(beta_next))
        return self._move(loss_value, g, h, evals, beta_next, wealth_next, wealth_next, inc)

    # -- the round's tail: state, hold, counters and the trace record ----------

    def _stay(self, loss_value, g, evals):
        """A round that does not move (h = 0); returns the held iterate."""
        beta, wealth = self.beta, self.wealth
        held = self._held
        if held[0] is beta and held[1] is wealth:
            w, total = held[2], held[3]
        else:
            w, total = beta * wealth, self._total(wealth)
            self._held = (beta, wealth, w, total)
        self.t += 1
        if evals is not None:
            self.corner_rounds += 1
            self.residual_evals += evals
        if self.trace_cb is not None:
            self.trace_cb(StepTrace(self.t, w, g, loss_value, 0.0, w, beta, beta,
                                    total, total))
        return w

    def _move(self, loss_value, g, h, evals, beta_next, wealth_next, total, inc):
        """A round that moves to (beta_next, wealth_next), whose total wealth
        is total; returns w_next. Raises before any state changes when the
        wealth overflows."""
        if not total < math.inf:
            raise ValueError(f"wealth overflows to {total} at round {self.t + 1}")
        beta, wealth = self.beta, self.wealth
        held = self._held
        w_next = beta_next * wealth_next
        self._held = (beta_next, wealth_next, w_next, total)
        self.beta = beta_next
        self.wealth = wealth_next
        self.inv_eta = self.inv_eta + inc
        self.t += 1
        if evals is not None:
            self.corner_rounds += 1
            self.residual_evals += evals
        if self.trace_cb is not None:
            # w (same bits as beta * wealth) and the total wealth before the
            # round: held unless the state was replaced since
            if held[0] is beta and held[1] is wealth:
                w, total_before = held[2], held[3]
            else:
                w, total_before = beta * wealth, self._total(wealth)
            self.trace_cb(StepTrace(self.t, w, g, loss_value, h, w_next, beta,
                                    beta_next, total_before, total))
        return w_next


class ProjectedImplicitCoin(_BettingCoin):
    """Betting step projected onto the half-unit ball; corner h by
    `solve_corner`, since the projection leaves the corner equation without
    a closed form."""

    variant = PROJECTED
    inv_eta0 = PROJECTED_INV_ETA0


class ImplicitCoin(_BettingCoin):
    """Projection-free variant: near the ball boundary the fraction is shrunk
    instead of projected, so the corner equation is a cubic (or quadratic)
    in h; `solve_corner` finds its root from the same residual as the other
    variants, and a full round costs a few vector operations."""

    variant = CLOSED_FORM
    inv_eta0 = CLOSED_FORM_INV_ETA0


class CoordinateImplicitCoin(_BettingCoin):
    """Per-coordinate closed-form variant: every coordinate runs its own 1-d
    betting game, coupled only through the shared corner scalar h, which is
    found by `solve_corner`. The unit bound is on the largest gradient
    entry."""

    variant = CLOSED_FORM
    inv_eta0 = CLOSED_FORM_INV_ETA0

    def __init__(self, dim, trace_cb=None):
        super().__init__(dim, trace_cb)
        # per-coordinate constants, so the round multiplies and compares
        # arrays with arrays
        self._ones = np.ones(self.dim)
        self._threshold = np.full(self.dim, SHRINK_THRESHOLD)

    def _per_game(self, value):
        return np.full(self.dim, value)

    @staticmethod
    def _total(wealth):
        return float(np.add.reduce(wealth))  # the bits of wealth.sum()

    def step(self, loss_value, g, ex=None):
        loss_value, g = self._checked(loss_value, g)
        if ex is not None and (g is ex.x or g is ex.neg_x):
            ag, nrm = ex.abs_x, ex.abs_max
        elif (ex is not None and g is ex.zero) or not np.count_nonzero(g):
            nrm = 0.0  # a zero gradient builds no |g|; a nan entry is nonzero
        else:
            ag = np.abs(g)
            nrm = float(ag[ag.argmax()])  # the first nan, if there is one
        if nrm == 0.0:
            return self._stay(loss_value, g, None)
        if self._excess(nrm):
            g = g / nrm
            ag = np.abs(g)

        beta, wealth, inv_eta = self.beta, self.wealth, self.inv_eta
        s = g * beta
        small = np.abs(beta) < self._threshold
        gsq = g * g
        if np.count_nonzero(small) == self.dim:
            # every coordinate on the small branch: a mask of ones, which
            # g * small and np.where would only copy through
            small, gsmall = None, g
        else:
            gsmall = g * small
        beta_next, inc = _cw_beta(beta, inv_eta, small, gsq, ag, gsmall, 1.0)
        # f(1) = loss + sum W (dq - (s + dq) s), dq = g beta_next - s, summed
        # as sum W (1 - s) g beta_next - sum W s to share W (1 - s) with the
        # commit
        wealth_next = wealth * (self._ones - s)  # the bits of 1.0 - s
        f1 = loss_value + float(wealth_next.dot(g * beta_next)) - float(wealth.dot(s))
        h, evals = 1.0, None
        if f1 < 0.0:  # the full round would cross the corner
            fd = _cw_residual(loss_value, wealth, inv_eta, self._ones, s, gsq, ag, small)
            h, evals = solve_corner(fd, loss_value, f1)
            if h == 0.0:  # a corner at the anchor
                return self._stay(loss_value, g, evals)
            beta_next, inc = _cw_beta(beta, inv_eta, small, gsq, ag, gsmall, h)
            wealth_next /= self._ones + (h - 1.0) * (g * beta_next)
        return self._move(loss_value, g, h, evals, beta_next, wealth_next,
                          float(np.add.reduce(wealth_next)), inc)
