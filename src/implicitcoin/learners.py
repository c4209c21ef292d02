"""Parameter-free coin-betting learners driven by truncated linear models.

Every variant plays one fused round in its `step`: predict w (beta * wealth;
u (a wealth) for the one-game variants, whose fraction is beta = a u), receive
one loss value and one subgradient g, scale g by h in [0, 1] (h < 1
exactly when the full step would cross the model's corner), then update the
betting fraction and the wealth multiplicatively. With s = <g, beta> and
dq(h) = <g, beta_next(h)> - s, q = s + dq, the corner equation
loss + <g, w_next(h) - w> = 0 reads loss + W (dq - h q s) / (1 + (h-1) q):
the residual has no <g, w> term to cancel, so its float noise scales with
the loss, and it is exactly the loss at h = 0.

A round checks its input with `losses.round_input`, the one check of every
algorithm, and a g.g of 0 (for the per-coordinate variant, every entry 0)
returns at once, before any norm is taken. Otherwise it bounds the norm
(from |g| per coordinate, read off the example's abs_x, abs_max, sq_x and
twice_sq_x when g is its x or neg_x) and commits at h = 1 if f(1), the
residual of the full round, is >= 0; else `solve_corner`, safeguarded Newton
with quadratic steps inside the bracket that closes the bracket itself,
finds h on a residual built on corner rounds only, so no per-round function
holds a closure cell: `_poly_residual` (an unprojected one-game round's
residual times its positive denominator, a Horner cubic from the step's
dq(h) = dA h + dB h^2), `_projected_residual` (the same dq(h), projected)
and `_CwCorner` (the per-coordinate cubics, on buffers held by the learner).

The one-game state is scaled (see `_BettingCoin`): a full round is one
dot, one axpy (the unprojected step at h) and one scale. The branch of a
round is read off the fraction's size, which every variant bounds from the
last round's step and measures only when the bound reaches the shrink
threshold, or, for the projected variant, the point where a step could
leave the ball: below it the projected variant plays `ImplicitCoin`'s
unprojected round (its corner on the Horner polynomial), and above it
replays the projection. Traced and untraced rounds run the same
arithmetic; the trace record is built from values the round computed
anyway (beta and beta_next as a u, on traced rounds only).

Every learner holds the iterate it last returned with its total wealth (a
one-game total is its float wealth, a per-coordinate one is summed on traced
rounds only), or None: assigning beta or wealth drops the hold. A round that
does not move (h = 0: a zero gradient, or a corner at the anchor) is the one
`_Coin._stay`, which returns the held iterate, else a fresh `predict()`. A
trace record's w and total wealth before the round come from the hold.

A learner never writes into an array it has stored, returned or been
given, so trace records share arrays with the learner and the caller
instead of copying, and the gradients may be read-only.
"""

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import rootsolve
from .losses import round_input

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
# Evaluation cap of the Newton phase, past which a solve only bisects: a
# bisection halves [0, 1] to float resolution in about 60 steps, so a solve
# that needs more has met a residual Newton cannot speed up.
CORNER_MAX_EVALS = 64
# The one-game scale a is folded into u once it falls to this: a^2 in
# beta.beta = a^2 u.u stays a normal float, and u = beta / a far from overflow.
_FOLD_BELOW = 2.0 ** -500

_SMALL_SQ = SHRINK_THRESHOLD * SHRINK_THRESHOLD
# A bound on |beta| grown by a step's largest move is widened by this factor,
# past the few roundings of the step and of the bound itself.
_REACH_SLACK = 1.0 + 2.0 ** -40
# A one-game fraction whose norm is bounded below this is small: beta.beta,
# summed in float, stays below _SMALL_SQ for any d below 2^30.
_SMALL_REACH = SHRINK_THRESHOLD * (1.0 - 2.0 ** -20)
_NO_REACH = (None, None, math.inf, 0.0)
# A projected step whose norm is bounded below this stays inside the ball:
# 2 ||beta_next||, replayed in float, stays below 1 + PROJECTION_SLACK.
_INSIDE = BETA_RADIUS * (1.0 - 2.0 ** -20)

# The per-coordinate residual's N = dq - h q s and D = 1 + (h-1) q are cubics:
# dq(h) = -h (e + 4 e s) + 2 h^2 e s on the small branch (e = g^2 / inv_eta),
# -h c s on the shrink one (c = 2 gain |g| / inv_eta). Rows 2k, 2k+1 hold the h^k
# coefficients of N, D over (1, s, e s, c s, s^2, e s^2, c s^2, e), e 0 where c is
# not: the three squares are the three linear terms times s, one product.
_CW_COEFFS = np.array((
    (0, 0, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),       # h^0
    (0, 0, -4, -1, -1, 0, 0, -1), (0, 1, 4, 1, 0, 0, 0, 1),    # h^1
    (0, 0, 3, 0, 0, 4, 1, 0), (0, 0, -6, -1, 0, 0, 0, -1),     # h^2
    (0, 0, 0, 0, 0, -2, 0, 0), (0, 0, 2, 0, 0, 0, 0, 0),       # h^3
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


def solve_corner(fd, f0, f1, slope0=None):
    """Corner h in [0, 1) from residual(0) = f0 >= 0 > residual(1) = f1.

    fd(h) returns the residual and its slope. Safeguarded Newton (rtsafe,
    Press et al., Numerical Recipes, section 9.4) keeps the bracket
    f(lo) >= 0 > f(hi). It starts from the secant point of the known ends,
    or, given slope0 < 0, the residual's slope at 0, from the root in [0, 1)
    of the quadratic through (0, f0) with that slope and (1, f1). Its first
    two steps go to the root nearest x of the quadratic with x's value and
    slope through the point evaluated before x (the bracket end across the
    root, at first), or take Newton's step where that quadratic has no root;
    later steps are Newton's. It bisects whenever a step leaves the bracket
    or CORNER_MAX_EVALS evaluations are spent, and a step shorter than half
    the target width goes that half-width past the root, so the next point
    closes the bracket from the other side. It stops when the bracket is
    CORNER_WIDTH_ULPS ulps of hi wide or lo holds an exact root. One
    `rootsolve.bisect` call given only the two known ends finishes it: its
    sign-change check is the safeguard, and on the closed bracket it takes
    no step. Returns (h, evaluations of fd).
    """
    width, cap, ulp = CORNER_WIDTH_ULPS, CORNER_MAX_EVALS, math.ulp
    lo, hi, flo, fhi = 0.0, 1.0, f0, f1
    evals = 0
    x = f0 / (f0 - f1)  # secant point
    if slope0 is not None and slope0 < 0.0:  # q(h) = f0 + slope0 h + k h^2, q(1) = f1
        disc = slope0 * slope0 - 4.0 * ((f1 - f0) - slope0) * f0
        if 0.0 <= disc < math.inf:  # q's one root in [0, 1), in a form that does not cancel
            x = 2.0 * f0 / (math.sqrt(disc) - slope0)
    while flo != 0.0:
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
        if hi - lo <= width * ulp(hi):
            break
        if slope < 0.0 and evals < cap:
            dx = fx / slope
            if evals <= 2:  # later quadratic steps save no evaluation over Newton's
                if evals == 1:
                    px, pf = (hi, fhi) if fx >= 0.0 else (lo, flo)
                t = px - x  # never 0: no point is evaluated twice
                disc = slope * slope - 4.0 * fx * (((pf - fx) / t - slope) / t)
                if 0.0 <= disc < math.inf:
                    dx = 2.0 * fx / (slope - math.sqrt(disc))
                px, pf = x, fx
            half = 0.5 * width * ulp(x)
            if -half <= dx <= half:
                dx += math.copysign(half, dx)
            x -= dx
        else:
            px, pf = x, fx
            x = math.nan  # no falling slope, or past the Newton cap: bisect

    h = rootsolve.bisect({lo: flo, hi: fhi}.__getitem__, lo, hi, width * ulp(hi))
    return h, evals


# -- the one-game updates as functions of h ------------------------------------
# gg = g.g (the checked norm squared), s = <g, beta>, eta = 1 / inv_eta; the
# one-game fraction is beta = a u (see _BettingCoin). The unprojected step
# beta - eta (h g + 2 k beta), k = g.g h (2 - h), has dq(h) = dA h + dB h^2
# with dB = 2 eta g.g s and dA = -eta g.g - 2 dB; the shrink has dB = 0.

def _projected_dq(h, gg, s, bb, eta, dA, dB):
    """dq(h) and its slope of the unprojected step (dq = dA h + dB h^2)
    projected onto the half-unit ball: a scalar replay of <g, .> and the
    projection factor, with bb = <beta, beta>."""
    k = gg * h * (2.0 - h)
    dk = gg * (2.0 - 2.0 * h)
    step, dstep = (dA + dB * h) * h, dA + 2.0 * dB * h
    raw_sq = (bb - 2.0 * eta * (h * s + 2.0 * k * bb)
              + eta * eta * (h * h * gg + 4.0 * h * k * s + 4.0 * k * k * bb))
    scale = 2.0 * math.sqrt(max(raw_sq, 0.0))
    if scale <= 1.0 + PROJECTION_SLACK:
        return step, dstep
    draw_sq = (-2.0 * eta * (s + 2.0 * dk * bb)
               + eta * eta * (2.0 * h * gg + 4.0 * (k + h * dk) * s + 8.0 * k * dk * bb))
    dscale = 2.0 * draw_sq / scale
    return (s + step) / scale - s, (dstep * scale - (s + step) * dscale) / (scale * scale)


# -- corner residuals, built per corner round ----------------------------------
# Each gives fd(h) -> (residual, slope) for `solve_corner`, with the round's
# scalars (and arrays) in a closure made outside the steps, which hold no cell.

def _poly_residual(loss, s, wealth, dA, dB):
    """The one-game corner residual times its denominator D = 1 + (h-1) q > 0
    for dq(h) = dA h + dB h^2: P(h) = loss D + W (dq - h q s), a cubic (a
    quadratic on the shrink branch, dB = 0) evaluated by Horner from
    coefficients computed once. Returns fd, P(0) and P(1) as fd gives them,
    and the slope P'(0)."""
    c0 = loss * (1.0 - s)
    c1 = loss * (s - dA) + wealth * (dA - s * s)
    c2 = loss * (dA - dB) + wealth * (dB - dA * s)
    c3 = dB * (loss - wealth * s)

    def fd(h):
        return ((c3 * h + c2) * h + c1) * h + c0, (3.0 * c3 * h + 2.0 * c2) * h + c1

    return fd, c0, ((c3 + c2) + c1) + c0, c1


def _projected_residual(loss, f1, s, wealth, gg, bb, eta, dA, dB):
    """loss + W (dq - h q s) / (1 + (h-1) q) and its slope, with dq(h) and
    its slope from _projected_dq. Returns fd, the residual at 0 and at 1
    (loss and the round's f1) and no slope at 0, as _poly_residual does."""
    def fd(h):
        d, dd = _projected_dq(h, gg, s, bb, eta, dA, dB)
        q = s + d
        num = d - h * q * s
        den = 1.0 + (h - 1.0) * q
        slope = (dd - q * s - h * s * dd) * den - num * (q + (h - 1.0) * dd)
        return loss + wealth * (num / den), wealth * slope / (den * den)

    return fd, loss, f1, None


class _CwCorner:
    """The per-coordinate corner residual: closures over buffers allocated
    once per learner, pickled as the dimension d. build(loss, wealth, g, beta,
    gsq, inv_eta, ag, small) sets K, the cubics' coefficients, in one product
    (small is None when every coordinate is small; s = g beta); fd(h) ->
    (loss + sum_i W_i N_i / D_i, its slope) is a (2d, 4) @ (4, 2) product with
    the powers of h (stored through a memoryview, at half the cost of numpy's
    item assignment), a complex division and the quotients' real and
    imaginary parts times W, one (2, d) @ (d,) product; each product is the
    ndarray.dot method, as np.dot's dispatch costs about as much as the
    product itself. N + i EPS N' over D + i EPS D'
    (EPS = 2^-600) is N / D + i EPS (N' - (N / D) D') / D, as EPS^2 terms
    underflow (numpy takes the real part as N * (1 / D), float noise off N /
    D). den_at(h) is the D_i(h) = 1 + (h-1) <g, beta_next(h)>_i by which a
    corner divides the h = 1 wealth, a view valid until the next call."""

    __slots__ = ("d", "build", "fd", "den_at")

    def __init__(self, d):
        basis = np.ones((8, d))  # over _CW_COEFFS' columns
        basis[3::3] = 0.0  # c s and c s^2, set on mixed corners only
        _, row_s, row_es, row_cs, _, _, _, row_e = basis
        linear, squares = basis[1:4], basis[4:7]
        K, powers, pairs = np.empty((8, d)), np.zeros((4, 2)), np.empty((2 * d, 2))
        KT, p = K.reshape(4, 2 * d).T, memoryview(powers.reshape(8))  # KT row i: N_i, d + i: D_i
        eps = 2.0 ** -600
        powers[0, 0], powers[1, 1] = 1.0, eps  # row k: h^k and EPS times its slope
        nd = pairs.view(np.complex128).reshape(2 * d)  # N_i + i EPS N_i', then the D_i
        num, den, den_real = nd[:d], nd[d:], pairs[d:, 0]
        q = np.empty(d, np.complex128)
        q_pairs, given = q.view(np.float64).reshape(d, 2).T, [0.0, None]  # loss, wealth
        coeffs_dot, kt_dot, divide, multiply = _CW_COEFFS.dot, KT.dot, np.divide, np.multiply
        eps2, eps3, scale = 2.0 * eps, 3.0 * eps, 1.0 / eps

        def build(loss_value, wealth, g, beta, gsq, inv_eta, ag, small):
            s = multiply(g, beta, row_s)
            e = divide(gsq, inv_eta, row_e)
            if small is not None:  # e on the small coordinates, c s on the others
                e *= small
                multiply(np.where(small, 0.0, (2.0 * SHRINK_GAIN) * ag) / inv_eta, s, row_cs)
            multiply(e, s, row_es)
            multiply(linear, s, squares)
            coeffs_dot(basis, K)
            if small is not None:
                basis[3::3] = 0.0
            given[0], given[1] = loss_value, wealth

        def fd(h):
            hh = h * h
            p[2], p[4], p[5], p[6], p[7] = h, hh, eps2 * h, hh * h, eps3 * hh
            kt_dot(powers, pairs)
            divide(num, den, q)
            value, slope = q_pairs.dot(given[1]).tolist()  # sum_i W_i q_i, real and imaginary
            return given[0] + value, slope * scale

        def den_at(h):
            hh = h * h
            p[2], p[4], p[6] = h, hh, hh * h  # the slope column is not read
            kt_dot(powers, pairs)
            return den_real

        self.d, self.build, self.fd, self.den_at = d, build, fd, den_at

    def __reduce__(self):
        return _CwCorner, (self.d,)


def _held_by(name):
    """A property over the attribute name; assigning it drops the held iterate.
    It sets by setattr: vars() would leave every attribute slower to read."""
    def assign(self, value):
        setattr(self, name, value)
        self._held = None

    return property(attrgetter(name), assign)


class _Factor:
    """A round's scalar factor: a 0-d array (numpy multiplies by it faster than
    by a float), set through a memoryview at a third of array[()] = x's cost."""

    __slots__ = ("array", "view")

    def __init__(self):
        self.array = np.zeros(())
        self.view = memoryview(self.array)

    def __reduce__(self):
        return _Factor, ()


class _Coin:
    """Construction, counters, the input bound and the no-move round of the
    betting learners. Counters: corner_rounds (rounds whose full step would
    cross the corner), residual_evals (residual evaluations of their solves)
    and grad_norm_warnings (gradients renormalised from float excess)."""

    variant = None
    inv_eta0 = None
    corner_fallbacks = 0  # every corner takes the same solve; the benchmark reads it

    def __init__(self, dim, trace_cb=None):
        self.dim = int(dim)
        self._shape = (self.dim,)
        self.beta = np.zeros(self.dim)
        self.wealth = 1.0
        self.inv_eta = self.inv_eta0
        self.t = self.corner_rounds = self.residual_evals = self.grad_norm_warnings = 0
        self.trace_cb = trace_cb
        self._factor = _Factor()

    wealth = _held_by("_wealth")

    def _excess(self, nrm):
        """Whether a gradient of norm nrm must be renormalised: float excess
        over the unit bound is counted, more (or a nan) raises ValueError."""
        if not nrm <= 1.0 + GRAD_NORM_SLACK:  # also rejects nan entries
            raise ValueError(f"gradient norm {nrm} exceeds the unit bound")
        if nrm > 1.0:
            self.grad_norm_warnings += 1
            return True
        return False

    def _stay(self, loss_value, g, evals):
        """A round that does not move (h = 0); returns the held iterate."""
        held = self._held
        if held is None:
            held = self._held = (self.predict(), None)
        self.t += 1
        if evals is not None:
            self.corner_rounds += 1
            self.residual_evals += evals
        if self.trace_cb is not None:
            w, total = held
            total = float(np.add.reduce(self._wealth)) if total is None else total
            beta = self.beta
            self.trace_cb(StepTrace(self.t, w, g, loss_value, 0.0, w, beta, beta, total, total))
        return held[0]


class _BettingCoin(_Coin):
    """The scaled state and the fused round of the one-game variants: beta =
    a u with uu = u.u beside it, so s = a <g, u> and beta.beta = a^2 uu cost
    one dot, the shrink and the projection change a alone, the step is one
    axpy on u, and a at or below _FOLD_BELOW is folded into u. Reading `beta`
    builds a u once per move; assigning it sets u to it and a to 1. After an
    unprojected step a learner leaves uu None and keeps reach, a bound on
    ||beta||, which decides the branch while it is below _SMALL_REACH
    (`ImplicitCoin`) or keeps every step inside the ball (the projected
    variant); a projected round measures uu, and the next one starts from
    it."""

    @property
    def beta(self):
        if self._beta is None:
            self._beta = self._a * self._u
        return self._beta

    @beta.setter
    def beta(self, value):
        value = np.asarray(value, dtype=np.float64)
        self._u = self._beta = value
        self._a, self._uu, self._reach, self._held = 1.0, float(value.dot(value)), math.inf, None

    def predict(self):
        return self._u * (self._a * self._wealth)

    def step(self, loss_value, g, ex=None):
        """One round; returns w_next. ex, when given, is the example whose
        oracle produced g (its cached g.g is read when g is one of its
        arrays). Bad input, or a wealth that would overflow, raises
        ValueError before any state changes."""
        loss_value, g, gg = round_input(loss_value, g, ex, self._shape)
        if gg == 0.0:  # a zero gradient
            return self._stay(loss_value, g, None)
        nrm = math.sqrt(gg)
        if not nrm <= 1.0 and self._excess(nrm):
            g = g / nrm
            nrm = 1.0

        u, a, wealth, inv_eta, uu, reach, projected = (
            self._u, self._a, self._wealth, self.inv_eta, self._uu, self._reach, self._projected)
        gg = nrm * nrm
        gu = float(g.dot(u))
        s = a * gu
        eta = 1.0 / inv_eta
        # the closed-form variant takes the unprojected step while the fraction
        # is small, else shrinks; the projected one takes it where no h in
        # [0, 1] leaves the ball, else replays the projection: while eta g.g
        # <= 1, |1 - eta inc| <= 1 and ||beta_next(h)|| <= ||beta|| + eta ||g||.
        # A norm bound below limit decides without a dot.
        limit = (_SMALL_REACH if not projected else
                 _INSIDE - eta * nrm if eta * gg <= 1.0 else -math.inf)
        if uu is None and reach < limit:  # ||beta|| <= reach
            bb = None
            shrinks = projects = False
        else:
            if uu is None:
                uu = self._uu = float(u.dot(u))
            bb = a * a * uu
            shrinks = not projected and not bb < _SMALL_SQ
            projects = projected and not math.sqrt(bb) < limit
        if shrinks:  # beta (1 - 2 gain eta h ||g||): dq(h) = dA h
            dA, dB = (-2.0 * SHRINK_GAIN) * eta * nrm * s, 0.0
        else:  # the unprojected step: dq(h) = dA h + dB h^2
            dB = 2.0 * eta * gg * s
            dA = -eta * gg - (dB + dB)
        dq1 = _projected_dq(1.0, gg, s, bb, eta, dA, dB)[0] if projects else dA + dB
        h, evals = 1.0, None
        f1 = loss_value + wealth * (dq1 - (s + dq1) * s)  # den = 1 at h = 1
        if f1 < 0.0:  # the full round would cross the corner
            fd, p0, p1, slope0 = (
                _projected_residual(loss_value, f1, s, wealth, gg, bb, eta, dA, dB) if projects
                else _poly_residual(loss_value, s, wealth, dA, dB))
            if p1 < 0.0:  # else P, float noise off f1, puts the corner at h = 1
                h, evals = solve_corner(fd, p0, p1, slope0)
                if h == 0.0:  # a corner at the anchor
                    return self._stay(loss_value, g, evals)

        c, cv = self._factor.array, self._factor.view
        if shrinks:
            u_next, a_next = u, a * (1.0 - 2.0 * SHRINK_GAIN * eta * h * nrm)
            inc = 2.0 * SHRINK_GAIN * h * nrm
        else:  # beta_next(h) = a' u': a' = a (1 - eta inc), u' = u - (eta h / a') g
            inc = 2.0 * (gg * h * (2.0 - h))
            a_next = a * (1.0 - eta * inc)
            if a_next <= _FOLD_BELOW:  # u' = a' u - eta h g, a' = 1 (also when 1/eta < 2 g.g)
                cv[()] = eta * h
                u_next, a_next = a_next * u - c * g, 1.0
            else:
                cv[()] = eta * h / a_next
                u_next = u - c * g
            if projects:
                uu = float(u_next.dot(u_next))
                scale = 2.0 * abs(a_next) * math.sqrt(uu)
                if scale > 1.0 + PROJECTION_SLACK:
                    a_next = a_next / scale
            else:  # ||beta_next|| <= |1 - eta inc| ||beta|| + eta h ||g||
                reach = (abs(1.0 - eta * inc) * (reach if bb is None else math.sqrt(bb))
                         + eta * h * nrm) * _REACH_SLACK
                uu = None
        wealth_next = wealth * (1.0 - s)
        if h != 1.0:  # a full round has denominator 1
            wealth_next /= 1.0 + (h - 1.0) * a_next * (gu if shrinks else float(g.dot(u_next)))
        if not wealth_next < math.inf:
            raise ValueError(f"wealth overflows to {wealth_next} at round {self.t + 1}")
        if a_next <= _FOLD_BELOW:
            u_next = u_next * a_next
            uu = float(u_next.dot(u_next))
            a_next = 1.0
        cv[()] = a_next * wealth_next
        w_next = u_next * c

        trace_cb = self.trace_cb
        if trace_cb is not None:
            held = self._held  # w before the round, unless the state was replaced
            w = u * (a * wealth) if held is None else held[0]
            beta = self.beta
        self._u, self._a, self._uu, self._reach, self._beta = u_next, a_next, uu, reach, None
        self._wealth, self._held, self.inv_eta = wealth_next, (w_next, wealth_next), inv_eta + inc
        self.t += 1
        if evals is not None:
            self.corner_rounds += 1
            self.residual_evals += evals
        if trace_cb is not None:
            trace_cb(StepTrace(self.t, w, g, loss_value, h, w_next, beta, self.beta,
                               wealth, wealth_next))
        return w_next


class ProjectedImplicitCoin(_BettingCoin):
    """Betting step projected onto the half-unit ball; corner h by
    `solve_corner`. Where a bound on ||beta|| shows that no h in [0, 1]
    reaches the boundary, the round is `ImplicitCoin`'s unprojected one, its
    corner on the Horner polynomial; elsewhere the corner residual replays
    the projection, which leaves it without a polynomial form."""

    variant = PROJECTED
    inv_eta0 = PROJECTED_INV_ETA0
    _projected = True


class ImplicitCoin(_BettingCoin):
    """Projection-free variant: near the ball boundary the fraction is shrunk
    instead of projected, so the corner equation is a cubic (or quadratic)
    in h; `solve_corner` finds its root on that polynomial, and a full round
    costs a few vector operations."""

    variant = CLOSED_FORM
    inv_eta0 = CLOSED_FORM_INV_ETA0
    _projected = False


class CoordinateImplicitCoin(_Coin):
    """Per-coordinate closed-form variant: every coordinate runs its own 1-d
    betting game, coupled only through the shared corner scalar h, found by
    `solve_corner`. The unit bound is on the largest gradient entry.

    A round whose coordinates are all small keeps _reach = (beta, inv_eta,
    r, m): r bounds the largest |beta_i| after it, m the least 1/eta_i. A
    small-branch step moves |beta_i| by at most |g_i| / (1/eta_i) <= max|g| /
    m, so while r grown by that stays below SHRINK_THRESHOLD, no |beta| is
    compared. The bound holds only for the arrays it names."""

    variant = CLOSED_FORM
    inv_eta0 = CLOSED_FORM_INV_ETA0

    def __init__(self, dim, trace_cb=None):
        super().__init__(dim, trace_cb)
        self.wealth = np.ones(self.dim)
        self.inv_eta = np.full(self.dim, self.inv_eta0)
        self._threshold = np.full(self.dim, SHRINK_THRESHOLD)  # compared array to array
        self._ones = np.ones(self.dim)
        self._corner, self._reach = _CwCorner(self.dim), _NO_REACH

    beta = _held_by("_beta")

    def predict(self):
        return self._beta * self._wealth

    def step(self, loss_value, g, ex=None):
        loss_value, g, gg = round_input(loss_value, g, ex, self._shape)
        # g.g underflows for tiny entries, so only every entry 0 (a nan entry
        # is nonzero) makes a zero gradient, which builds no |g|
        if gg == 0.0 and ((ex is not None and g is ex.zero) or not np.count_nonzero(g)):
            return self._stay(loss_value, g, None)
        if ex is not None and (g is ex.x or g is ex.neg_x):
            ag, nrm, gsq, inc = ex.abs_x, ex.abs_max, ex.sq_x, ex.twice_sq_x
        else:
            ag, gsq = np.abs(g), None
            nrm = float(ag[ag.argmax()])  # the first nan, if there is one
        if nrm == 0.0:  # an x of zeros, whatever its cached x.x: the round reads max |g|
            return self._stay(loss_value, g, None)
        if not nrm <= 1.0 and self._excess(nrm):
            g = g / nrm
            ag, gsq = np.abs(g), None
        if gsq is None:
            gsq = g * g
            inc = gsq + gsq

        # beta_next(h) = beta - (inc beta + h g [small]) / inv_eta, inc = 2 g^2 h (2 - h)
        # where |beta| is small, 2 gain |g| h elsewhere (small is None if all are)
        beta, wealth, inv_eta, held = self._beta, self._wealth, self.inv_eta, self._held
        key_beta, key_inv_eta, r, m = self._reach
        if key_beta is beta and key_inv_eta is inv_eta and r < SHRINK_THRESHOLD:
            small, gsmall = None, g
        else:
            ab = np.abs(beta)
            small = ab < self._threshold
            if np.count_nonzero(small) == self.dim:
                small, gsmall = None, g
                r, m = float(ab[ab.argmax()]), float(inv_eta[inv_eta.argmin()])
                if not m >= 1.0:  # a step could then grow |beta_i| past r + |g_i| / m
                    r = math.inf
            else:
                gsmall = g * small
                inc = np.where(small, inc, (2.0 * SHRINK_GAIN) * ag)
        beta_next = beta - (inc * beta + gsmall) / inv_eta
        w = beta * wealth if held is None else held[0]  # held: the bits of beta * wealth
        wealth_next = wealth - g * w  # W (1 - g beta)
        w_next = beta_next * wealth_next
        f1 = loss_value + float(g.dot(w_next)) - float(g.dot(w))  # loss + <g, w_next - w>
        h, evals = 1.0, None
        if f1 < 0.0:  # the full round would cross the corner
            corner = self._corner
            corner.build(loss_value, wealth, g, beta, gsq, inv_eta, ag, small)
            h, evals = solve_corner(corner.fd, loss_value, f1)
            if h == 0.0:  # a corner at the anchor
                return self._stay(loss_value, g, evals)
            c, cv = self._factor.array, self._factor.view
            cv[()] = 2.0 * h * (2.0 - h)
            inc = c * gsq
            if small is not None:
                inc = np.where(small, inc, (2.0 * SHRINK_GAIN * h) * ag)
            cv[()] = h
            beta_next = beta - (inc * beta + c * gsmall) / inv_eta
            wealth_next /= corner.den_at(h)
            w_next = beta_next * wealth_next
        # summed for a record only: a finite f(1) >= 0 bounds every wealth_next
        # entry (an infinite one makes <g, w_next> infinite or nan); on a corner,
        # or past a non-finite f(1), one dot with ones is infinite or nan if an
        # entry is
        trace_cb, total, checked = self.trace_cb, None, 0.0
        if trace_cb is not None:
            total = checked = float(np.add.reduce(wealth_next))  # the bits of wealth_next.sum()
        elif evals is not None or not f1 < math.inf:
            checked = float(wealth_next.dot(self._ones))
        if not checked < math.inf:
            raise ValueError(f"wealth overflows to {checked} at round {self.t + 1}")
        inv_eta_next = inv_eta + inc
        self._reach = (_NO_REACH if small is not None else
                       (beta_next, inv_eta_next, (r + nrm / m) * _REACH_SLACK, m))
        self._beta, self._wealth, self._held = beta_next, wealth_next, (w_next, total)
        self.inv_eta = inv_eta_next
        self.t += 1
        if evals is not None:
            self.corner_rounds += 1
            self.residual_evals += evals
        if trace_cb is not None:  # the total wealth before the round, if held with w
            before = np.add.reduce(wealth) if held is None or held[1] is None else held[1]
            trace_cb(StepTrace(self.t, w, g, loss_value, h, w_next, beta, beta_next,
                               float(before), total))
        return w_next
