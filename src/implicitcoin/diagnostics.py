"""Executable invariant checks over per-round traces.

Each check is a fold: feed StepTrace records through update() and read a
BoundReport from report(). Slack is signed with positive meaning satisfied; a
check passes when the worst slack stays above minus its tolerance.

Every fold recomputes its quantities from the record's arrays, never from the
learner's own residual. A fold, like `WealthTraceWriter`, only holds the
records that update() gives it, in a window, and consumes a full window in
one vectorised pass: it stacks the fields it reads into arrays, takes row dot
products through matmul (the bits of `@` on each row) and running sums
through `np.cumsum` (the bits of a `+=` loop), so its report and its rows are
those of a fold that takes one record at a time, bit for bit. A window holds
records of one gradient size, at most WINDOW_RECORDS of them and at most
WINDOW_ENTRIES gradient entries in all, and at least one record. The folds and
the writer that a run feeds the same records in turn stack each field of a
window once, since the window consumed last is kept with its arrays.

Results are complete only at report() of a fold and close() of the writer,
which consume the partial window. Until then a record and its arrays must
not be mutated.
"""

import math
from dataclasses import dataclass
from operator import attrgetter, is_

import numpy as np

from .learners import CLOSED_FORM, PROJECTED, ImplicitCoin

CORNER_TOL = 1e-8          # residuals pass through one root solve
IDENTITY_TOL = 1e-9        # long alternating sums
LOG_WEALTH_TOL = 1e-6      # sums of logs over many rounds
ALGEBRA_TOL = 1e-12        # direct algebraic identities

WINDOW_RECORDS = 256       # records a window holds at most
WINDOW_ENTRIES = 1 << 16   # gradient entries a window holds at most, unless one record has more


class _Window:
    """The records one pass consumes, with each stacked field and derived
    quantity built once, on first use, and shared: read only."""

    def __init__(self, records):
        self.records = records
        self._built = {}

    def __len__(self):
        return len(self.records)

    def _memo(self, key, build):
        value = self._built.get(key)
        if value is None:
            value = self._built[key] = build()
        return value

    def column(self, field):
        """the field of every record, as a tuple"""
        return self._memo(("column", field),
                          lambda: tuple(map(attrgetter(field), self.records)))

    def stack(self, field):
        """the field of every record stacked into an array, one row per record"""
        return self._memo(field, lambda: np.array(self.column(field)))

    def gain(self):
        """g.(w_next - w) of every record"""
        return self._memo("gain", lambda: _rowdot(
            self.stack("g"), self.stack("w_next") - self.stack("w")))

    def residual(self):
        """loss + g.(w_next - w) of every record: the round model's value at
        the post-update point"""
        return self._memo("residual", lambda: self.stack("loss_value") + self.gain())

    def norm(self, field, kind="l2"):
        """the l2 or linf norm of the field's array in every record"""
        return self._memo((kind, field), lambda: _NORMS[kind](self.stack(field)))


# the window consumed last, kept with its arrays: folds and a writer fed the
# same records in turn, as a run feeds them, build each quantity once per
# window. It is reused only for the very same record objects, so no result
# depends on it.
_last_window = _Window([])


def _window_of(records):
    global _last_window
    last = _last_window
    if len(last.records) != len(records) or not all(map(is_, last.records, records)):
        last = _last_window = _Window(records)
    return last


def _rowdot(a, b):
    """a[k] @ b[k] for every row k, with the same bits (and those of
    a[k].dot(b[k]), which can give -0.0 where `@` gives 0.0)"""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _l2_rows(v):
    return np.sqrt(_rowdot(v, v))


def _linf_rows(v):
    return np.abs(v).max(axis=1, initial=0.0)


_NORMS = {"l2": _l2_rows, "linf": _linf_rows}


def _accumulate(start, terms):
    """The running sums start + terms[0], then + terms[1], ... with the bits
    of a `+=` loop, since np.cumsum adds in order; overwrites terms."""
    terms[0] += start
    return np.cumsum(terms, axis=0, out=terms)


def _stretches(restart):
    """(start, stop, restarted) for the stretches of a window that the
    records flagged in restart begin; restarted tells whether the stretch
    begins at such a record"""
    cuts = [0, *np.flatnonzero(restart).tolist(), restart.size]
    return [(a, b, k > 0) for k, (a, b) in enumerate(zip(cuts, cuts[1:])) if a < b]


class _Windowed:
    """Holds the records passed to update() and hands them, a window at a
    time and in order, to `_consume`."""

    def __init__(self):
        self._window = []
        self._size = None  # gradient size of the held records
        self._cap = 0      # records a window of that size holds

    def update(self, tr):
        window = self._window
        window.append(tr)
        if len(window) >= self._cap or tr.g.size != self._size:
            self._settle()

    def _settle(self):
        size = self._window[-1].g.size
        if size != self._size:  # the records before this one end their window
            self._size = size
            self._cap = max(1, min(WINDOW_RECORDS, WINDOW_ENTRIES // max(size, 1)))
            last = self._window.pop()
            self._flush()
            self._window.append(last)
        if len(self._window) >= self._cap:
            self._flush()

    def _flush(self):
        """consume the records held so far"""
        window, self._window = self._window, []
        if window:
            # the scalar columns follow Python float arithmetic, which never warns
            with np.errstate(all="ignore"):
                self._consume(_window_of(window))


@dataclass
class BoundReport:
    name: str
    rounds: int
    worst_slack: float
    tolerance: float
    first_violation: int = None

    @property
    def passed(self):
        return self.worst_slack >= -self.tolerance

    def line(self):
        status = "pass" if self.passed else "FAIL"
        first = "" if self.first_violation is None else f" first_violation={self.first_violation}"
        return (f"check={self.name} {status} rounds={self.rounds} "
                f"worst_slack={self.worst_slack:.6g}{first}")


class _Fold(_Windowed):
    name = ""
    tolerance = 0.0

    def __init__(self):
        super().__init__()
        self.rounds = 0
        self.worst_slack = math.inf
        self.first_violation = None

    def _note(self, slack, t):
        if slack < self.worst_slack:
            self.worst_slack = slack
        if slack < -self.tolerance and self.first_violation is None:
            self.first_violation = t

    def _note_all(self, slack, ts):
        """`_note(slack[k], ts[k])` for every k in order, in one pass: the
        first least slack, nan ignored, and the first violation"""
        if not slack.size:
            return
        k = slack.argmin()  # the first least, or the first nan
        if slack[k] != slack[k]:
            kept = np.flatnonzero(slack == slack)
            if not kept.size:
                return
            k = kept[slack[kept].argmin()]
        least = float(slack[k])
        if least < self.worst_slack:
            self.worst_slack = least
        if least < -self.tolerance and self.first_violation is None:
            self.first_violation = ts[int((slack < -self.tolerance).argmax())]

    def report(self):
        self._flush()
        return BoundReport(name=self.name, rounds=self.rounds,
                           worst_slack=self.worst_slack, tolerance=self.tolerance,
                           first_violation=self.first_violation)


class NoOvershootFold(_Fold):
    """The post-update point never lands on the flat part of the round model."""

    name = "no_overshoot"
    tolerance = CORNER_TOL

    def _consume(self, window):
        # a zero gradient is not a round here (nan is never noted); exact: a
        # subnormal entry counts
        nonzero = window.stack("g").any(axis=1)
        self.rounds += int(np.count_nonzero(nonzero))
        self._note_all(np.where(nonzero, window.residual(), np.nan), window.column("t"))


class WealthIdentityFold(_Fold):
    """Multiplicative wealth recursion agrees with the additive form
    (endowment minus the accumulated decomposition terms).

    A trace with t == 1 marks a fresh learner, so the accumulator restarts
    there; one fold can therefore span several repetitions.
    """

    name = "wealth_identity"
    tolerance = IDENTITY_TOL

    def __init__(self, epsilon=1.0):
        super().__init__()
        self.epsilon = float(epsilon)
        self._spent = 0.0

    def _consume(self, window):
        h, wealth = window.stack("h"), window.stack("wealth_after")
        # g.(w - w_next) + g+.w_next per round, g+ = h g (1.0 * g is g);
        # g.(w - w_next) is the shared gain negated, exact up to the sign of
        # a zero, which the running sum (never -0.0) cannot see
        spent = -window.gain() + _rowdot(h[:, None] * window.stack("g"), window.stack("w_next"))
        for a, b, restarted in _stretches(window.stack("t") == 1):
            _accumulate(0.0 if restarted else self._spent, spent[a:b])
            self._spent = float(spent[b - 1])
        self.rounds += len(window)
        dev = np.abs(wealth - (self.epsilon - spent))
        self._note_all(-dev / np.maximum(1.0, np.abs(wealth)), window.column("t"))


class BetaBallFold(_Fold):
    """Betting fractions stay inside the half-unit ball."""

    name = "beta_ball"
    tolerance = ALGEBRA_TOL

    def __init__(self, norm="l2"):
        super().__init__()
        _NORMS[norm]  # raises KeyError for an unknown norm
        self._norm = norm

    def _consume(self, window):
        norm, norm_next = window.norm("beta", self._norm), window.norm("beta_next", self._norm)
        self.rounds += len(window)
        # max(norm, norm_next) of Python floats: norm unless norm_next is larger
        worst = np.where(norm_next > norm, norm_next, norm)
        self._note_all(0.5 - worst, window.column("t"))


class WealthLowerBoundFold(_Fold):
    """Explicit-constant lower bound on the final log wealth.

    The projected variant must satisfy
        ln W_T >= -3/2 - 7.25 ln(1 + 2 sum ||g||*||g+||) + min(S/4, S^2/(2 sum mu))
    with S = ||sum g+|| and mu_t = 2(||g_t||^2 - ||g_t - g_t+||^2); the
    closed-form variant the analogue with constants 110.25, ln(16 + .) and S/8.
    A zero mu sum falls back to the linear branch of the min.
    """

    name = "wealth_lower_bound"
    tolerance = LOG_WEALTH_TOL

    def __init__(self, variant, epsilon=1.0):
        super().__init__()
        if variant not in (PROJECTED, CLOSED_FORM):
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.epsilon = float(epsilon)
        self._reset_run()

    def _reset_run(self):
        self._gplus_sum = None
        self._pair_sum = 0.0
        self._mu_sum = 0.0
        self._final_wealth = self.epsilon
        self._last_t = 0

    def _consume(self, window):
        t, wealth = window.column("t"), window.column("wealth_after")
        ts, h, g = window.stack("t"), window.stack("h"), window.stack("g")
        norm_g = window.norm("g")
        g_plus = h[:, None] * g  # 1.0 * g is g
        pair = norm_g * (h * norm_g)
        mu = 2.0 * norm_g * norm_g * h * (2.0 - h)
        # a t == 1 record after another record starts a fresh learner's run
        restart = ts == 1
        restart[0] &= self._last_t != 0
        restart[1:] &= ts[:-1] != 0
        for a, b, restarted in _stretches(restart):
            if restarted:  # close out the previous run first
                self._note(self._run_slack(), self._last_t)
                self._reset_run()
            start = np.zeros(g.shape[1]) if self._gplus_sum is None else self._gplus_sum
            self._gplus_sum = _accumulate(start, g_plus[a:b])[-1].copy()
            self._pair_sum = float(_accumulate(self._pair_sum, pair[a:b])[-1])
            self._mu_sum = float(_accumulate(self._mu_sum, mu[a:b])[-1])
            self._final_wealth = wealth[b - 1]
            self._last_t = t[b - 1]
        self.rounds += len(window)

    def _run_slack(self):
        gps = 0.0
        if self._gplus_sum is not None:
            gps = math.sqrt(float(self._gplus_sum.dot(self._gplus_sum)))
        if self.variant == PROJECTED:
            bound = -1.5 - 7.25 * math.log1p(2.0 * self._pair_sum)
            gain = gps / 4.0
        else:
            bound = -110.25 * math.log(16.0 + 2.0 * self._pair_sum)
            gain = gps / 8.0
        if self._mu_sum > 0.0:
            gain = min(gain, gps * gps / (2.0 * self._mu_sum))
        return math.log(self._final_wealth) - (bound + gain)

    def report(self):
        self._flush()
        self._note(self._run_slack(), self._last_t)
        return super().report()


def folds_for_learner(algorithm, dim):
    """The checks applicable to a registered algorithm (empty for baselines
    that carry no betting state)."""
    if algorithm == "implicit-coin":
        return [NoOvershootFold(), WealthIdentityFold(1.0), BetaBallFold("l2"),
                WealthLowerBoundFold(CLOSED_FORM)]
    if algorithm == "cw-implicit-coin":
        return [NoOvershootFold(), WealthIdentityFold(float(dim)),
                BetaBallFold("linf")]
    return []


# %-formatting gives the same digits as format(x, ".10g")
_TRACE_ROW = "%s,%.10g,%.10g,%.10g,%.10g\n"


class WealthTraceWriter(_Windowed):
    """Writes per-round rows (t, h, wealth, beta_norm, residual) to CSV, one
    write per window of records."""

    def __init__(self, path):
        super().__init__()
        self._fh = open(path, "w")
        self._fh.write("t,h,wealth,beta_norm,residual\n")

    def _consume(self, window):
        n = len(window)
        row = [None] * (5 * n)
        row[0::5] = window.column("t")
        row[1::5] = window.column("h")
        row[2::5] = window.column("wealth_after")
        row[3::5] = window.norm("beta_next").tolist()
        row[4::5] = window.residual().tolist()
        self._fh.write(_TRACE_ROW * n % tuple(row))

    def close(self):
        """Write the rows still held, then close the file, also when that
        write fails."""
        try:
            self._flush()
        finally:
            self._fh.close()


def figure1_scenario(rounds=60, target=10.0, corner_deadline=50):
    """Desk-scale reproduction of the absolute-loss walk toward a corner.

    Runs the closed-form learner in one dimension on |w - target| from zero
    and returns rows (t, w_t, h_t). Raises if any iterate exceeds the target,
    if the pre-corner climb is not monotone, or if the corner is not reached
    and held within the deadline.
    """
    traces = []
    learner = ImplicitCoin(1, trace_cb=traces.append)
    w = learner.predict()
    for _ in range(rounds):
        x = float(w[0])
        loss = abs(x - target)
        g = np.array([0.0 if x == target else math.copysign(1.0, x - target)])
        w = learner.step(loss, g)

    rows = [(tr.t, float(tr.w[0]), tr.h) for tr in traces]
    corner_round = next((tr.t for tr in traces if tr.h < 1.0), None)
    if corner_round is None or corner_round > corner_deadline:
        raise RuntimeError(f"corner not reached by round {corner_deadline}")
    for t, x, _ in rows:
        if x > target + CORNER_TOL:
            raise RuntimeError(f"round {t}: iterate {x} exceeds the target")
        if t > corner_round and abs(x - target) > 1e-6:
            raise RuntimeError(f"round {t}: iterate {x} left the corner")
    climb = [x for t, x, _ in rows if t <= corner_round]
    if any(b < a - ALGEBRA_TOL for a, b in zip(climb, climb[1:])):
        raise RuntimeError("pre-corner trajectory is not monotone")
    return rows
