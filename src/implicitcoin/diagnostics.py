"""Executable invariant checks over per-round traces.

Each check is a pure fold: feed StepTrace records through update() and read a
BoundReport at the end. Slack is signed with positive meaning satisfied; a
check passes when the worst slack stays above minus its tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .learners import CLOSED_FORM, PROJECTED, ImplicitCoin

CORNER_TOL = 1e-8          # residuals pass through one root solve
IDENTITY_TOL = 1e-9        # long alternating sums
LOG_WEALTH_TOL = 1e-6      # sums of logs over many rounds
ALGEBRA_TOL = 1e-12        # direct algebraic identities


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


class _Fold:
    name = ""
    tolerance = 0.0

    def __init__(self):
        self.rounds = 0
        self.worst_slack = math.inf
        self.first_violation = None

    def _note(self, slack, t):
        if slack < self.worst_slack:
            self.worst_slack = slack
        if slack < -self.tolerance and self.first_violation is None:
            self.first_violation = t

    def report(self):
        return BoundReport(name=self.name, rounds=self.rounds,
                           worst_slack=self.worst_slack, tolerance=self.tolerance,
                           first_violation=self.first_violation)


class NoOvershootFold(_Fold):
    """The post-update point never lands on the flat part of the round model."""

    name = "no_overshoot"
    tolerance = CORNER_TOL

    def update(self, tr):
        if not np.any(tr.g):
            return
        self.rounds += 1
        self._note(tr.loss_value + float(tr.g @ (tr.w_next - tr.w)), tr.t)


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

    def update(self, tr):
        if tr.t == 1:
            self._spent = 0.0
        self.rounds += 1
        g_plus = tr.h * tr.g
        self._spent += float(tr.g @ (tr.w - tr.w_next)) + float(g_plus @ tr.w_next)
        dev = abs(tr.wealth_after - (self.epsilon - self._spent))
        self._note(-dev / max(1.0, abs(tr.wealth_after)), tr.t)


class BetaBallFold(_Fold):
    """Betting fractions stay inside the half-unit ball."""

    name = "beta_ball"
    tolerance = ALGEBRA_TOL

    def __init__(self, norm="l2"):
        super().__init__()
        self._norm = {"l2": np.linalg.norm,
                      "linf": lambda v: np.max(np.abs(v)) if v.size else 0.0}[norm]

    def update(self, tr):
        self.rounds += 1
        worst = max(float(self._norm(tr.beta)), float(self._norm(tr.beta_next)))
        self._note(0.5 - worst, tr.t)


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

    def update(self, tr):
        if tr.t == 1 and self._last_t:
            # a fresh learner started; close out the previous run first
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

    def report(self):
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


class WealthTraceWriter:
    """Streams per-round rows (t, h, wealth, beta_norm, residual) to CSV."""

    def __init__(self, path):
        self._fh = open(path, "w")
        self._fh.write("t,h,wealth,beta_norm,residual\n")

    def update(self, tr):
        resid = tr.loss_value + float(tr.g @ (tr.w_next - tr.w))
        self._fh.write(f"{tr.t},{tr.h:.10g},{tr.wealth_after:.10g},"
                       f"{float(np.linalg.norm(tr.beta_next)):.10g},{resid:.10g}\n")

    def close(self):
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
