"""Correctness checks computed apart from the program.

Everything here is written from the protocol description and the paper's
update rules with numpy alone: the split and preprocessing, the tuned
algorithms, the betting updates as a function of the corner scalar h, and the
per-round invariants. Checks record violations instead of raising, so a
faulty round shows up in the result rather than aborting the run.
"""

import math

import numpy as np

RESIDUAL_TOL = 1e-8      # no-overshoot: loss + g.(w_next - w) >= -tol
BETA_RADIUS = 0.5
BALL_SLACK = 1e-12
CORNER_H_TOL = 1e-6
LOSS_REL_TOL = 1e-9      # CSV values carry 10 significant digits
SHRINK_GAIN = 9.0        # paper constants of the shrink branch
SHRINK_THRESHOLD = 3.0 / 8.0
MAX_REPORTED = 20


class Violations:
    """Collects failed checks; keeps the first few messages."""

    def __init__(self):
        self.count = 0
        self.messages = []

    def add(self, message):
        self.count += 1
        if len(self.messages) < MAX_REPORTED:
            self.messages.append(message)

    def require(self, ok, message):
        if not ok:
            self.add(message)
        return ok


# -- protocol: split, preprocessing, tuned algorithms -------------------------

def reference_split(X, y, seed, repetition, classification):
    """70/15/15 permutation split, median thresholding of raw classification
    targets, training-statistics standardisation and unit rows."""
    n = len(y)
    perm = np.random.default_rng([seed, repetition]).permutation(n)
    n_train, n_val = int(0.70 * n), int(0.15 * n)
    parts = [perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]]
    Xs = [X[p] for p in parts]
    ys = [y[p] for p in parts]
    if classification and not set(np.unique(ys[0]).tolist()) <= {-1.0, 1.0}:
        threshold = float(np.median(ys[0]))
        ys = [np.where(v > threshold, 1.0, -1.0) for v in ys]
    mean = Xs[0].mean(axis=0)
    std = Xs[0].std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    out = []
    for Xp, yp in zip(Xs, ys):
        Z = (Xp - mean) / std
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
        out.append((Z / np.where(norms > 0.0, norms, 1.0), yp))
    return out


def reference_tuned_run(algorithm, split, eta0, epochs):
    """Per-epoch (train, val, test) absolute losses of sgd or the
    truncated-cap step (aprox, iwa) at one eta0."""
    (Xtr, ytr), (Xva, yva), (Xte, yte) = split
    w = np.zeros(Xtr.shape[1])
    k = 0
    capped = algorithm in ("aprox", "iwa")
    rows = []
    for _ in range(epochs):
        total = 0.0
        for i in range(len(ytr)):
            x = Xtr[i]
            r = float(w @ x) - ytr[i]
            loss = abs(r)
            total += loss
            k += 1
            if r == 0.0:
                continue
            g = x if r > 0.0 else -x
            step = eta0 / math.sqrt(k)
            if capped:
                step = min(step, loss / float(g @ g))
            w = w - step * g
        rows.append((total / len(ytr), float(np.mean(np.abs(Xva @ w - yva))),
                     float(np.mean(np.abs(Xte @ w - yte)))))
    return rows


def close(a, b, rel=LOSS_REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


def read_rows(path):
    """Data rows of a result CSV as string lists (comment lines skipped)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    return [ln.split(",") for ln in lines[1:] if ln and not ln.startswith("#")]


def rows_without_wall(rows):
    return [r[:-1] for r in rows]


def check_tuned_csv(rows, algorithm, X, y, seed, epochs, violations):
    """Every repetition's per-epoch losses at the selected eta0 must match the
    reference run to ~1e-9 relative."""
    reps = sorted({r[1] for r in rows if r[1] != "mean"}, key=int)
    for rep in reps:
        rep_rows = [r for r in rows if r[1] == rep]
        eta0 = float(rep_rows[0][3])
        violations.require(len(rep_rows) == epochs and all(
            float(r[3]) == eta0 for r in rep_rows),
            f"{algorithm} rep {rep}: {len(rep_rows)} rows or mixed eta0")
        split = reference_split(X, y, seed, int(rep), classification=False)
        ref = reference_tuned_run(algorithm, split, eta0, epochs)
        for r, (tr, va, te) in zip(rep_rows, ref):
            got = tuple(float(v) for v in r[4:7])
            violations.require(
                all(close(a, b) for a, b in zip(got, (tr, va, te))),
                f"{algorithm} rep {rep} epoch {r[2]}: csv {got} != reference "
                f"{(tr, va, te)}")


def check_final_iterates(rows, algorithm, learners, X, y, seed, epochs, violations):
    """Validation and test hinge losses recomputed from each repetition's
    final iterate on the benchmark's own split; they must match the CSV's
    last epoch and beat the zero predictor."""
    violations.require(len(learners) == len({r[1] for r in rows if r[1] != "mean"}),
                       f"{algorithm}: {len(learners)} learners for the CSV's repetitions")
    for rep, learner in enumerate(learners):
        w = learner.predict()
        _, (Xva, yva), (Xte, yte) = reference_split(X, y, seed, rep, classification=True)
        val = float(np.mean(np.maximum(0.0, 1.0 - yva * (Xva @ w))))
        test = float(np.mean(np.maximum(0.0, 1.0 - yte * (Xte @ w))))
        last = [r for r in rows if r[1] == str(rep) and int(r[2]) == epochs]
        if not violations.require(len(last) == 1, f"{algorithm} rep {rep}: no final row"):
            continue
        violations.require(close(float(last[0][5]), val) and close(float(last[0][6]), test),
                           f"{algorithm} rep {rep}: csv val/test {last[0][5:7]} != "
                           f"recomputed {(val, test)}")
        violations.require(test < 1.0, f"{algorithm} rep {rep}: test hinge {test} "
                                        "does not beat the zero predictor")


# -- betting updates as a function of h ---------------------------------------

class BettingState:
    """Pre-round public state of a betting learner and the paper's update
    written as a function of the corner scalar h."""

    def __init__(self, learner):
        self.kind = type(learner).__name__
        self.beta = np.array(learner.beta, dtype=np.float64)
        self.wealth = np.array(learner.wealth, dtype=np.float64)
        self.inv_eta = np.array(learner.inv_eta, dtype=np.float64)

    def w_next(self, h, g):
        beta, wealth, eta = self.beta, self.wealth, 1.0 / self.inv_eta
        if self.kind == "CoordinateImplicitCoin":
            stepped = beta - eta * (h * g + 2.0 * g * g * h * (2.0 - h) * beta)
            shrunk = beta * (1.0 - 2.0 * SHRINK_GAIN * h * eta * np.abs(g))
            nb = np.where(np.abs(beta) < SHRINK_THRESHOLD, stepped, shrunk)
            return nb * (wealth * (1.0 - g * beta) / (1.0 + (h - 1.0) * g * nb))
        gg = float(g @ g)
        bb = float(beta @ beta)
        if self.kind == "ProjectedImplicitCoin":
            raw = beta - eta * (h * g + 2.0 * gg * h * (2.0 - h) * beta)
            nb = raw / max(1.0, 2.0 * float(np.linalg.norm(raw)))
        elif bb < SHRINK_THRESHOLD ** 2:
            nb = beta - eta * (h * g + 2.0 * gg * h * (2.0 - h) * beta)
        else:
            nb = beta * (1.0 - 2.0 * SHRINK_GAIN * eta * h * math.sqrt(gg))
        return nb * (wealth * (1.0 - float(g @ beta)) / (1.0 + (h - 1.0) * float(g @ nb)))

    def residual(self, h, g, loss, w):
        return loss + float(g @ (self.w_next(h, g) - w))


def bisect_corner(f):
    """Root of f on [0, 1] with f(0) >= 0 > f(1), to float resolution."""
    lo, hi = 0.0, 1.0
    if f(lo) == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def unit_gradient(g, coordinate):
    """The gradient as the learner uses it: renormalised when float noise
    lifts its norm a hair above one."""
    nrm = float(np.max(np.abs(g))) if coordinate else float(np.sqrt(g @ g))
    return g / nrm if nrm > 1.0 else g


# -- per-round invariants -----------------------------------------------------

class Oracle:
    """Counts loss/gradient evaluations between learner rounds."""

    def __init__(self, fn):
        self._fn = fn
        self.calls = 0
        self.total = 0
        self.w = None

    def __call__(self, w, ex):
        self.calls += 1
        self.total += 1
        self.w = w
        return self._fn(w, ex)


class RoundChecker:
    """Wraps one learner's step and checks every round from its inputs and
    outputs: one oracle call at the current iterate, no overshoot of the
    round model, and for the betting learners the fraction ball, positive
    wealth and (on a sample of corner rounds) the corner h against an
    independent bisection."""

    def __init__(self, learner, violations, label, oracle=None, no_overshoot=True,
                 corner_sample=16):
        self.learner = learner
        self.violations = violations
        self.label = label
        self.oracle = oracle
        self.no_overshoot = no_overshoot
        self.corner_sample = corner_sample
        self.betting = hasattr(learner, "inv_eta")
        self.coordinate = type(learner).__name__ == "CoordinateImplicitCoin"
        self.rounds = 0
        self.zero_grad_rounds = 0
        self.corner_rounds = 0
        self.corner_checked = 0
        self._h = None
        self._last = None
        self._step = learner.step
        if self.betting:
            inner = learner.trace_cb

            def trace_cb(tr):
                self._h = tr.h
                if inner is not None:
                    inner(tr)

            learner.trace_cb = trace_cb
        learner.step = self.step

    def step(self, loss_value, g, ex=None):
        v, lab = self.violations, self.label
        self.rounds += 1
        t = self.rounds
        oracle = self.oracle
        if oracle is None:
            w = self.learner.predict()
        else:
            w = oracle.w
            v.require(oracle.calls == 1, f"{lab} round {t}: {oracle.calls} oracle calls")
            v.require(w is self._last or (self._last is None and w is not None and
                                          np.array_equal(w, self.learner.predict())),
                      f"{lab} round {t}: oracle not evaluated at the current iterate")
            oracle.calls = 0
        pre = BettingState(self.learner) if self.betting else None
        w_next = self._step(loss_value, g, ex)
        self._last = w_next
        if self.no_overshoot:
            resid = loss_value + float(g @ (w_next - w))
            v.require(resid >= -RESIDUAL_TOL,
                      f"{lab} round {t}: overshoot residual {resid!r}")
        if not self.betting:
            return w_next
        beta = self.learner.beta
        norm = float(np.max(np.abs(beta))) if self.coordinate else float(np.linalg.norm(beta))
        v.require(norm <= BETA_RADIUS + BALL_SLACK, f"{lab} round {t}: |beta| = {norm!r}")
        v.require(bool(np.all(np.asarray(self.learner.wealth) > 0.0)),
                  f"{lab} round {t}: wealth {self.learner.wealth!r} not positive")
        h, self._h = self._h, None
        if not v.require(h is not None, f"{lab} round {t}: no trace record"):
            return w_next
        if not np.any(g):
            self.zero_grad_rounds += 1
        elif h < 1.0:
            self.corner_rounds += 1
            if (self.corner_rounds - 1) % self.corner_sample == 0:
                self._check_corner(pre, np.asarray(g, dtype=np.float64), float(loss_value),
                                   w, w_next, h, t)
        return w_next

    def _check_corner(self, pre, g, loss, w, w_next, h, t):
        v, lab = self.violations, self.label
        self.corner_checked += 1
        gu = unit_gradient(g, self.coordinate)
        h_ref = bisect_corner(lambda x: pre.residual(x, gu, loss, w))
        v.require(abs(h - h_ref) <= CORNER_H_TOL,
                  f"{lab} round {t}: corner h {h!r} != bisection {h_ref!r}")
        ref = pre.w_next(h, gu)
        v.require(bool(np.allclose(ref, w_next, rtol=1e-9, atol=1e-12)),
                  f"{lab} round {t}: iterate at h={h!r} differs from the update rule")
