import contextlib
import math
import pickle

import numpy as np
import pytest

from implicitcoin import learners
from implicitcoin.losses import hinge_eval_grad, labeled_examples
from implicitcoin.learners import (CORNER_WIDTH_ULPS, CoordinateImplicitCoin,
                                   ImplicitCoin, ProjectedImplicitCoin,
                                   SHRINK_GAIN, SHRINK_THRESHOLD, solve_corner)
from implicitcoin.rootsolve import bisect, roots_in_unit
from implicitcoin.truncated import TruncatedModel, linear_residual, make_pair
from reference import (closed_form_corner_poly, closed_form_residual,
                       closed_form_w_next, coordinate_rounds, coordinate_w_next,
                       plain_replay, wealth_update)

# a bisection of [0, 1] to this tolerance stops at float resolution
FULL_BRACKET_TOL = 1e-18
RESIDUAL_BAND = 1e-8  # |residual| accepted at a solved corner


def residual_of(trace):
    m = TruncatedModel(anchor=trace.w, grad=trace.g, loss_at_anchor=trace.loss_value)
    return linear_residual(m, trace.w_next)


def run_absolute_1d(learner, targets):
    """Drive a 1-d learner with |w - c| losses; returns the visited iterates."""
    w = learner.predict()
    path = [float(w[0])]
    for c in targets:
        x = float(w[0])
        loss = abs(x - c)
        g = np.array([0.0 if x == c else (1.0 if x > c else -1.0)])
        w = learner.step(loss, g)
        path.append(float(w[0]))
    return path


def bisect_to_float_resolution(f, zero_moves_lo=True):
    """Root of f on [0, 1], halved until no float lies between the ends,
    subnormals included. An exact zero moves lo (the last point of a run of
    zeros) or, with zero_moves_lo=False, hi (the first)."""
    lo, hi = 0.0, 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        lo, hi = (mid, hi) if fmid > 0.0 or (zero_moves_lo and fmid == 0.0) else (lo, mid)
    return 0.5 * (lo + hi)


def fuzz_rounds(learner, n, seed, loss_hi=10.0):
    rng = np.random.default_rng(seed)
    d = learner.dim
    for _ in range(n):
        g = rng.normal(size=d)
        g *= rng.uniform(0.0, 1.0) / np.linalg.norm(g)
        learner.step(rng.uniform(0.0, loss_hi), g)


class TestHandTraces:
    def test_projected_first_round(self):
        traces = []
        l = ProjectedImplicitCoin(1, trace_cb=traces.append)
        w = l.step(10.0, np.array([-1.0]))
        assert w[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert l.beta[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert l.wealth == 1.0
        assert traces[0].h == 1.0

    def test_closed_form_first_round_constants(self):
        l = ImplicitCoin(1)
        assert l.inv_eta == 18.0  # eta_1 = 1/(2*gain) with gain 9
        assert SHRINK_GAIN == 9.0
        w = l.step(10.0, np.array([-1.0]))
        assert w[0] == pytest.approx(1.0 / 18.0, abs=1e-15)
        assert l.wealth == 1.0

    def test_coordinate_first_round(self):
        l = CoordinateImplicitCoin(2)
        l.step(10.0, np.array([-1.0, 0.0]))
        np.testing.assert_allclose(l.beta, [1.0 / 18.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(l.wealth, [1.0, 1.0])

    def test_predict_examples(self):
        l = ProjectedImplicitCoin(1)
        assert l.predict()[0] == 0.0
        l.beta = np.array([1.0 / 3.0])
        assert l.predict()[0] == pytest.approx(1.0 / 3.0)
        c = CoordinateImplicitCoin(2)
        c.beta = np.array([0.1, -0.2])
        c.wealth = np.array([1.0, 2.0])
        np.testing.assert_allclose(c.predict(), [0.1, -0.4], atol=1e-15)


class TestZeroGradient:
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_full_noop(self, cls):
        traces = []
        l = cls(3, trace_cb=traces.append)
        l.step(1.0, np.array([0.3, 0.0, 0.1]))
        beta = l.beta.copy()
        wealth = np.copy(l.wealth)
        inv_eta = np.copy(l.inv_eta)
        w_next = l.step(2.0, np.zeros(3))
        np.testing.assert_array_equal(l.beta, beta)
        np.testing.assert_array_equal(l.wealth, wealth)
        np.testing.assert_array_equal(l.inv_eta, inv_eta)
        np.testing.assert_array_equal(w_next, l.predict())
        assert traces[-1].h == 0.0
        assert traces[-1].t == 2


class TestHeldIterate:
    """A round that does not move returns the iterate the last round
    returned, unless the state was replaced since."""

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_no_move_round_returns_the_held_iterate(self, cls, traced):
        traces = []
        l = cls(3, trace_cb=traces.append if traced else None)
        zero = np.zeros(3)
        w = l.step(0.5, np.array([0.3, -0.2, 0.1]))
        for loss, g in ((1.0, zero), (0.0, np.array([0.2, 0.4, -0.1])), (2.0, zero)):
            w_next = l.step(loss, g)  # a zero gradient, or a corner at the anchor
            assert w_next is w
            assert w_next.tobytes() == (l.beta * l.wealth).tobytes()
        assert l.corner_rounds == 1
        if traced:
            assert [tr.h for tr in traces[1:]] == [0.0, 0.0, 0.0]
            assert all(tr.w is w and tr.w_next is w for tr in traces[1:])

        # replaced state, even with the same bits: the iterate is rebuilt
        # once, then held again
        for replace in ("beta", "wealth"):
            setattr(l, replace, getattr(l, replace) * 1.0)
            w_new = l.step(1.0, zero)
            assert w_new is not w
            assert w_new.tobytes() == (l.beta * l.wealth).tobytes()
            assert l.step(1.0, zero) is w_new
            w = w_new
        l.wealth = l.wealth * 2.0
        w_new = l.step(1.0, zero)
        assert w_new.tobytes() == (l.beta * l.wealth).tobytes() != w.tobytes()

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_a_moving_round_builds_a_new_iterate(self, cls):
        l = cls(2)
        w = l.step(0.0, np.zeros(2))
        w_next = l.step(0.5, np.array([0.3, -0.2]))
        assert w_next is not w
        assert w_next.tobytes() == l.predict().tobytes()
        assert w.tobytes() == np.zeros(2).tobytes()  # never written into


class TestGradientGuard:
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin])
    def test_rejects_large_norm(self, cls, traced):
        traces = []
        l = cls(2, trace_cb=traces.append if traced else None)
        with pytest.raises(ValueError, match="unit bound"):
            l.step(1.0, np.array([1.0, 1.0]))
        assert l.t == 0 and traces == []

    def test_coordinate_bound_is_per_entry(self):
        l = CoordinateImplicitCoin(2)
        l.step(1.0, np.array([1.0, 1.0]))  # max entry 1: fine coordinate-wise
        with pytest.raises(ValueError, match="unit bound"):
            l.step(1.0, np.array([1.5, 0.0]))

    @pytest.mark.parametrize("tiny,moves", [(5e-324, False), (1e-170, True)])
    def test_coordinate_entry_squaring_to_zero_takes_a_full_round(self, tiny, moves):
        # the bound is on max |g|, so an entry whose square underflows to 0
        # still plays a full round instead of a zero-gradient one
        traces = []
        l = CoordinateImplicitCoin(3, trace_cb=traces.append)
        l.step(1.0, np.array([0.0, tiny, 0.0]))
        assert traces[-1].h == 1.0
        assert (l.beta[1] != 0.0) == moves

    def test_coordinate_nan_among_zeros_is_rejected(self):
        # the zero-gradient test counts a nan entry as nonzero, so it still
        # reaches the bound check
        l = CoordinateImplicitCoin(3)
        l.step(1.0, np.array([0.3, 0.0, 0.1]))
        beta, wealth = l.beta, l.wealth
        with pytest.raises(ValueError, match="unit bound"):
            l.step(1.0, np.array([0.0, np.nan, 0.0]))
        assert l.beta is beta and l.wealth is wealth and l.t == 1

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_tiny_excess_renormalized_with_warning(self, cls):
        l = cls(1)
        l.step(1.0, np.array([1.0 + 5e-10]))
        assert l.grad_norm_warnings == 1

    def test_renormalized_coordinate_round_is_the_round_on_the_unit_gradient(self):
        # |g| measured before the renormalisation must not reach the round:
        # the shrink branch (|beta_0| >= 3/8 after the warm-up) reads it
        renormalized, unit = CoordinateImplicitCoin(3), CoordinateImplicitCoin(3)
        for l in (renormalized, unit):
            for _ in range(25):
                l.step(1e6, np.array([-1.0, 0.5, 0.0]))
        assert renormalized.beta[0] >= 3.0 / 8.0
        g = np.array([1.0 + 5e-10, -0.25, 0.0])
        for loss in (0.1, 1e6):  # a corner, then a full round
            renormalized.step(loss, g)
            unit.step(loss, g / (1.0 + 5e-10))
        assert renormalized.grad_norm_warnings == 2 and unit.grad_norm_warnings == 0
        assert renormalized.corner_rounds == unit.corner_rounds == 1
        for attr in ("beta", "wealth", "inv_eta"):
            assert getattr(renormalized, attr).tobytes() == getattr(unit, attr).tobytes()

    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError, match=">= 0"):
            ImplicitCoin(1).step(-0.5, np.array([1.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            ImplicitCoin(2).step(1.0, np.zeros(3))

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    @pytest.mark.parametrize("loss", [np.nan, np.inf])
    def test_rejects_non_finite_loss(self, cls, loss, traced):
        traces = []
        l = cls(2, trace_cb=traces.append if traced else None)
        with pytest.raises(ValueError, match="finite"):
            l.step(loss, np.array([0.3, 0.1]))
        assert l.t == 0 and traces == []

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_gradient_entry(self, cls, bad, traced):
        traces = []
        l = cls(2, trace_cb=traces.append if traced else None)
        l.step(1.0, np.array([0.3, 0.1]))
        wealth = np.copy(l.wealth)
        with pytest.raises(ValueError, match="unit bound"):
            l.step(1.0, np.array([0.1, bad]))
        np.testing.assert_array_equal(l.wealth, wealth)
        assert l.t == 1 and len(traces) == (1 if traced else 0)


class TestWealthOverflow:
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_overflow_raises_before_any_state_changes(self, cls, traced):
        traces = []
        l = cls(1, trace_cb=traces.append if traced else None)
        l.wealth = l.wealth * 1e308
        g = np.array([-1.0])
        # a per-coordinate wealth is an array, and numpy warns as it overflows
        overflow_warning = (pytest.warns(RuntimeWarning, match="overflow")
                            if cls is CoordinateImplicitCoin else contextlib.nullcontext())
        with overflow_warning, pytest.raises(ValueError, match="wealth overflows"):
            for _ in range(50):  # the wealth grows by a factor 1 - <g, beta> > 1
                state = [np.copy(getattr(l, a)) for a in ("beta", "wealth", "inv_eta", "t")]
                l.step(1.7e308, g)
        assert l.t > 0
        for a, before in zip(("beta", "wealth", "inv_eta", "t"), state):
            np.testing.assert_array_equal(getattr(l, a), before)
        assert np.all(np.isfinite(l.predict()))
        assert len(traces) == (l.t if traced else 0)  # no record of the raising round


class TestCornerBehaviour:
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_corner_round_lands_within_band(self, cls):
        traces = []
        l = cls(1, trace_cb=traces.append)
        run_absolute_1d(l, [10.0] * 40)
        corners = [tr for tr in traces if 0.0 < tr.h < 1.0]
        assert corners, "the walk toward 10 must produce a corner round"
        for tr in corners:
            assert abs(residual_of(tr)) <= RESIDUAL_BAND

    def test_exactly_at_minimum_and_stays(self):
        l = ImplicitCoin(1)
        path = run_absolute_1d(l, [10.0] * 60)
        hit = next(i for i, x in enumerate(path) if abs(x - 10.0) <= 1e-8)
        assert all(abs(x - 10.0) <= 1e-8 for x in path[hit:])

    def test_h_stays_in_unit_and_full_rounds_are_bit_exact(self):
        traces = []
        l = ImplicitCoin(2, trace_cb=traces.append)
        fuzz_rounds(l, 500, seed=5, loss_hi=0.2)
        assert all(0.0 <= tr.h <= 1.0 for tr in traces)
        for tr in traces:
            if tr.h == 1.0:
                np.testing.assert_array_equal(make_pair(tr.g, tr.h).g_plus, tr.g)

    def test_closed_form_h_matches_bisection_oracle(self):
        rng = np.random.default_rng(17)
        traces = []
        l = ImplicitCoin(2, trace_cb=traces.append)
        checked = 0
        for _ in range(1500):
            state = (l.beta.copy(), float(l.wealth), float(l.inv_eta))
            g = rng.normal(size=2)
            g *= rng.uniform(0.1, 1.0) / np.linalg.norm(g)
            loss = rng.uniform(0.0, 0.02)
            l.step(loss, g)
            tr = traces[-1]
            if not 0.0 < tr.h < 1.0:
                continue
            h_oracle = bisect(closed_form_residual(*state, loss, g), 0.0, 1.0, 1e-9)
            assert abs(tr.h - h_oracle) <= 1e-6
            checked += 1
        assert checked > 50
        assert l.corner_fallbacks == 0

    def test_corner_matches_the_cubic_oracle(self):
        # the corner solve lands on the largest root of the closed-form
        # cubic (or quadratic) whose residual is in band, on both branches
        rng = np.random.default_rng(19)
        corners = {True: 0, False: 0}  # by branch: small fraction or not
        evals = rounds = 0
        for i in range(400):
            v = rng.normal(size=2)
            radius = rng.uniform(0.0, 0.3) if i % 2 else rng.uniform(0.38, 0.5)
            g = rng.normal(size=2)
            g *= rng.uniform(0.1, 1.0) / np.linalg.norm(g)
            state = (v * radius / np.linalg.norm(v), float(np.exp(rng.uniform(-3.0, 3.0))),
                     float(rng.uniform(18.0, 500.0)))
            loss = 0.05 * state[1] / state[2]  # at the scale of the step
            traces = []
            l = ImplicitCoin(2, trace_cb=traces.append)
            l.beta, l.wealth, l.inv_eta = state
            w_next = l.step(loss, g)
            if traces[-1].h == 1.0:
                continue
            corners[bool(np.linalg.norm(state[0]) < SHRINK_THRESHOLD)] += 1
            evals += l.residual_evals
            rounds += l.corner_rounds
            r = closed_form_residual(*state, loss, g)
            landed = [x for x in roots_in_unit(closed_form_corner_poly(*state, loss, g), 0.0, 1.0)
                      if x < 1.0 and abs(r(x)) <= RESIDUAL_BAND]
            assert landed, "the cubic oracle must have an in-band root"
            assert abs(traces[-1].h - landed[-1]) <= 1e-9
            np.testing.assert_allclose(w_next, closed_form_w_next(*state, g, landed[-1]),
                                       rtol=1e-9, atol=1e-12)
        assert corners[True] > 50 and corners[False] > 50
        assert evals / rounds <= 5.0


class TestCornerSolve:
    """The safeguarded-Newton corner h against a bisection of the learner's
    own residual over the full bracket [0, 1]."""

    @pytest.mark.parametrize("cls,dim", [(CoordinateImplicitCoin, 1),
                                         (CoordinateImplicitCoin, 4),
                                         (CoordinateImplicitCoin, 21),
                                         (ProjectedImplicitCoin, 1),
                                         (ProjectedImplicitCoin, 4),
                                         (ImplicitCoin, 4)])
    def test_h_matches_full_bracket_bisection(self, cls, dim, monkeypatch):
        solved = []

        def recording(fd, f0, f1, slope0=None):
            h, evals = solve_corner(fd, f0, f1, slope0)
            solved.append((h, bisect(lambda x: fd(x)[0], 0.0, 1.0, FULL_BRACKET_TOL)))
            return h, evals

        monkeypatch.setattr(learners, "solve_corner", recording)
        l = cls(dim)
        rng = np.random.default_rng(61 + dim)
        for i in range(1500):
            g = rng.normal(size=dim)
            g *= rng.uniform(0.0, 1.0) ** (1.0 / dim) / np.linalg.norm(g)
            if i % 2:
                loss = rng.uniform(0.0, 10.0)
            else:  # at the scale of the tentative step, so corners stay frequent
                wealth = float(np.sum(l.wealth))
                loss = rng.uniform(0.0, 2.0 * float(g @ g) * wealth / np.min(l.inv_eta))
            l.step(loss, g)
        assert len(solved) > 40
        for h, h_ref in solved:
            assert 0.0 < h < 1.0
            assert abs(h - h_ref) <= 1e-12

    def test_the_slope_start_closes_the_bracket_at_the_bisection_root(self, monkeypatch):
        # one-game corner polynomials, on the unprojected and the shrink
        # branch, solved from the root of the quadratic through P(0), P'(0)
        # and P(1): the one bisect call is given a closed bracket, h is a
        # full-bracket bisection's, and the start saves evaluations over the
        # secant point on the same polynomials; on the shrink branch P is
        # that quadratic, so the next point after the start closes the bracket
        calls = []
        orig = learners.rootsolve.bisect

        def counting(f, lo, hi, tol):
            calls.append((f, lo, hi))
            return orig(f, lo, hi, tol)

        monkeypatch.setattr(learners.rootsolve, "bisect", counting)
        rng = np.random.default_rng(83)
        solves = sloped = secant = 0
        for i in range(400):
            s, wealth = rng.uniform(-0.5, 0.5), float(np.exp(rng.uniform(-3.0, 3.0)))
            eta, nrm = 1.0 / rng.uniform(18.0, 500.0), rng.uniform(0.05, 1.0)
            if i % 2:
                dA, dB = -2.0 * SHRINK_GAIN * eta * nrm * s, 0.0
            else:
                dB = 2.0 * eta * nrm * nrm * s
                dA = -eta * nrm * nrm - (dB + dB)
            dq1 = dA + dB
            loss = rng.uniform(0.0, 1.0) * wealth * ((s + dq1) * s - dq1)  # f(1) < 0
            fd, p0, p1, slope0 = learners._poly_residual(loss, s, wealth, dA, dB)
            assert slope0 == fd(0.0)[1]
            if not p0 > 0.0 > p1:
                continue
            h, evals = solve_corner(fd, p0, p1, slope0)
            f, lo, hi = calls[-1]
            assert hi - lo <= CORNER_WIDTH_ULPS * math.ulp(hi) or f(lo) == 0.0
            h_ref = bisect(lambda x: fd(x)[0], 0.0, 1.0, FULL_BRACKET_TOL)
            assert 0.0 < h < 1.0 and abs(h - h_ref) <= CORNER_WIDTH_ULPS * math.ulp(h_ref)
            assert evals <= (2 if dB == 0.0 else 5)
            solves += 1
            sloped += evals
            secant += solve_corner(fd, p0, p1)[1]
        assert solves > 300 and sloped < secant

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_zero_loss_corner_stays_put(self, cls):
        # a constant coin with an unreachable corner drives the fraction out;
        # the residual then has an exact root at h = 0, which the solve keeps
        rng = np.random.default_rng(71)
        corners = 0
        for _ in range(50):
            traces = []
            l = cls(2, trace_cb=traces.append)
            for _ in range(30):
                l.step(1e9, np.array([-0.6, -0.8]))
            g = rng.normal(size=2)
            g *= rng.uniform(0.1, 1.0) / np.linalg.norm(g)
            w = l.predict()
            w_next = l.step(0.0, g)
            if traces[-1].h < 1.0:
                corners += 1
                assert traces[-1].h == 0.0
                np.testing.assert_allclose(w_next, w, rtol=1e-15)
        assert corners > 10

    def test_zero_loss_on_the_ball_boundary_stays_put(self):
        # 2||beta|| rounds to 1 + ulp here; the projection must not move a
        # stored fraction at h = 0, or the residual misses its root at 0
        rng = np.random.default_rng(73)
        for _ in range(2000):
            dim = int(rng.integers(1, 6))
            traces = []
            l = ProjectedImplicitCoin(dim, trace_cb=traces.append)
            v = rng.normal(size=dim)
            l.beta = v / (2.0 * np.linalg.norm(v))
            l.wealth = float(np.exp(rng.uniform(-5.0, 5.0)))
            l.inv_eta = float(rng.uniform(3.0, 1000.0))
            g = rng.normal(size=dim)
            g *= rng.uniform(0.0, 1.0) / np.linalg.norm(g)
            w = l.predict()
            w_next = l.step(0.0, g)
            assert traces[-1].h == 0.0
            np.testing.assert_array_equal(w_next, w)

    @pytest.mark.parametrize("cls", [ImplicitCoin, CoordinateImplicitCoin])
    def test_one_bisection_call_per_corner_round(self, cls, monkeypatch):
        calls = []   # (f, lo, hi, tol) of each bisect call
        points = []  # residual evaluation points, per corner solve
        orig = learners.rootsolve.bisect

        def counting(f, lo, hi, tol):
            calls.append((f, lo, hi, tol))
            return orig(f, lo, hi, tol)

        def recording(fd, f0, f1, slope0=None):
            seen = []

            def counted(h):
                seen.append(h)
                return fd(h)

            h, evals = solve_corner(counted, f0, f1, slope0)
            points.append(seen)
            assert evals == len(seen)
            # closed to CORNER_WIDTH_ULPS ulps, or lo moved onto an exact root;
            # a bisection that evaluates the ends again returns the same h
            f, lo, hi, tol = calls[-1]
            assert hi - lo <= CORNER_WIDTH_ULPS * math.ulp(hi) or f(lo) == 0.0
            assert h == orig(lambda x: fd(x)[0], lo, hi, tol)
            return h, evals

        monkeypatch.setattr(learners.rootsolve, "bisect", counting)
        monkeypatch.setattr(learners, "solve_corner", recording)
        traces = []
        l = cls(3, trace_cb=traces.append)
        fuzz_rounds(l, 400, seed=67, loss_hi=0.05)
        corners = sum(0.0 < tr.h < 1.0 for tr in traces)
        assert corners > 10 and len(calls) == corners == l.corner_rounds
        # every point is evaluated once: the finish is given the known ends,
        # 0 and 1 among them, and evaluates no point of its own
        assert len(points) == corners
        for seen in points:
            assert len(seen) == len(set(seen)) and 0.0 not in seen and 1.0 not in seen
        assert l.residual_evals == sum(map(len, points))
        assert l.residual_evals / l.corner_rounds <= 5.0

    @pytest.mark.parametrize("loss,q", [(1e-6, 0.5), (1e-3, 0.5), (1e-6, -0.49),
                                        (0.5, 0.3), (0.5, -0.49), (1e-310, 0.5),
                                        (5e-324, 0.5)])
    def test_corner_shaped_residuals_take_at_most_five_evaluations(self, loss, q):
        # loss - h / (1 + (h-1) q): the root sits near h = 0 for a small
        # loss, down to subnormal corners; the stopping width is relative to
        # h, so these cost no more than a corner near 1
        def fd(h):
            den = 1.0 + (h - 1.0) * q
            return loss - h / den, -(1.0 - q) / (den * den)

        h, evals = solve_corner(fd, loss, fd(1.0)[0])
        assert evals <= 5
        h_ref = bisect_to_float_resolution(lambda x: fd(x)[0])
        assert abs(h - h_ref) <= CORNER_WIDTH_ULPS * math.ulp(h_ref)

    @pytest.mark.parametrize("loss,q", [(1e-6, 0.5), (1e-3, 0.5), (1e-6, -0.49),
                                        (0.5, 0.3), (0.5, -0.49), (1e-310, 0.5)])
    def test_past_the_newton_cap_the_solve_closes_the_bracket(self, loss, q, monkeypatch):
        # the corner-shaped residuals above (but 5e-324, closed by its first
        # point) with the cap at 2 evaluations: the solve goes on with
        # bisection steps until the bracket is closed, and its one bisect
        # call is asked for the two ends only
        def fd(h):
            den = 1.0 + (h - 1.0) * q
            return loss - h / den, -(1.0 - q) / (den * den)

        seen, calls, asked = [], [], []

        def counted(h):
            seen.append(h)
            return fd(h)

        def recording_bisect(f, lo, hi, tol):
            calls.append((lo, hi))
            return bisect(lambda x: asked.append(x) or f(x), lo, hi, tol)

        monkeypatch.setattr(learners, "CORNER_MAX_EVALS", 2)
        monkeypatch.setattr(learners.rootsolve, "bisect", recording_bisect)
        h, evals = solve_corner(counted, loss, fd(1.0)[0])
        assert evals == len(seen) == len(set(seen)) > 2
        [(lo, hi)] = calls
        assert hi - lo <= CORNER_WIDTH_ULPS * math.ulp(hi) or fd(lo)[0] == 0.0
        assert set(asked) <= {lo, hi} and lo in asked
        h_ref = bisect_to_float_resolution(lambda x: fd(x)[0])
        assert abs(h - h_ref) <= CORNER_WIDTH_ULPS * math.ulp(h_ref)

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    @pytest.mark.parametrize("loss", [1e-310, 5e-324])
    def test_subnormal_loss_corner(self, cls, loss, monkeypatch):
        # the corner sits among the subnormals: h must lie within float
        # resolution of the root of the round's own residual, which can be a
        # run of exact zeros here, and the step must stop short of the
        # corner, not a float-noise step past it
        traces, residuals = [], []
        l = cls(2, trace_cb=traces.append)

        def recording(fd, f0, f1, slope0=None):
            residuals.append(fd)
            return solve_corner(fd, f0, f1, slope0)

        monkeypatch.setattr(learners, "solve_corner", recording)
        g = np.array([0.5, -0.5])
        l.step(1.0, g)
        l.step(loss, g)
        h = traces[-1].h
        assert l.corner_rounds == 1 and len(residuals) == 1 and 0.0 <= h < 1e-12
        f = lambda x: residuals[0](x)[0]
        first, last = bisect_to_float_resolution(f, False), bisect_to_float_resolution(f)
        assert first - CORNER_WIDTH_ULPS * math.ulp(first) <= h
        assert h <= last + CORNER_WIDTH_ULPS * math.ulp(last)
        assert 0.0 <= residual_of(traces[-1]) <= RESIDUAL_BAND

    def test_the_polynomial_solve_starts_from_a_bracket_or_not_at_all(self, monkeypatch):
        # losses a few ulps around the one that puts f(1) at 0: f(1) < 0 by
        # the full round's formula can meet P(1) >= 0 from the coefficients,
        # and then no solve starts and the round is a full one
        built, solves = [], []
        poly = learners._poly_residual

        def recording_poly(*args):
            fd, p0, p1, slope0 = poly(*args)
            built.append(p1)
            return fd, p0, p1, slope0

        def recording_solve(fd, f0, f1, slope0):
            assert f0 >= 0.0 > f1 and (f0, f1, slope0) == (fd(0.0)[0], fd(1.0)[0], fd(0.0)[1])
            solves.append(f1)
            return solve_corner(fd, f0, f1, slope0)

        monkeypatch.setattr(learners, "_poly_residual", recording_poly)
        monkeypatch.setattr(learners, "solve_corner", recording_solve)
        rng = np.random.default_rng(79)
        full_at_a_built_corner = 0
        for i in range(100):
            v = rng.normal(size=2)
            radius = rng.uniform(0.0, 0.3) if i % 2 else rng.uniform(0.38, 0.5)
            state = (v * radius / np.linalg.norm(v), float(np.exp(rng.uniform(-3.0, 3.0))),
                     float(rng.uniform(18.0, 500.0)))
            g = rng.normal(size=2)
            g *= rng.uniform(0.1, 1.0) / np.linalg.norm(g)
            loss = -float(g @ (closed_form_w_next(*state, g, 1.0) - state[0] * state[1]))
            for k in range(-6, 7):
                traces = []
                l = ImplicitCoin(2, trace_cb=traces.append)
                l.beta, l.wealth, l.inv_eta = state
                before = len(built)
                l.step(max(0.0, loss + k * math.ulp(loss)), g)
                if len(built) > before and not built[-1] < 0.0:
                    full_at_a_built_corner += 1
                    assert traces[-1].h == 1.0 and l.corner_rounds == 0
        assert full_at_a_built_corner > 5 and len(solves) > 100

    def test_exact_root_at_zero_is_returned_without_evaluating(self):
        def fd(h):
            raise AssertionError(f"evaluated at {h}")

        assert solve_corner(fd, 0.0, -1.0) == (0.0, 0)

    @pytest.mark.parametrize("fn", [learners._BettingCoin.step, CoordinateImplicitCoin.step,
                                    solve_corner], ids=lambda fn: fn.__qualname__)
    def test_per_round_functions_hold_no_closure_cell(self, fn):
        # a cell is made on every call, zero rounds and Newton steps included;
        # corner residuals are built by module functions instead
        assert fn.__code__.co_cellvars == ()


class TestScaledState:
    """The one-game variants hold beta = a u: a reset by assigning beta, a
    scale that would underflow folded into u, and iterates that stay at
    float noise from a replay on the plain fraction."""

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin])
    def test_assigning_beta_resets_the_scale(self, cls):
        l = cls(3)
        fuzz_rounds(l, 60, seed=3, loss_hi=0.5)
        zero = np.zeros(3)
        for v in (np.array([0.1, -0.2, 0.05]), np.array([0.4, 0.0, 0.0])):
            l.beta = v
            assert l.beta is v
            assert l.predict().tobytes() == (v * l.wealth).tobytes()
            assert l.step(1.0, zero).tobytes() == (v * l.wealth).tobytes()

    def test_assigning_the_kept_array_again_drops_the_held_iterate(self):
        # the shrink branch keeps u, the array assigned last, and changes a
        # alone; assigning that array again changes the state
        l = ImplicitCoin(3)
        v = np.array([0.4, 0.0, 0.0])
        l.beta = v
        w = l.step(10.0, np.array([-0.5, 0.0, 0.0]))
        assert 0.0 < l.beta[0] < 0.4 and l.step(1.0, np.zeros(3)) is w
        l.beta = v
        assert l.step(1.0, np.zeros(3)).tobytes() == (v * l.wealth).tobytes()

    def test_a_shrink_by_a_factor_zero_folds_into_u(self):
        # 1 - 2 gain eta ||g|| is exactly 0 at 1/eta = 18 and ||g|| = 1: the
        # fraction vanishes and the next small-branch round divides by a new
        # scale, not by 0
        traces = []
        l = ImplicitCoin(1, trace_cb=traces.append)
        l.beta = np.array([0.4])
        assert l.step(10.0, np.array([-1.0])).tobytes() == np.zeros(1).tobytes()
        assert l.beta[0] == 0.0 and l._a == 1.0
        for g in ([-1.0], [0.5], [-0.25]):
            state = (l.beta.copy(), float(l.wealth), float(l.inv_eta))
            w_next = l.step(10.0, np.array(g))
            assert traces[-1].h == 1.0 and np.all(np.isfinite(w_next))
            np.testing.assert_allclose(w_next, closed_form_w_next(*state, np.array(g), 1.0),
                                       rtol=1e-12)

    def test_a_scale_below_the_fold_folds_into_u(self):
        # with 1/eta pinned just above 2 g.g, each projected round scales a
        # by about 2^-50: without the fold a^2 u.u would underflow within 11
        # rounds and a itself within 22
        l = ProjectedImplicitCoin(2)
        g = np.array([0.6, -0.8])
        folds = 0
        for i in range(40):
            l.inv_eta = 2.0 * (1.0 + 2.0 ** -50)
            state = (l.beta.copy(), float(l.wealth), float(l.inv_eta))
            scale = l._a
            w_next = l.step(10.0, g if i % 3 else -g)
            folds += l._a == 1.0 and scale != 1.0
            assert 2.0 ** -500 < l._a <= 1.0 and np.all(np.isfinite(w_next))
            np.testing.assert_allclose(
                w_next, closed_form_w_next(*state, g if i % 3 else -g, 1.0, projected=True),
                rtol=1e-9)
        assert folds >= 3

    def test_a_step_scale_of_zero_folds_into_u(self):
        # 1/eta set to 2 g.g makes the unprojected step's scale 1 - eta k2
        # exactly 0
        l = ProjectedImplicitCoin(2)
        l.beta = np.array([0.1, 0.2])
        l.inv_eta = 2.0
        g = np.array([0.6, -0.8])
        state = (l.beta.copy(), float(l.wealth), float(l.inv_eta))
        w_next = l.step(10.0, g)
        np.testing.assert_allclose(w_next, closed_form_w_next(*state, g, 1.0, projected=True),
                                   rtol=1e-15)
        assert l._a == 1.0 and np.all(np.isfinite(l.step(10.0, -g)))

    @pytest.mark.parametrize("stream", ["c1", "alternating", "persistent"])
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin])
    def test_long_stream_stays_at_float_noise_of_the_plain_replay(self, cls, stream):
        dim = 8
        traces = []
        l = cls(dim, trace_cb=traces.append)
        rng = np.random.default_rng(89)
        X = rng.normal(size=(100, dim))
        X /= np.linalg.norm(X, axis=1)[:, None]
        if stream == "c1":  # corners on most rounds
            G, U = c1_stream(83, dim, rounds=20000, drift=True)
            drive_c1(l, G, U)
            assert sum(0.0 < tr.h < 1.0 for tr in traces) > 10000
        elif stream == "alternating":  # x, -x, next row, ...: w swings through 0
            for t in range(20000):
                l.step(0.3, X[t // 2 % 100] * (1.0 if t % 2 == 0 else -1.0))
        else:  # a coin of norm below 1 pushing three rows in turn, to the ball
            for t in range(400):
                l.step(1e300, -(0.5 + 0.3 * math.sin(t)) * X[t // 40 % 3])
            norms = [float(np.linalg.norm(tr.beta_next)) for tr in traces]
            if cls is ImplicitCoin:  # the shrink branch
                assert sum(n >= SHRINK_THRESHOLD for n in norms) > 5
            else:  # the projection
                assert sum(n > 0.5 - 1e-12 for n in norms) > 50
        W = np.array([tr.w_next for tr in traces])
        gap = np.max(np.abs(W - np.array(plain_replay(cls, dim, traces))))
        assert gap <= 1e-10 * np.max(np.abs(W))


class TestWealthBookkeeping:
    def test_wealth_update_full_round_is_numerator_only(self):
        beta = np.array([0.2, -0.1])
        g = np.array([0.5, 0.5])
        pair = make_pair(g, 1.0)
        got = wealth_update(2.0, beta, pair, np.array([0.3, 0.0]))
        assert got == pytest.approx(2.0 * (1.0 - g @ beta), abs=1e-15)

    def test_wealth_update_zero_fraction_numerator_is_one(self):
        pair = make_pair(np.array([0.7]), 0.25)
        got = wealth_update(3.0, np.zeros(1), pair, np.array([0.1]))
        assert got == pytest.approx(3.0 / (1.0 + (0.25 - 1.0) * 0.7 * 0.1), abs=1e-14)

    @pytest.mark.parametrize("cls,eps", [(ProjectedImplicitCoin, 1.0),
                                         (ImplicitCoin, 1.0),
                                         (CoordinateImplicitCoin, 3.0)])
    def test_recursion_matches_additive_expansion(self, cls, eps):
        traces = []
        l = cls(3, trace_cb=traces.append)
        fuzz_rounds(l, 2000, seed=29, loss_hi=1.0)
        spent = 0.0
        for tr in traces:
            g_plus = tr.h * tr.g
            spent += float(tr.g @ (tr.w - tr.w_next)) + float(g_plus @ tr.w_next)
            assert abs(tr.wealth_after - (eps - spent)) <= 1e-9 * max(1.0, abs(tr.wealth_after))

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin])
    def test_wealth_stays_positive(self, cls):
        l = cls(2)
        fuzz_rounds(l, 3000, seed=31, loss_hi=0.5)
        assert l.wealth > 0.0


class TestTraceRecords:
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_records_share_arrays_that_are_never_written(self, cls):
        traces, snapshots = [], []

        def keep(tr):
            traces.append(tr)
            snapshots.append([np.copy(a) for a in (tr.w, tr.g, tr.w_next,
                                                   tr.beta, tr.beta_next)])

        l = cls(3, trace_cb=keep)
        fuzz_rounds(l, 300, seed=37, loss_hi=0.05)
        for tr, snap in zip(traces, snapshots):
            for a, b in zip((tr.w, tr.g, tr.w_next, tr.beta, tr.beta_next), snap):
                np.testing.assert_array_equal(a, b)


    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_record_carries_the_state_the_round_started_from(self, cls):
        # a record's w and wealth_before are those of the last traced round
        # while the state is the one it left: they must equal predict() and
        # the total wealth read before the step, bit for bit, also after an
        # untraced stretch and after the fraction or the wealth is replaced
        traces = []
        l = cls(3, trace_cb=traces.append)
        rng = np.random.default_rng(43)
        for i in range(400):
            if i % 50 == 25:
                l.trace_cb = None
            elif i % 50 == 30:
                l.trace_cb = traces.append
            if i == 200:
                l.beta = l.beta * 0.5
            elif i == 300:
                l.wealth = l.wealth * 2.0
            w, wealth = l.predict(), float(np.sum(l.wealth))
            g = rng.normal(size=3)
            g *= rng.uniform(0.0, 1.0) / np.linalg.norm(g)
            if i % 7 == 0:
                g = np.zeros(3)
            before = len(traces)
            w_next = l.step(rng.uniform(0.0, 0.05), g)
            if len(traces) > before:
                tr = traces[-1]
                assert tr.w.tobytes() == w.tobytes()
                assert tr.wealth_before == wealth
                assert tr.wealth_after == float(np.sum(l.wealth))
                assert tr.w_next is w_next
        assert len(traces) == 400 - 8 * 5
        assert any(0.0 < tr.h < 1.0 for tr in traces)


class TestStateInvariants:
    def test_projected_fraction_inside_half_ball(self):
        l = ProjectedImplicitCoin(3)
        worst = 0.0
        rng = np.random.default_rng(41)
        for _ in range(3000):
            g = rng.normal(size=3)
            g /= np.linalg.norm(g)  # adversarially large coins
            l.step(rng.uniform(0.0, 0.2), g)
            worst = max(worst, float(np.linalg.norm(l.beta)))
        assert worst <= 0.5 + 1e-12

    def test_closed_form_fraction_inside_half_ball_without_projection(self):
        l = ImplicitCoin(1)
        worst = 0.0
        for _ in range(3000):
            l.step(0.01, np.array([-1.0]))  # constant coin drives beta outward
            worst = max(worst, abs(float(l.beta[0])))
        assert worst <= 0.5 + 1e-12

    def test_projected_step_size_lemma(self):
        traces = []
        l = ProjectedImplicitCoin(2, trace_cb=traces.append)
        fuzz_rounds(l, 2000, seed=43, loss_hi=0.5)
        pair_sum = 0.0
        for tr in traces:
            norm_g = float(np.linalg.norm(tr.g))
            norm_gp = tr.h * norm_g
            pair_sum += norm_g * norm_gp
            step = float(np.linalg.norm(tr.beta_next - tr.beta))
            assert step <= 3.0 * norm_gp / (1.0 + 2.0 * pair_sum) + 1e-12

    def test_projected_inv_eta_matches_trace_accumulation(self):
        traces = []
        l = ProjectedImplicitCoin(2, trace_cb=traces.append)
        fuzz_rounds(l, 500, seed=47, loss_hi=0.5)
        acc = 3.0
        for tr in traces:
            gg = float(tr.g @ tr.g)
            acc += 2.0 * gg * tr.h * (2.0 - tr.h)
        assert l.inv_eta == pytest.approx(acc, rel=1e-12)

    def test_closed_form_inv_eta_branches(self):
        # small-fraction branch accumulates 2*||g||^2*h*(2-h); shrink branch 2*gain*||g+||
        l = ImplicitCoin(1)
        l.step(10.0, np.array([-1.0]))  # h=1, small branch
        assert l.inv_eta == pytest.approx(20.0, abs=1e-12)
        l.beta = np.array([0.4])  # force the shrink branch
        l.step(10.0, np.array([-1.0]))
        assert l.inv_eta == pytest.approx(20.0 + 2.0 * SHRINK_GAIN, abs=1e-12)


class TestCoordinateMatchesReference:
    @pytest.mark.parametrize("dim", [4, 8, 21])
    def test_mixed_branch_rounds_follow_the_per_coordinate_games(self, dim):
        # a drifting coin pushes half the fractions onto the shrink branch,
        # so rounds mix both branches, full and at a corner
        traces = []
        l = CoordinateImplicitCoin(dim, trace_cb=traces.append)
        G, U = c1_stream(17 + dim, dim, rounds=600, drift=True)
        seen = {"full": 0, "corner": 0}
        for i, (g, u) in enumerate(zip(G, U)):
            state = (l.beta, l.wealth, l.inv_eta)
            w = l.predict()
            loss = 10.0 * u if i % 2 == 0 else u * 2.0 * float(g @ g) * float(
                np.sum(l.wealth)) / float(np.min(l.inv_eta))
            w_next = l.step(loss, g)
            tr = traces[-1]
            small = np.abs(state[0]) < SHRINK_THRESHOLD
            if tr.h == 0.0 or small.all() or not small.any():
                continue
            seen["full" if tr.h == 1.0 else "corner"] += 1
            ref_w, ref_inv_eta = coordinate_w_next(*state, tr.g, tr.h)
            np.testing.assert_allclose(w_next, ref_w, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(l.inv_eta, ref_inv_eta, rtol=1e-12)
            if tr.h < 1.0:  # the corner of the reference residual, to 1e-6
                h_ref = bisect(lambda h: loss + float(
                    tr.g @ (coordinate_w_next(*state, tr.g, h)[0] - w)), 0.0, 1.0, 1e-9)
                assert abs(tr.h - h_ref) <= 1e-6
        assert seen["full"] >= 5 and seen["corner"] >= 20


def coordinate_residual(beta, wealth, inv_eta, loss, g):
    """The fd(h) of a `CoordinateImplicitCoin` corner round from this state,
    built as its step builds it."""
    small = np.abs(beta) < SHRINK_THRESHOLD
    corner = learners._CwCorner(len(beta))
    corner.build(loss, wealth, g, beta, g * g, inv_eta, np.abs(g),
                 None if small.all() else small)
    return corner.fd


class TestCoordinateResidual:
    """The per-coordinate corner residual against the reference round: its
    value is loss + <g, w_next(h) - w> with w_next from `coordinate_w_next`,
    to 1e-12 of the terms that sum cancels, and its slope is a centred
    difference of its values, on states whose coordinates are all small,
    mixed or all on the shrink branch."""

    @staticmethod
    def state(rng, d, kind):
        small, shrink = rng.uniform(0.0, 0.37, size=d), rng.uniform(0.38, 0.5, size=d)
        radius = {"small": small, "shrink": shrink,  # mixed: half on each branch
                  "mixed": np.where(np.arange(d) % 2 == 0, small, shrink)}[kind]
        beta = radius * rng.choice([-1.0, 1.0], size=d)
        wealth = np.exp(rng.uniform(-3.0, 3.0, size=d))
        inv_eta = rng.uniform(18.0, 500.0, size=d)
        g = rng.normal(size=d)
        g *= rng.uniform(0.1, 1.0) / np.max(np.abs(g))
        loss = rng.uniform(0.0, 2.0) * float(wealth.sum()) / float(inv_eta.min())
        return beta, wealth, inv_eta, loss, g

    @pytest.mark.parametrize("d,kind", [(1, "small"), (1, "shrink"), (4, "small"),
                                        (4, "mixed"), (4, "shrink"), (21, "small"),
                                        (21, "mixed"), (21, "shrink")])
    def test_value_and_slope_match_the_reference_round(self, d, kind):
        rng = np.random.default_rng([d, ["small", "mixed", "shrink"].index(kind)])
        step = 1e-6
        for _ in range(10):
            beta, wealth, inv_eta, loss, g = self.state(rng, d, kind)
            fd = coordinate_residual(beta, wealth, inv_eta, loss, g)
            w = beta * wealth
            for h in rng.uniform(0.01, 0.99, size=20):
                value, slope = fd(h)
                w_next = coordinate_w_next(beta, wealth, inv_eta, g, h)[0]
                reference = loss + float(g @ (w_next - w))
                scale = loss + float(np.abs(g) @ (np.abs(w_next) + np.abs(w)))
                assert abs(value - reference) <= 1e-12 * scale
                centred = (fd(h + step)[0] - fd(h - step)[0]) / (2.0 * step)
                assert abs(slope - centred) <= 1e-6 * abs(centred)

    def test_a_pickled_learner_plays_on_alike(self):
        G, U = c1_stream(3, 4, rounds=400, drift=True)
        a = CoordinateImplicitCoin(4)
        drive_c1(a, G[:200], U[:200])
        b = pickle.loads(pickle.dumps(a))
        assert b._corner.fd is not a._corner.fd  # buffers of its own
        assert drive_c1(a, G[200:], U[200:]) == drive_c1(b, G[200:], U[200:])
        assert learner_state(a) == learner_state(b) and a.corner_rounds > 0


class TestCoordinateCornerEvaluations:
    """Residual evaluations per corner do not rise. Every learner is asked
    the same rounds: the nonzero rounds of the C1 streams of seeds 5, 111
    and 90001, with and without drift, each from the state in which
    `reference.coordinate_rounds` plays it. BEFORE holds the figures of the
    residual before the complex-step evaluation (seven numpy calls an
    evaluation: the (2, 4) @ (4, 2d) product, two divisions, a product, a
    difference and two dots). Any change of the residual's rounding
    moves some corners' solves by one evaluation either way: against BEFORE,
    the complex-step residual spends one more on 63 of the 641 corners at
    d = 4 and one fewer on 56 (net +7), so the figure carries float noise of
    about +-0.4% (+-0.7% at d = 21), and it is held within 1% of BEFORE."""

    BEFORE = {4: (2917, 641), 21: (1567, 360)}  # evaluations, corner rounds

    @pytest.mark.parametrize("dim", [4, 21])
    def test_evaluations_per_corner_do_not_rise(self, dim):
        learner = CoordinateImplicitCoin(dim)
        for seed in (5, 111, 90001):
            for drift in (False, True):
                for beta, wealth, inv_eta, loss, g in coordinate_rounds(
                        *c1_stream(seed, dim, drift=drift)):
                    learner.beta, learner.wealth, learner.inv_eta = beta, wealth, inv_eta
                    learner.step(loss, g)
        evals, corners = self.BEFORE[dim]
        assert learner.corner_rounds == corners
        assert learner.residual_evals / learner.corner_rounds <= 1.01 * evals / corners


class TestCoordinateMatchesClosedFormIn1d:
    def test_trajectories_agree(self):
        rng = np.random.default_rng(53)
        a = ImplicitCoin(1)
        b = CoordinateImplicitCoin(1)
        wa = a.predict()
        wb = b.predict()
        for _ in range(500):
            c = float(rng.normal() * 3.0)
            la = abs(float(wa[0]) - c)
            ga = np.array([np.sign(float(wa[0]) - c)])
            lb = abs(float(wb[0]) - c)
            gb = np.array([np.sign(float(wb[0]) - c)])
            wa = a.step(la, ga)
            wb = b.step(lb, gb)
            assert abs(float(wa[0]) - float(wb[0])) <= 1e-12


def c1_stream(seed, dim, rounds=300, drift=False):
    """C1-shaped rounds (gradient norms u^(1/d), losses alternating between
    a plain draw and the scale of the tentative step), with every 7th
    gradient zero and every 11th lifted 5e-10 past the unit bound. drift
    adds a persistent coin on the first coordinates, which drives their
    fractions onto the shrink branch."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(rounds, dim))
    if drift:
        half = max(1, dim // 2)
        G[:, :half] = -2.0 + 0.3 * G[:, :half]
    G *= (rng.uniform(size=rounds) ** (1.0 / dim) / np.linalg.norm(G, axis=1))[:, None]
    G[::7] = 0.0
    return G, rng.uniform(size=rounds)


def drive_c1(learner, G, U):
    """Feed the stream; returns the returned iterates' bytes."""
    coordinate = isinstance(learner, CoordinateImplicitCoin)
    out = []
    for i, (g, u) in enumerate(zip(G, U)):
        if i % 11 == 5 and np.any(g):  # float excess over the bound: renormalised
            g = g * ((1.0 + 5e-10) / (np.max(np.abs(g)) if coordinate else np.linalg.norm(g)))
        if i % 2 == 0:
            loss = 10.0 * u
        else:
            loss = u * 2.0 * float(g @ g) * max(float(np.sum(learner.wealth)), 1e-6) / float(
                np.min(learner.inv_eta))
        out.append(learner.step(loss, g).tobytes())
    return out


def drive_hinge(learner, seed, rows=150, epochs=3):
    """A hinge-loss run on unit rows, where an inactive hinge gives a zero
    gradient."""
    rng = np.random.default_rng(seed)
    d = learner.dim
    X = rng.normal(size=(rows, d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    y = np.where(X @ rng.normal(size=d) >= 0.0, 1.0, -1.0)
    examples = labeled_examples(X, y)
    w, out = learner.predict(), []
    for _ in range(epochs):
        for ex in examples:
            w = learner.step(*hinge_eval_grad(w, ex))
            out.append(w.tobytes())
    return out


def learner_state(l):
    return ([np.asarray(getattr(l, a), dtype=np.float64).tobytes()
             for a in ("beta", "wealth", "inv_eta")]
            + [l.t, l.corner_rounds, l.residual_evals, l.grad_norm_warnings])


class TestTracedEqualsUntraced:
    """A trace_cb only watches: the traced round runs the same arithmetic,
    so iterates, state and counters are bit-identical without it."""

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("dim", [1, 4, 21])
    @pytest.mark.parametrize("seed", [5, 111, 90001])
    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_c1_stream(self, cls, seed, dim, drift):
        G, U = c1_stream(seed, dim, drift=drift)
        traces = []
        traced, plain = cls(dim, trace_cb=traces.append), cls(dim)
        assert drive_c1(traced, G, U) == drive_c1(plain, G, U)
        assert learner_state(traced) == learner_state(plain)
        assert len(traces) == len(U) and plain.grad_norm_warnings > 0
        assert any(0.0 < tr.h < 1.0 for tr in traces)
        assert any(tr.h == 0.0 for tr in traces)

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_hinge_stream_with_zero_gradients(self, cls):
        traces = []
        traced, plain = cls(21, trace_cb=traces.append), cls(21)
        assert drive_hinge(traced, 7) == drive_hinge(plain, 7)
        assert learner_state(traced) == learner_state(plain)
        assert sum(not np.any(tr.g) for tr in traces) > len(traces) // 10


class TestNormBound:
    """The one-game variants keep a bound on ||beta|| and
    CoordinateImplicitCoin one on the largest |beta_i|, grown by each step's
    largest move. A round whose bound is below the shrink threshold skips
    measuring the fraction, and a projected round whose bound keeps every
    step inside the ball plays ImplicitCoin's unprojected round. The bound
    holds after every round, and a learner made to measure every round plays
    the same bits."""

    @staticmethod
    def bounded(l):
        """Whether the next round takes its branch from the bound (for the
        projected variant: tries the bound before measuring)."""
        if isinstance(l, ImplicitCoin):
            return l._uu is None and l._reach < learners._SMALL_REACH
        if isinstance(l, ProjectedImplicitCoin):
            return l._uu is None
        key_beta, key_inv_eta, r, _ = l._reach
        return key_beta is l.beta and key_inv_eta is l.inv_eta and r < SHRINK_THRESHOLD

    def play(self, cls, dim, drive, *args):
        plain, measuring = cls(dim), cls(dim)
        step, measured_step, bounded = plain.step, measuring.step, []
        coordinate = cls is CoordinateImplicitCoin

        def checked(*a):
            bounded.append(self.bounded(plain))
            w = step(*a)
            beta = plain.beta
            if not coordinate:
                assert plain._uu is not None or plain._reach >= float(np.linalg.norm(beta))
            elif plain._reach[0] is beta:
                assert plain._reach[2] >= float(np.max(np.abs(beta)))
            return w

        def measured(*a):  # no bound kept: the fraction is measured
            measuring._reach = learners._NO_REACH if coordinate else math.inf
            return measured_step(*a)

        plain.step, measuring.step = checked, measured
        assert drive(plain, *args) == drive(measuring, *args)
        assert learner_state(plain) == learner_state(measuring)
        return bounded

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("dim", [1, 4, 21])
    @pytest.mark.parametrize("cls", [ImplicitCoin, ProjectedImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_c1_stream(self, cls, dim, drift):
        bounded = self.play(cls, dim, drive_c1, *c1_stream(111, dim, rounds=600, drift=drift))
        # a drifting stream keeps some fractions on the shrink branch
        assert any(bounded) and not all(bounded)
        assert drift or sum(bounded) > len(bounded) // 4

    @pytest.mark.parametrize("cls", [ImplicitCoin, ProjectedImplicitCoin,
                                     CoordinateImplicitCoin])
    def test_hinge_stream(self, cls):
        bounded = self.play(cls, 21, drive_hinge, 7)
        assert sum(bounded) > len(bounded) // 4

    @staticmethod
    def replaying(l, *a):
        """l's round with the bound ignored: every round replays the
        projection, as a projected round did before it kept the bound."""
        inside = learners._INSIDE
        learners._INSIDE = -math.inf
        try:
            return l.step(*a)
        finally:
            learners._INSIDE = inside

    def test_projected_rounds_match_the_projection_replay(self):
        # each round of C1 streams, played from the same state by the learner
        # and by a copy made to replay the projection: a full round has the
        # same bits, and a corner h within twice the solve's width of the
        # replay's, each being within that width of its own residual's root
        projections = 0
        for dim, drift in [(1, False), (1, True), (4, False), (4, True), (21, True)]:
            traces, replayed = [], []
            l = ProjectedImplicitCoin(dim)
            full = corners = fallbacks = 0
            for i, (g, u) in enumerate(zip(*c1_stream(111, dim, rounds=600, drift=drift))):
                loss = 10.0 * u if i % 2 == 0 else u * 2.0 * float(g @ g) * l.wealth / l.inv_eta
                other = pickle.loads(pickle.dumps(l))
                l.trace_cb, other.trace_cb = traces.append, replayed.append
                w_other = self.replaying(other, loss, g)
                w = l.step(loss, g)
                l.trace_cb = None
                h = traces[-1].h
                if h == 1.0:
                    full += 1
                    assert replayed[-1].h == 1.0 and w.tobytes() == w_other.tobytes()
                    assert learner_state(l)[:3] == learner_state(other)[:3]
                elif h > 0.0:
                    corners += 1
                    assert abs(h - replayed[-1].h) <= 2.0 * CORNER_WIDTH_ULPS * math.ulp(h)
                if h > 0.0 and l._uu is not None:  # the round took the replay
                    fallbacks += 1
                    projections += abs(2.0 * float(np.linalg.norm(l.beta)) - 1.0) <= 1e-12
            assert full > 10 and corners > 100 and fallbacks < (full + corners) // 4
        # a drifting 1-d coin reaches the boundary, where the replay projects
        assert projections > 10


class TestInputConversion:
    """The gradient is converted only when it is not a float64 ndarray, and
    every other input still is."""

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    @pytest.mark.parametrize("rows,convert", [
        ([[0.1, -0.3, 0.7], [0.6, 0.0, -0.2]], lambda g: g.tolist()),
        ([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]], lambda g: g.astype(np.int64)),
        ([[0.1, -0.3, 0.7], [0.6, 0.0, -0.2]], lambda g: g.astype(np.float32)),
    ], ids=["list", "int", "float32"])
    def test_converted_gradients_give_the_round_of_their_float64_values(self, cls, rows,
                                                                       convert):
        ref, other = cls(3), cls(3)
        for row in rows:
            g = convert(np.array(row))
            w_ref = ref.step(0.3, np.asarray(g, dtype=np.float64))
            assert other.step(0.3, g).tobytes() == w_ref.tobytes()
        assert learner_state(ref) == learner_state(other)

    @pytest.mark.parametrize("cls", [ProjectedImplicitCoin, ImplicitCoin,
                                     CoordinateImplicitCoin])
    @pytest.mark.parametrize("g", [[0.1, 0.2, 0.0], np.zeros(3, dtype=np.float32),
                                   np.zeros((1, 2))])
    def test_shape_mismatch_still_raises(self, cls, g):
        l = cls(2)
        with pytest.raises(ValueError, match="shape"):
            l.step(0.3, g)
        assert l.t == 0
