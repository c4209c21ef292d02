import math

import numpy as np
import pytest

from implicitcoin.diagnostics import (BetaBallFold, NoOvershootFold,
                                      WealthIdentityFold, WealthLowerBoundFold,
                                      WealthTraceWriter, figure1_scenario,
                                      folds_for_learner)
from implicitcoin.learners import (CLOSED_FORM, PROJECTED, ImplicitCoin,
                                   ProjectedImplicitCoin, StepTrace)
from reference import fold_all


def drive(learner, n, seed, loss_hi=2.0, adversarial=False):
    rng = np.random.default_rng(seed)
    traces = []
    learner.trace_cb = traces.append
    w = learner.predict()
    for _ in range(n):
        if adversarial:
            sign = math.copysign(1.0, w[0]) if w[0] != 0.0 else 1.0
            g = np.array([sign])
        else:
            g = np.array([float(rng.choice([-1.0, 1.0]))])
        w = learner.step(rng.uniform(0.0, loss_hi), g)
    return traces


def ogd_traces(eta0, rounds=12, target=10.0):
    """Plain decaying-step gradient descent on |w - target|, recorded as traces."""
    w = 0.0
    traces = []
    for t in range(1, rounds + 1):
        loss = abs(w - target)
        g = 0.0 if w == target else math.copysign(1.0, w - target)
        w_next = w - eta0 / math.sqrt(t) * g
        traces.append(StepTrace(
            t=t, w=np.array([w]), g=np.array([g]), loss_value=loss, h=1.0,
            w_next=np.array([w_next]), beta=np.zeros(1), beta_next=np.zeros(1),
            wealth_before=1.0, wealth_after=1.0))
        w = w_next
    return traces


class TestNoOvershoot:
    def test_betting_learner_passes(self):
        traces = drive(ImplicitCoin(1), 500, seed=3, loss_hi=0.5)
        report = fold_all(NoOvershootFold(), traces)
        assert report.passed and report.rounds > 0

    def test_large_step_gradient_descent_flagged(self):
        report = fold_all(NoOvershootFold(), ogd_traces(eta0=3.0))
        assert not report.passed
        assert report.worst_slack < -1e-8
        assert report.first_violation is not None

    def test_empty_traces_vacuous_pass(self):
        report = fold_all(NoOvershootFold(), [])
        assert report.passed and report.rounds == 0


class TestWealthIdentity:
    def test_single_full_round_from_zero_fraction_is_exact(self):
        traces = []
        l = ImplicitCoin(1, trace_cb=traces.append)
        l.step(10.0, np.array([-1.0]))
        report = fold_all(WealthIdentityFold(), traces)
        assert report.worst_slack == 0.0

    def test_fuzzed_rounds_within_tolerance(self):
        traces = drive(ImplicitCoin(1), 3000, seed=7, loss_hi=1.0)
        assert fold_all(WealthIdentityFold(), traces).passed

    def test_zero_gradient_rounds_contribute_nothing(self):
        traces = []
        l = ImplicitCoin(2, trace_cb=traces.append)
        l.step(1.0, np.array([0.5, 0.0]))
        before = len(traces)
        l.step(1.0, np.zeros(2))
        report = fold_all(WealthIdentityFold(), traces)
        assert report.passed and report.rounds == before + 1


class TestWealthLowerBound:
    def test_degenerate_all_zero_coins_slack_is_three_halves(self):
        traces = []
        l = ProjectedImplicitCoin(1, trace_cb=traces.append)
        for _ in range(5):
            l.step(1.0, np.zeros(1))
        report = fold_all(WealthLowerBoundFold(PROJECTED), traces)
        assert report.worst_slack == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("cls,variant", [(ProjectedImplicitCoin, PROJECTED),
                                             (ImplicitCoin, CLOSED_FORM)])
    def test_random_coins_pass(self, cls, variant):
        for seed in range(10):
            traces = drive(cls(1), 200, seed=seed)
            assert fold_all(WealthLowerBoundFold(variant), traces).passed

    @pytest.mark.parametrize("cls,variant", [(ProjectedImplicitCoin, PROJECTED),
                                             (ImplicitCoin, CLOSED_FORM)])
    def test_adversarial_coins_pass(self, cls, variant):
        traces = drive(cls(1), 200, seed=1, adversarial=True)
        assert fold_all(WealthLowerBoundFold(variant), traces).passed

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            WealthLowerBoundFold("other")


class TestBetaBall:
    def test_fresh_state_slack_is_half(self):
        tr = StepTrace(t=1, w=np.zeros(1), g=np.zeros(1), loss_value=0.0, h=0.0,
                       w_next=np.zeros(1), beta=np.zeros(1), beta_next=np.zeros(1),
                       wealth_before=1.0, wealth_after=1.0)
        report = fold_all(BetaBallFold(), [tr])
        assert report.worst_slack == 0.5

    def test_fuzz_passes(self):
        traces = drive(ImplicitCoin(1), 2000, seed=11, loss_hi=0.3)
        assert fold_all(BetaBallFold(), traces).passed

    def test_adversarial_constant_coin_engages_shrink_branch(self):
        # large losses keep h = 1, so the fraction is pushed at the boundary
        traces = []
        l = ImplicitCoin(1, trace_cb=traces.append)
        for _ in range(2000):
            l.step(1e6, np.array([-1.0]))
        betas = [abs(float(tr.beta_next[0])) for tr in traces]
        assert max(betas) > 3.0 / 8.0  # boundary region was actually visited
        assert fold_all(BetaBallFold(), traces).passed

    def test_linf_norm_for_coordinate_traces(self):
        tr = StepTrace(t=1, w=np.zeros(2), g=np.zeros(2), loss_value=0.0, h=0.0,
                       w_next=np.zeros(2), beta=np.array([0.4, -0.45]),
                       beta_next=np.array([0.4, -0.45]),
                       wealth_before=2.0, wealth_after=2.0)
        assert fold_all(BetaBallFold("linf"), [tr]).worst_slack == pytest.approx(0.05)


class TestFolding:
    def test_same_traces_same_report(self):
        traces = drive(ImplicitCoin(1), 300, seed=13)
        a = fold_all(NoOvershootFold(), traces)
        b = fold_all(NoOvershootFold(), list(traces))
        assert a == b

    def test_folds_for_learner_mapping(self):
        names = [f.name for f in folds_for_learner("implicit-coin", 3)]
        assert names == ["no_overshoot", "wealth_identity", "beta_ball",
                         "wealth_lower_bound"]
        names = [f.name for f in folds_for_learner("cw-implicit-coin", 3)]
        assert names == ["no_overshoot", "wealth_identity", "beta_ball"]
        assert folds_for_learner("sgd", 3) == []

    def test_report_line_format(self):
        fold = BetaBallFold()
        line = fold.report().line()
        assert line.startswith("check=beta_ball pass")


class TestFigure1:
    def test_scenario_passes_and_reports_rows(self):
        rows = figure1_scenario()
        assert rows[0][1] == 0.0  # starts at zero
        assert max(x for _, x, _ in rows) <= 10.0 + 1e-8
        corner = next(t for t, _, h in rows if h < 1.0)
        assert corner <= 50
        assert all(abs(x - 10.0) <= 1e-6 for t, x, _ in rows if t > corner)

    def test_scenario_detects_missing_corner(self):
        with pytest.raises(RuntimeError, match="corner"):
            figure1_scenario(rounds=5, corner_deadline=5)


def test_wealth_trace_writer(tmp_path):
    path = tmp_path / "trace.csv"
    writer = WealthTraceWriter(path)
    for tr in drive(ImplicitCoin(1), 50, seed=17):
        writer.update(tr)
    writer.close()
    lines = path.read_text().splitlines()
    assert lines[0] == "t,h,wealth,beta_norm,residual"
    assert len(lines) == 51
    parts = lines[1].split(",")
    assert int(parts[0]) == 1 and 0.0 <= float(parts[1]) <= 1.0
