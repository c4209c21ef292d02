import dataclasses
import math

import numpy as np
import pytest

from implicitcoin import baselines, diagnostics
from implicitcoin.cli import main
from implicitcoin.data_io import make_synthetic_regression, serialize_libsvm
from implicitcoin.diagnostics import (WINDOW_ENTRIES, WINDOW_RECORDS, BetaBallFold,
                                      NoOvershootFold, WealthIdentityFold,
                                      WealthLowerBoundFold, WealthTraceWriter,
                                      figure1_scenario, folds_for_learner)
from implicitcoin.learners import (CLOSED_FORM, PROJECTED, CoordinateImplicitCoin,
                                   ImplicitCoin, ProjectedImplicitCoin, StepTrace)
from reference import (ReferenceBetaBallFold, ReferenceNoOvershootFold,
                       ReferenceWealthIdentityFold, ReferenceWealthLowerBoundFold,
                       fold_all, reference_wealth_trace)


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


def corner_stream(cls, dim, seed, rounds=300):
    """Traces of a stream shaped like the benchmark's checked fuzz: every
    other loss is at the scale of the tentative step, so corners are
    frequent, and one round in ten has a zero gradient."""
    rng = np.random.default_rng(seed)
    traces = []
    learner = cls(dim, trace_cb=traces.append)
    for i in range(rounds):
        g = rng.normal(size=dim)
        g *= rng.uniform() ** (1.0 / dim) / np.linalg.norm(g)
        if i % 10 == 9:
            g = np.zeros(dim)
        if i % 2 == 0:
            loss = 10.0 * rng.uniform()
        else:
            wealth = float(np.sum(learner.wealth))
            loss = (rng.uniform() * 2.0 * float(g.dot(g)) * max(wealth, 1e-6)
                    / float(np.min(learner.inv_eta)))
        learner.step(loss, g)
    return traces


def hand_built_records(seed=0, rounds=200):
    """Records no learner emits: restarts every 50 rounds, h in {0, 0.37, 1},
    fractions out of the ball, all-zero and subnormal gradients, and a beta
    that is the previous beta_next object in two rounds of three."""
    rng = np.random.default_rng(seed)
    records = []
    beta_next = np.zeros(3)
    t = 0
    for i in range(rounds):
        t = 1 if i % 50 == 0 else t + 1
        g = rng.normal(size=3) * rng.choice([1.0, 1e-3, 0.0])
        if i % 17 == 0:
            g = np.array([0.0, 5e-324, -0.0])
        h = float(rng.choice([0.0, 0.37, 1.0]))
        beta = beta_next if i % 3 else rng.normal(size=3) * 0.4
        beta_next = beta if h == 0.0 else rng.normal(size=3) * 0.4
        w = rng.normal(size=3)
        w_next = w if h == 0.0 else w - h * rng.uniform(0.0, 3.0) * g
        wealth = float(rng.uniform(0.1, 5.0))
        records.append(StepTrace(
            t=t, w=w, g=g, loss_value=float(rng.uniform(0.0, 2.0)), h=h, w_next=w_next,
            beta=beta, beta_next=beta_next, wealth_before=wealth,
            wealth_after=wealth * float(rng.uniform(0.5, 1.5))))
    return records


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

    @pytest.mark.parametrize("final_wealth", [0.0, -1.0, math.nan])
    def test_a_final_wealth_that_is_not_positive_fails(self, final_wealth, tmp_path):
        # the first run ends on a wealth with no logarithm: its slack is
        # -inf, noted at its last t, and the second run is still checked
        first = drive(ImplicitCoin(1), 30, seed=5)
        first[-1] = dataclasses.replace(first[-1], wealth_after=final_wealth)
        traces = first + drive(ImplicitCoin(1), 20, seed=6)
        for variant in (PROJECTED, CLOSED_FORM):
            report = fold_all(WealthLowerBoundFold(variant), traces)
            assert not report.passed and "FAIL" in report.line()
            assert (report.worst_slack, report.first_violation) == (-math.inf, 30)
        same_as_reference(traces, tmp_path / "trace.csv")


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

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError, match="'l1'"):
            BetaBallFold("l1")

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


def every_fold(no_overshoot, identity, ball, lower_bound):
    return [no_overshoot(), identity(1.0), identity(3.0), ball("l2"), ball("linf"),
            lower_bound(PROJECTED), lower_bound(CLOSED_FORM)]


def same_as_reference(traces, path, after_each=lambda consumers: None):
    """Feeds the records to every fold and a writer in turn, as a run does,
    and asserts the reports of the `reference` folds, worst slack bit for
    bit, and the reference trace bytes. after_each sees the folds and the
    writer after each record. Returns the reports."""
    folds = every_fold(NoOvershootFold, WealthIdentityFold, BetaBallFold,
                       WealthLowerBoundFold)
    writer = WealthTraceWriter(path)
    try:  # a failing check must not leave the file open for a later test to trip on
        for tr in traces:
            for fold in folds:
                fold.update(tr)
            writer.update(tr)
            after_each(folds + [writer])
    finally:
        writer.close()
    refs = every_fold(ReferenceNoOvershootFold, ReferenceWealthIdentityFold,
                      ReferenceBetaBallFold, ReferenceWealthLowerBoundFold)
    reports = assert_reference_reports(folds, refs, traces)
    assert path.read_bytes() == reference_wealth_trace(traces).encode()
    return reports


def assert_reference_reports(folds, refs, traces):
    """Each fold's report is that of its reference fold fed the records,
    worst slack bit for bit. Returns the reports."""
    assert len(folds) == len(refs)
    reports = []
    for fold, ref in zip(folds, refs):
        got, want = fold.report(), fold_all(ref, traces)
        assert (got.name, got.rounds, got.first_violation, got.tolerance) == \
            (want.name, want.rounds, want.first_violation, want.tolerance)
        assert np.float64(got.worst_slack).tobytes() == \
            np.float64(want.worst_slack).tobytes()
        reports.append(got)
    return reports


RECORD_SETS = {
    **{f"{cls.__name__}-d{d}": (lambda cls=cls, d=d: corner_stream(cls, d, seed=d))
       for cls in (ImplicitCoin, ProjectedImplicitCoin, CoordinateImplicitCoin)
       for d in (1, 4, 21)},
    "ogd": lambda: ogd_traces(eta0=3.0) + ogd_traces(eta0=0.5),
    "hand-built": hand_built_records,
}

W = WINDOW_RECORDS


def restarting_streams():
    """Three learners back to back at d = 3, 3.5 windows of records: the
    second starts mid-window and the third on a window boundary."""
    first = corner_stream(ImplicitCoin, 3, seed=31, rounds=W + W // 4)
    second = corner_stream(ProjectedImplicitCoin, 3, seed=32, rounds=2 * W - len(first))
    return first + second + corner_stream(CoordinateImplicitCoin, 3, seed=33,
                                          rounds=3 * W // 2)


def zero_gradient_window():
    """3.5 windows of an `ImplicitCoin` stream at d = 2 whose second window
    has only zero gradients."""
    rng = np.random.default_rng(41)
    traces = []
    learner = ImplicitCoin(2, trace_cb=traces.append)
    for i in range(7 * W // 2):
        g = np.zeros(2) if W <= i < 2 * W else rng.uniform(-0.7, 0.7, size=2)
        learner.step(float(rng.uniform(0.0, 2.0)), g)
    return traces


def exact_identity_with_nans():
    """Four windows of hand-built records at d = 3 whose wealth identity
    holds exactly, so every identity slack is -0.0, except in four records
    of the third window: a nan loss, a nan beta, a nan beta_next and a nan
    wealth. The beta beside the nan beta_next has the largest norm, so the
    beta ball's worst slack is where max(norm, nan) is the norm. Every
    fourth loss is -0.0."""
    rng = np.random.default_rng(61)
    records = []
    for i in range(4 * W):
        beta = rng.uniform(-0.2, 0.2, size=3)
        beta_next = rng.uniform(-0.2, 0.2, size=3)
        loss, wealth = (-0.0 if i % 4 == 0 else float(rng.uniform(0.0, 2.0))), 1.0
        k = i - 2 * W - 7
        if k == 0:
            loss = math.nan
        elif k == 1:
            beta = np.array([0.1, math.nan, 0.0])
        elif k == 2:
            beta, beta_next = np.array([0.0, 0.49, 0.0]), np.array([0.1, math.nan, 0.0])
        elif k == 3:
            wealth = math.nan
        # w = w_next = 0: nothing is spent, and the wealth stays 1.0
        records.append(StepTrace(
            t=i + 1, w=np.zeros(3), g=rng.uniform(-0.5, 0.5, size=3), loss_value=loss,
            h=float(rng.choice([0.25, 1.0])), w_next=np.zeros(3), beta=beta,
            beta_next=beta_next, wealth_before=1.0, wealth_after=wealth))
    return records


def two_dimensions():
    """Two `ImplicitCoin` streams, d = 2 and then d = 5, 3.3 windows of
    records; the dimension changes mid-window."""
    return (corner_stream(ImplicitCoin, 2, seed=51, rounds=W + W // 3)
            + corner_stream(ImplicitCoin, 5, seed=52, rounds=2 * W))


def one_run_held(traces):
    """An after_each check for records fed in this order: every consumer
    holds records of one run, and right after a t == 1 record exactly that
    record."""
    fed = iter(traces)

    def check(consumers):
        tr = next(fed)
        for c in consumers:
            assert all(held.t != 1 for held in c._window[1:])
            if tr.t == 1:
                assert len(c._window) == 1 and c._window[0] is tr

    return check


class TestReferenceEquivalence:
    """The folds and the writer against their first formulation in
    `reference`: the same reports, worst slack bit for bit, and the same
    trace bytes, with records fed to every fold in turn as a run does."""

    @pytest.mark.parametrize("name", sorted(RECORD_SETS))
    def test_same_reports_and_trace_bytes(self, name, tmp_path):
        traces = RECORD_SETS[name]()
        reports = same_as_reference(traces, tmp_path / "trace.csv")
        if name in ("ogd", "hand-built"):
            assert any(not rep.passed for rep in reports)  # violations are compared too
        else:
            assert any(0.0 < tr.h < 1.0 for tr in traces)

    def test_restarts_mid_window_and_on_a_window_boundary(self, tmp_path):
        traces = restarting_streams()
        assert [k for k, tr in enumerate(traces) if tr.t == 1] == [0, W + W // 4, 2 * W]
        same_as_reference(traces, tmp_path / "trace.csv")

    def test_window_of_zero_gradients(self, tmp_path):
        traces = zero_gradient_window()
        no_overshoot = same_as_reference(traces, tmp_path / "trace.csv")[0]
        assert no_overshoot.rounds == len(traces) - W
        fold = NoOvershootFold()
        for tr in traces[W:2 * W]:
            fold.update(tr)
        assert fold.report().rounds == 0

    def test_nan_slacks_and_a_negative_zero_worst_slack(self, tmp_path):
        traces = exact_identity_with_nans()
        reports = same_as_reference(traces, tmp_path / "trace.csv")
        identity = reports[1]
        assert identity.name == "wealth_identity"
        assert np.float64(identity.worst_slack).tobytes() == np.float64(-0.0).tobytes()
        assert reports[3].worst_slack == pytest.approx(0.01)  # the l2 beta ball
        assert "nan" in (tmp_path / "trace.csv").read_text()

    def test_one_fold_fed_two_dimensions(self, tmp_path):
        traces = two_dimensions()
        assert {tr.g.size for tr in traces} == {2, 5}
        same_as_reference(traces, tmp_path / "trace.csv")

    def test_a_one_record_run_between_two_runs(self, tmp_path):
        traces = (corner_stream(ImplicitCoin, 3, seed=71, rounds=W // 2)
                  + corner_stream(ProjectedImplicitCoin, 3, seed=72, rounds=1)
                  + corner_stream(CoordinateImplicitCoin, 3, seed=73, rounds=W // 2))
        assert [k for k, tr in enumerate(traces) if tr.t == 1] == [0, W // 2, W // 2 + 1]
        same_as_reference(traces, tmp_path / "trace.csv", after_each=one_run_held(traces))

    def test_a_run_that_starts_right_after_a_full_window(self, tmp_path):
        traces = (corner_stream(ImplicitCoin, 3, seed=81, rounds=W)
                  + corner_stream(ProjectedImplicitCoin, 3, seed=82, rounds=W // 2))
        assert [k for k, tr in enumerate(traces) if tr.t == 1] == [0, W]
        same_as_reference(traces, tmp_path / "trace.csv", after_each=one_run_held(traces))

    def test_a_window_holds_one_record_past_the_entry_cap(self, tmp_path):
        d = 70_000
        assert d > WINDOW_ENTRIES
        traces = corner_stream(ImplicitCoin, d, seed=7, rounds=4)

        def nothing_held(consumers):
            assert all(not c._window for c in consumers)

        same_as_reference(traces, tmp_path / "trace.csv", after_each=nothing_held)


class TestNoteAll:
    def test_one_pass_is_noting_each_slack_in_turn(self):
        # the first least slack with the sign of its zero, nan ignored, and
        # the first violation, carried across passes
        rng = np.random.default_rng(5)
        values = [0.0, -0.0, 1.0, -1e-9, -0.5, math.nan, math.inf, -math.inf]
        for _ in range(2000):
            slack = rng.choice(values, size=int(rng.integers(1, 30)))
            cut = int(rng.integers(0, slack.size + 1))
            ts = list(range(1, slack.size + 1))
            one, passes = NoOvershootFold(), NoOvershootFold()
            for s, t in zip(slack, ts):
                one._note(float(s), t)
            passes._note_all(slack[:cut], ts[:cut])
            passes._note_all(slack[cut:], ts[cut:])
            assert np.float64(passes.worst_slack).tobytes() == \
                np.float64(one.worst_slack).tobytes()
            assert passes.first_violation == one.first_violation


def _record(t, g, w_next, beta=None, beta_next=None):
    g = np.array(g)
    beta = np.zeros(g.size) if beta is None else np.array(beta)
    return StepTrace(t=t, w=np.zeros(g.size), g=g, loss_value=1.0, h=1.0,
                     w_next=np.array(w_next), beta=beta,
                     beta_next=beta if beta_next is None else beta_next,
                     wealth_before=1.0, wealth_after=1.0)


class TestRecordEdgeCases:
    def test_subnormal_gradient_counts_and_zero_gradient_skips(self):
        fold = NoOvershootFold()
        fold.update(_record(1, [0.0, 5e-324], [0.0, -1.0]))
        fold.update(_record(2, [0.0, -0.0], [0.0, -1.0]))
        report = fold.report()
        assert report.rounds == 1
        assert report.worst_slack == 1.0  # 1.0 - 5e-324 rounds to 1.0

    def test_out_of_ball_beta_that_is_not_the_last_beta_next_fails(self):
        fold = BetaBallFold()
        inside = np.array([0.1])
        fold.update(_record(1, [1.0], [0.0], beta_next=inside))
        fold.update(_record(2, [1.0], [0.0], beta=[0.7], beta_next=inside))
        report = fold.report()
        assert not report.passed
        assert report.first_violation == 2
        assert report.worst_slack == pytest.approx(-0.2)

    def test_shared_quantity_follows_the_record(self, tmp_path):
        # records A, B, A in turn: each fold and writer row sees its own
        # record's g.(w_next - w), never the previous record's
        a = _record(1, [1.0], [0.5])
        b = _record(2, [1.0], [-3.0])
        folds = [NoOvershootFold() for _ in range(3)]
        path = tmp_path / "trace.csv"
        writer = WealthTraceWriter(path)
        for fold, tr in zip(folds, (a, b, a)):
            fold.update(tr)
            writer.update(tr)
        writer.close()
        assert [fold.report().worst_slack for fold in folds] == [1.5, -2.0, 1.5]
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["1.5", "-2", "1.5"]


STACKED_FIELDS = ("t", "w", "g", "loss_value", "h", "w_next", "beta", "beta_next",
                  "wealth_before", "wealth_after")


def assert_stacked_as_np_array(records, fields):
    """Each field stacked by a window, asked for in the given order, has the
    dtype, shape and bits of np.array over the records' values."""
    window = diagnostics._Window(records)
    for field in fields:
        got, want = window.stack(field), np.array([getattr(r, field) for r in records])
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestWindowStacking:
    """A window stacks every field with the bits of np.array over the
    records, whether or not they chain one learner's rounds."""

    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("dim", [1, 4, 21])
    @pytest.mark.parametrize("cls", [ImplicitCoin, CoordinateImplicitCoin])
    def test_chained_records(self, cls, dim, order):
        records = corner_stream(cls, dim, seed=dim)[:W]
        assert_stacked_as_np_array(records, STACKED_FIELDS[::order])

    @pytest.mark.parametrize("dim", [1, 4, 21])
    def test_records_that_do_not_chain(self, dim):
        a = corner_stream(ImplicitCoin, dim, seed=dim, rounds=W // 2)
        b = corner_stream(ProjectedImplicitCoin, dim, seed=dim + 1, rounds=W // 2)
        interleaved = [tr for pair in zip(a, b) for tr in pair]
        foreign = list(a)
        k = len(foreign) // 2
        foreign[k] = dataclasses.replace(foreign[k], w=foreign[k].w.copy())
        for records in (interleaved, foreign):
            for order in (1, -1):
                assert_stacked_as_np_array(records, STACKED_FIELDS[::order])

    @pytest.mark.parametrize("dim", [1, 4, 21])
    @pytest.mark.parametrize("algo", ["implicit-coin", "cw-implicit-coin"])
    def test_run_reports_and_trace_bytes(self, algo, dim, tmp_path, monkeypatch):
        # three repetitions of 420 rounds, so some windows hold records of
        # two learners; the run's check lines and trace bytes are those of
        # the record-by-record reference folds fed the same records
        data = tmp_path / "data.libsvm"
        data.write_text(serialize_libsvm(make_synthetic_regression(n=200, dim=dim, seed=17)))
        records, folds = [], []
        make = baselines.make_algorithm

        def recording(*args, trace_cb=None, **kwargs):
            def cb(tr):
                records.append(tr)
                trace_cb(tr)
            return make(*args, trace_cb=cb, **kwargs)

        def keeping(*args):
            folds.extend(folds_for_learner(*args))
            return folds

        monkeypatch.setattr(baselines, "make_algorithm", recording)
        monkeypatch.setattr(diagnostics, "folds_for_learner", keeping)
        out, trace = tmp_path / "out.csv", tmp_path / "trace.csv"
        assert main(["run", "--algo", algo, "--data", str(data), "--format", "libsvm",
                     "--task", "reg", "--epochs", "3", "--reps", "3", "--out", str(out),
                     "--check-bounds", "--trace-wealth", str(trace)]) == 0
        checks = [line for line in out.read_text().splitlines() if "check=" in line]
        if algo == "implicit-coin":
            refs = [ReferenceNoOvershootFold(), ReferenceWealthIdentityFold(1.0),
                    ReferenceBetaBallFold("l2"), ReferenceWealthLowerBoundFold(CLOSED_FORM)]
        else:
            refs = [ReferenceNoOvershootFold(), ReferenceWealthIdentityFold(float(dim)),
                    ReferenceBetaBallFold("linf")]
        assert len(records) == 3 * 3 * 140
        reports = assert_reference_reports(folds, refs, records)
        assert checks == ["# " + report.line() for report in reports]
        assert trace.read_bytes() == reference_wealth_trace(records).encode()


class TestSignedZeroStep:
    def test_negative_zero_loss_and_step_at_d1_as_the_reference(self, tmp_path):
        # g.(w_next - w) is (-1.0)(0.0): `@` gives 0.0 where ndarray.dot
        # gives -0.0, so the residual is 0.0, not -0.0
        tr = StepTrace(t=1, w=np.zeros(1), g=np.array([-1.0]), loss_value=-0.0, h=1.0,
                       w_next=np.zeros(1), beta=np.zeros(1), beta_next=np.zeros(1),
                       wealth_before=1.0, wealth_after=1.0)
        no_overshoot = same_as_reference([tr], tmp_path / "trace.csv")[0]
        assert np.float64(no_overshoot.worst_slack).tobytes() == np.float64(0.0).tobytes()
        assert (tmp_path / "trace.csv").read_text().splitlines()[1] == "1,1,1,0,0"


class TestWriterClose:
    def test_file_closed_when_the_last_write_fails(self, tmp_path):
        writer = WealthTraceWriter(tmp_path / "trace.csv")
        writer.update(_record(1, [1.0, 0.0], [0.5, 0.0]))
        # a beta_next of the wrong size cannot be stacked with the others
        writer.update(_record(2, [1.0, 0.0], [0.5, 0.0], beta_next=np.zeros(3)))
        with pytest.raises(ValueError):
            writer.close()
        assert writer._fh.closed


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
