"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import os
import time

import numpy as np

from implicitcoin import harness
from implicitcoin.data_io import (make_synthetic_regression, parse_csv, parse_libsvm,
                                  serialize_libsvm, standardize_then_unit_normalize)
from implicitcoin.diagnostics import (NoOvershootFold, WealthIdentityFold,
                                      WealthLowerBoundFold, figure1_scenario)
from implicitcoin.harness import ExperimentConfig, run_single, tune_and_run
from implicitcoin.learners import (CLOSED_FORM, PROJECTED, SHRINK_THRESHOLD,
                                   CoordinateImplicitCoin, ImplicitCoin,
                                   ProjectedImplicitCoin, StepTrace)
from implicitcoin.losses import eval_grad_fn
from implicitcoin.rootsolve import bisect
from implicitcoin.truncated import TruncatedModel, linear_residual
from reference import closed_form_residual, expected_shape, fold_all

DATASET_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "datasets")


def note(criterion, ok, detail):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def corner_scaled_loss(rng, learner, gg):
    """Loss magnitude at the scale of the tentative step, so corner rounds
    stay frequent no matter how small the step size has become."""
    wealth = float(np.sum(learner.wealth)) if np.ndim(learner.wealth) else learner.wealth
    inv_eta = float(np.min(learner.inv_eta)) if np.ndim(learner.inv_eta) else learner.inv_eta
    return rng.uniform(0.0, 2.0 * gg * max(wealth, 1e-6) / inv_eta)


def random_unit_ball(rng, d):
    g = rng.normal(size=d)
    return g * (rng.uniform(0.0, 1.0) ** (1.0 / d) / np.linalg.norm(g))


# Fixed per-class seeds: the same fuzz stream in every process.
C1_SEEDS = {ProjectedImplicitCoin: 1001, ImplicitCoin: 1002, CoordinateImplicitCoin: 1003}


def test_criterion_1_no_overshoot():
    t0 = time.time()
    rounds = 100_000
    worst = {}
    for cls, seed in C1_SEEDS.items():
        fold = NoOvershootFold()
        learner = cls(4, trace_cb=fold.update)
        rng = np.random.default_rng(seed)
        for i in range(rounds):
            g = random_unit_ball(rng, 4)
            gg = float(g @ g)
            if i % 2 == 0:
                loss = rng.uniform(0.0, 10.0)
            else:
                loss = corner_scaled_loss(rng, learner, gg)
            learner.step(loss, g)
        report = fold.report()
        worst[cls.__name__] = report.worst_slack
        assert report.rounds > 0
    elapsed = time.time() - t0
    ok = all(v >= -1e-8 for v in worst.values()) and elapsed < 30.0
    note("C1 no-overshoot (3 learners x 1e5 fuzzed rounds)", ok,
         f"worst residuals {worst}, elapsed {elapsed:.1f}s")


def test_criterion_2_wealth_identity():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        cls = ImplicitCoin if seed % 2 == 0 else ProjectedImplicitCoin
        fold = WealthIdentityFold(1.0)
        learner = cls(1, trace_cb=fold.update)
        rng = np.random.default_rng(2000 + seed)
        for _ in range(10_000):
            g = np.array([(-1.0, 1.0)[rng.integers(2)]])
            learner.step(rng.uniform(0.0, 2.0), g)
        report = fold.report()
        worst = max(worst, -report.worst_slack)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    note("C2 wealth identity (20 seeds x 1e4 rounds)", ok,
         f"max relative deviation {worst:.3g}, elapsed {elapsed:.1f}s")


def _coin_sequence_slack(cls, variant, seed, adversarial, rounds=1000):
    fold = WealthLowerBoundFold(variant)
    learner = cls(1, trace_cb=fold.update)
    rng = np.random.default_rng(seed)
    w = learner.predict()
    for _ in range(rounds):
        if adversarial:
            g = np.array([math.copysign(1.0, w[0]) if w[0] != 0.0 else 1.0])
        else:
            g = np.array([(-1.0, 1.0)[rng.integers(2)]])
        w = learner.step(rng.uniform(0.0, 2.0), g)
    return fold.report().worst_slack


def test_criterion_3_proof_constant_wealth_bounds():
    t0 = time.time()
    worst = math.inf
    for cls, variant in ((ProjectedImplicitCoin, PROJECTED),
                         (ImplicitCoin, CLOSED_FORM)):
        for seed in range(50):
            worst = min(worst, _coin_sequence_slack(cls, variant, 3000 + seed, False))
        for seed in range(5):
            worst = min(worst, _coin_sequence_slack(cls, variant, 4000 + seed, True))
    elapsed = time.time() - t0
    ok = worst >= -1e-6 and elapsed < 10.0
    note("C3 proof-constant wealth bounds (50 random + 5 adversarial coins)", ok,
         f"min slack {worst:.4g}, elapsed {elapsed:.1f}s")


def test_criterion_4_beta_ball():
    t0 = time.time()
    results = {}
    constant_coin = np.array([-1.0, 0.0])
    for cls in (ImplicitCoin, ProjectedImplicitCoin):
        # regime one: a constant coin with an unreachable corner pushes the
        # fraction against the ball boundary
        boundary = cls(2)
        max_norm = 0.0
        for _ in range(20_000):
            boundary.step(1e9, constant_coin)
            max_norm = max(max_norm, float(np.linalg.norm(boundary.beta)))
        # regime two: random coins, half of them scaled to land at corners
        learner = cls(2)
        rng = np.random.default_rng(77)
        n_random = 80_000
        gs = rng.normal(size=(n_random, 2))
        gs *= (rng.uniform(0.0, 1.0, size=n_random) ** 0.5
               / np.linalg.norm(gs, axis=1))[:, None]
        plain_losses = rng.uniform(0.0, 10.0, size=n_random)
        scaled_draw = rng.uniform(0.0, 2.0, size=n_random)
        for i in range(n_random):
            g = gs[i]
            if i % 2:
                loss = plain_losses[i]
            else:
                loss = scaled_draw[i] * float(g @ g) * max(learner.wealth, 1e-6) \
                    / learner.inv_eta
            learner.step(loss, g)
            max_norm = max(max_norm, float(np.linalg.norm(learner.beta)))
        results[cls.__name__] = max_norm
        assert max_norm <= 0.5 + 1e-12
    elapsed = time.time() - t0
    boundary_seen = results["ImplicitCoin"] > SHRINK_THRESHOLD
    ok = boundary_seen and elapsed < 10.0
    note("C4 beta ball (1e5 fuzzed rounds per variant, no projection)", ok,
         f"max fraction norms {results}, elapsed {elapsed:.1f}s")


def test_criterion_5_closed_form_matches_oracle():
    t0 = time.time()
    traces = []
    learner = ImplicitCoin(2, trace_cb=traces.append)
    rng = np.random.default_rng(55)
    corners = 0
    max_h_gap = 0.0
    max_resid = 0.0
    while corners < 10_000:
        state = (learner.beta.copy(), learner.wealth, learner.inv_eta)
        g = rng.normal(size=2)
        g *= rng.uniform(0.1, 1.0) / np.linalg.norm(g)
        loss = corner_scaled_loss(rng, learner, float(g @ g))
        learner.step(loss, g)
        tr = traces[-1]
        traces.clear()
        if not 0.0 < tr.h < 1.0:
            continue
        corners += 1
        h_oracle = bisect(closed_form_residual(*state, loss, g), 0.0, 1.0, 1e-8)
        max_h_gap = max(max_h_gap, abs(tr.h - h_oracle))
        model = TruncatedModel(anchor=tr.w, grad=tr.g, loss_at_anchor=tr.loss_value)
        max_resid = max(max_resid, abs(linear_residual(model, tr.w_next)))
    elapsed = time.time() - t0
    ok = max_h_gap <= 1e-6 and max_resid <= 1e-8 and elapsed < 30.0
    note("C5 closed-form h vs bisection oracle (1e4 corner rounds)", ok,
         f"max |h gap| {max_h_gap:.2g}, max residual {max_resid:.2g}, "
         f"evaluations per corner {learner.residual_evals / learner.corner_rounds:.2f}, "
         f"elapsed {elapsed:.1f}s")


def test_criterion_6_coordinate_equals_closed_form_in_1d():
    a = ImplicitCoin(1)
    b = CoordinateImplicitCoin(1)
    rng = np.random.default_rng(66)
    wa, wb = a.predict(), b.predict()
    worst = 0.0
    for _ in range(1000):
        c = float(rng.normal() * 3.0)
        la, ga = abs(float(wa[0]) - c), np.array([np.sign(float(wa[0]) - c)])
        lb, gb = abs(float(wb[0]) - c), np.array([np.sign(float(wb[0]) - c)])
        wa, wb = a.step(la, ga), b.step(lb, gb)
        worst = max(worst, abs(float(wa[0]) - float(wb[0])))
    ok = worst <= 1e-12
    note("C6 coordinate variant equals closed form in 1-d (1000 rounds)", ok,
         f"max trajectory gap {worst:.3g}")


def test_criterion_7_figure1_contrast():
    t0 = time.time()
    rows = figure1_scenario()
    corner_round = next(t for t, _, h in rows if h < 1.0)

    # the large-step tuned gradient method crosses the minimum on the same task
    w = 0.0
    ogd = []
    for t in range(1, 13):
        loss = abs(w - 10.0)
        g = math.copysign(1.0, w - 10.0) if w != 10.0 else 0.0
        w_next = w - 3.0 / math.sqrt(t) * g
        ogd.append(StepTrace(t=t, w=np.array([w]), g=np.array([g]),
                             loss_value=loss, h=1.0, w_next=np.array([w_next]),
                             beta=np.zeros(1), beta_next=np.zeros(1),
                             wealth_before=1.0, wealth_after=1.0))
        w = w_next
    ogd_report = fold_all(NoOvershootFold(), ogd)
    elapsed = time.time() - t0
    ok = corner_round <= 50 and not ogd_report.passed and elapsed < 1.0
    note("C7 figure-1 scenario with large-step contrast", ok,
         f"corner at round {corner_round}, OGD worst slack "
         f"{ogd_report.worst_slack:.3g}, elapsed {elapsed:.2f}s")


def test_criterion_8_benchmark_protocol_desk_scale():
    t0 = time.time()
    ds = make_synthetic_regression(n=1000, dim=10, seed=42)

    def final_mean_test_loss(algorithm):
        cfg = ExperimentConfig(algorithm=algorithm, task="regression",
                               epochs=10, repetitions=3, seed=5)
        records = tune_and_run(cfg, dataset=ds)
        return [r for r in records if r.repetition == "mean"][-1].test_loss

    implicit = final_mean_test_loss("implicit-coin")
    coin = final_mean_test_loss("coin")
    cw = final_mean_test_loss("cw-implicit-coin")
    best_tuned = min(final_mean_test_loss(a) for a in ("sgd", "aprox", "iwa"))
    elapsed = time.time() - t0
    ok = implicit <= coin and cw <= 1.05 * best_tuned and elapsed < 120.0
    note("C8 benchmark protocol at desk scale (1000-sample regression)", ok,
         f"implicit {implicit:.4f} <= coin {coin:.4f}; cw {cw:.4f} within 5% of "
         f"best tuned {best_tuned:.4f}; elapsed {elapsed:.1f}s")

    for name in sorted(os.listdir(DATASET_DIR)) if os.path.isdir(DATASET_DIR) else []:
        stem, ext = os.path.splitext(name)
        if ext not in (".libsvm", ".csv"):
            continue
        task, _, _ = expected_shape(stem)
        cfg = ExperimentConfig(
            algorithm="implicit-coin", data_path=os.path.join(DATASET_DIR, name),
            data_format=ext.lstrip("."), task=task)
        out_path = os.path.join(DATASET_DIR, stem + ".results.csv")
        harness.emit_csv(tune_and_run(cfg), out_path)
        print(f"[acceptance] C8 real dataset {stem}: results at {out_path} "
              "(trend reported, not asserted)")


def test_criterion_9_one_gradient_contract():
    ds = make_synthetic_regression(n=60, dim=4, seed=3)
    epochs = 3
    expect = 42 * epochs  # floor(0.7 * 60) training rows per epoch
    counts = {}
    for algorithm in harness.baselines.ALGORITHMS:
        cfg = ExperimentConfig(algorithm=algorithm, task="regression",
                               epochs=epochs, repetitions=1)
        calls = []
        base = eval_grad_fn("absolute")

        def counting(w, ex):
            calls.append(1)
            return base(w, ex)

        eta0 = None if harness.baselines.is_parameter_free(algorithm) else 0.5
        run_single(cfg, harness.prepare_repetition(cfg, ds, 0), eta0, loss_fn=counting)
        counts[algorithm] = len(calls)
    ok = all(v == expect for v in counts.values())
    note("C9 one-gradient contract (all algorithms)", ok,
         f"expected {expect} oracle calls per run, got {counts}")


def test_criterion_10_parser_and_preprocessing():
    rng = np.random.default_rng(99)
    X = np.where(rng.random((40, 7)) < 0.35, rng.normal(size=(40, 7)), 0.0)
    X[:, -1] = rng.normal(size=40)  # keep the last column dense
    y = rng.normal(size=40)
    from implicitcoin.data_io import Dataset
    ds = Dataset(X=X, y=y, task="regression")
    round_trip = parse_libsvm(serialize_libsvm(ds), task="regression") == ds

    pre, = standardize_then_unit_normalize(ds)
    norms = np.linalg.norm(pre.X, axis=1)
    unit_ok = bool(np.all(np.abs(norms[norms > 0] - 1.0) <= 1e-12))

    shape_notes = []
    if os.path.isdir(DATASET_DIR):
        for name in sorted(os.listdir(DATASET_DIR)):
            stem, ext = os.path.splitext(name)
            try:
                task, n, d = expected_shape(stem)
            except ValueError:
                continue
            path = os.path.join(DATASET_DIR, name)
            with open(path) as fh:
                if ext == ".libsvm":
                    parsed = parse_libsvm(fh, task=task, name=stem)
                elif ext == ".csv":
                    parsed = parse_csv(fh, "target", task, name=stem)
                else:
                    continue
            shape_notes.append((stem, len(parsed) == n and parsed.n_features == d))
    shapes_ok = all(okay for _, okay in shape_notes)

    ok = round_trip and unit_ok and shapes_ok
    supplied = ", ".join(f"{s}={'ok' if o else 'MISMATCH'}" for s, o in shape_notes) \
        or "none supplied (skipped)"
    note("C10 parser and preprocessing", ok,
         f"round-trip {round_trip}, unit norms {unit_ok}, table shapes: {supplied}")
