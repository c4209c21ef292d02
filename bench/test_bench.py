"""Self-test of the benchmark at toy size: every workload runs to its end,
and every check rejects a corrupted output."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bench_checks as chk
import bench_workloads as bw
from bench_trace import SpanSummary, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def ic():
    return bw.load_package(os.path.join(ROOT, "src"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_workload_runs_to_end(tmp_path, workload, trace):
    result, wl, violations = bw.run(workload, 3, 0.0, trace, ROOT, out_dir=str(tmp_path),
                                    sizes=bw.TOY)
    assert violations.messages == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (3 if trace else 2) * len(wl.ops())
    expected = bw.PER_LAYER if trace else bw.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in expected]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_benchmark_json_lists_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bw.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bw.PER_LAYER)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "checked-fuzz",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tuned_check_rejects_a_perturbed_loss(tmp_path):
    _, wl, _ = bw.run("tuned-protocol", 4, 0.0, False, ROOT, out_dir=str(tmp_path),
                      sizes=bw.TOY)
    rows = chk.read_rows(wl.csv_path("aprox"))
    ok = chk.Violations()
    chk.check_tuned_csv(rows, "aprox", wl.X, wl.y, wl.seed, wl.sizes.epochs, ok)
    assert ok.count == 0
    rows[1][5] = repr(float(rows[1][5]) * (1.0 + 1e-7))
    bad = chk.Violations()
    chk.check_tuned_csv(rows, "aprox", wl.X, wl.y, wl.seed, wl.sizes.epochs, bad)
    assert bad.count == 1


def test_final_iterate_check_rejects_a_wrong_or_useless_iterate(tmp_path, ic):
    _, wl, _ = bw.run("betting-protocol", 5, 0.0, False, ROOT, out_dir=str(tmp_path),
                      sizes=bw.TOY)
    rows = chk.read_rows(wl.csv_path("implicit-coin"))

    class Fixed:
        def __init__(self, w):
            self.w = w

        def predict(self):
            return self.w

    zero = chk.Violations()
    chk.check_final_iterates(rows, "implicit-coin", [Fixed(np.zeros(21))], wl.X, wl.y,
                             wl.seed, wl.sizes.epochs, zero)
    assert any("zero predictor" in m for m in zero.messages)
    assert any("recomputed" in m for m in zero.messages)


def _fuzz_round(learner, rng):
    g = rng.normal(size=learner.dim)
    g *= 0.5 / np.linalg.norm(g)
    learner.step(0.01 * float(g @ g), g)


def _run_checked(ic, corrupt, rounds=200, cls="ImplicitCoin"):
    learner = getattr(ic.learners, cls)(3)
    violations = chk.Violations()
    checker = chk.RoundChecker(learner, violations, "test", corner_sample=1)
    corrupt(learner, checker)
    rng = np.random.default_rng(0)
    for _ in range(rounds):
        _fuzz_round(learner, rng)
    return violations, checker


@pytest.mark.parametrize("cls", ["ImplicitCoin", "ProjectedImplicitCoin",
                                 "CoordinateImplicitCoin"])
def test_round_checks_pass_on_the_real_learners(ic, cls):
    violations, checker = _run_checked(ic, lambda learner, c: None, cls=cls)
    assert violations.messages == []
    assert checker.corner_checked > 0


def test_round_check_rejects_an_iterate_past_the_corner(ic):
    def push(learner, checker):
        step = checker._step
        checker._step = lambda loss, g, ex=None: step(loss, g, ex) - 0.5 * g
    violations, _ = _run_checked(ic, push)
    assert any("overshoot" in m for m in violations.messages)


def test_round_check_rejects_a_wrong_corner_h(ic):
    def shift_h(learner, checker):
        cb = learner.trace_cb
        learner.trace_cb = lambda tr: cb(replace(tr, h=tr.h * (1.0 - 1e-4)))
    violations, _ = _run_checked(ic, shift_h)
    assert any("bisection" in m for m in violations.messages)


def test_round_check_rejects_a_fraction_outside_the_ball_and_lost_wealth(ic):
    def corrupt_state(learner, checker):
        step = checker._step

        def bad_step(loss, g, ex=None):
            w = step(loss, g, ex)
            learner.beta = learner.beta * 0 + 0.6
            learner.wealth = -learner.wealth
            return w
        checker._step = bad_step
    violations, _ = _run_checked(ic, corrupt_state, rounds=3)
    assert any("|beta|" in m for m in violations.messages)
    assert any("not positive" in m for m in violations.messages)


def test_round_check_rejects_a_second_oracle_call(ic):
    learner = ic.learners.ImplicitCoin(2)
    oracle = chk.Oracle(ic.losses.hinge_eval_grad)
    violations = chk.Violations()
    chk.RoundChecker(learner, violations, "test", oracle=oracle)
    ex = ic.losses.LabeledExample(np.array([0.6, 0.8]), 1.0)
    w = learner.predict()
    oracle(w, ex)
    loss, g = oracle(w, ex)
    learner.step(loss, g)
    assert any("2 oracle calls" in m for m in violations.messages)


def test_cycle_output_must_match_the_checked_cycle(tmp_path, ic):
    violations = chk.Violations()
    wl = bw.make_workload("checked-fuzz", 6, str(tmp_path), bw.TOY, violations)
    wl.run_cycle(ic, "checked")
    wl.run_cycle(ic, "plain")
    assert violations.count == 0
    wl.reference[0] = ("corrupted",) + wl.reference[0][1:]
    wl.run_cycle(ic, "plain")
    assert violations.count == 1


def test_speed_samples_are_taken_out_of_the_spans_they_interrupt():
    tracer = Tracer()
    # span 0 "outer" runs 0..10 s, span 1 "inner" 1..4 s inside it
    for name, parent, start, end in (("outer", -1, 0.0, 10.0), ("inner", 0, 1.0, 4.0)):
        tracer.name.append(tracer.intern(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    # one sample inside the inner span, one in the outer span only, one outside both
    summary = SpanSummary(tracer, 0, None, [(2.0, 2.5), (5.0, 7.0), (11.0, 12.0)])
    assert summary.total_s("inner") == pytest.approx(2.5)
    assert summary.self_s("inner") == pytest.approx(2.5)
    assert summary.total_s("outer") == pytest.approx(7.5)
    assert summary.self_s("outer") == pytest.approx(5.0)


def test_sampler_counts_only_the_sample_time_inside_an_interval():
    sampler = bw.SpeedSampler()
    sampler.samples = [(1.0, 1.5), (2.0, 2.5), (3.0, 3.5)]
    assert sampler.inside(1.2, 3.0) == pytest.approx(0.8)
    assert sampler.inside(4.0, 5.0) == 0.0
