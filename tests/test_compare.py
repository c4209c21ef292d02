"""tools/compare.py driven by a stub runner: the pairs alternate, each side's
statistics and the change's wins are counted per metric, and the claim rule
and the BENCHMARK.json bounds are applied. No benchmark process starts."""

import importlib.util
import io
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("compare", os.path.join(ROOT, "tools",
                                                                          "compare.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_process(*args, **kwargs):
        raise AssertionError("a benchmark process was started")

    monkeypatch.setattr(subprocess, "run", no_process)
    return module


class StubRunner:
    """Canned bench/run.py outputs: rounds_per_s of run k of a tree is
    rounds[tree][k], peak_rss_mb rss[tree][k]; setup_s is fixed per tree."""

    def __init__(self, rounds, setup=None, correct=True, failed=0):
        self.rounds, self.calls = rounds, []
        self.rss = {"parent": [44.5] * len(rounds["parent"]),
                    "change": [44.5] * len(rounds["change"])}
        self.setup = setup or {"parent": 0.04, "change": 0.04}
        self.correct, self.failed = correct, failed

    def __call__(self, tree, argv):
        side = os.path.basename(tree)
        k = sum(t == tree for t, _ in self.calls)
        self.calls.append((tree, argv))
        metrics = {"rounds_per_s": {"value": self.rounds[side][k], "unit": "rounds/s"},
                   "setup_s": {"value": self.setup[side], "unit": "s"},
                   "peak_rss_mb": {"value": self.rss[side][k], "unit": "MB"}}
        result = {"correct": self.correct or side == "parent", "attempted": 40,
                  "failed": self.failed if side == "change" else 0, "metrics": metrics}
        return "rounds_per_s 1 rounds/s\n" + json.dumps(result) + "\n"


def trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
            (tree / "BENCHMARK.json").write_text(src.read())
    return str(parent), str(change)


PARENT = [100.0, 101.0, 99.0, 100.5, 98.0, 102.0, 100.0, 99.5, 101.5, 100.0]


def run(tool, tmp_path, runner, *extra):
    parent, change = trees(tmp_path)
    out = io.StringIO()
    code = tool.main(["--parent", parent, "--change", change, "--workload", "betting-protocol",
                      "--seconds", "25", "--seed", "90001", *extra], runner, out)
    return code, out.getvalue().splitlines()


def test_a_clear_gain_meets_the_claim_rule_and_is_stored(tool, tmp_path):
    runner = StubRunner({"parent": PARENT, "change": [p * 1.05 for p in PARENT]})
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"claim": "kept"}))
    code, lines = run(tool, tmp_path, runner, "--json", str(path))
    assert code == 0
    # alternating pairs, parent first in even ones, each run as the benchmark
    sides = [os.path.basename(tree) for tree, _ in runner.calls]
    assert sides == ["parent", "change", "change", "parent"] * 5
    assert all(argv == ["--workload", "betting-protocol", "--seed", "90001", "--seconds",
                        "25.0", "--trace", "0"] for _, argv in runner.calls)
    line = next(line for line in lines if line.startswith("rounds_per_s "))
    assert "change won 10 of 10" in line and "claim rule met" in line
    assert "ratio 1.0500" in line and "within bound" in line
    stored = json.loads(path.read_text())
    assert stored["claim"] == "kept"
    assert set(stored["machine"]) == {"nproc", "python", "numpy", "os"}
    m = stored["end_to_end"]["betting-protocol@90001"]["metrics"]["rounds_per_s"]
    assert m["parent"]["median"] == 100.0 and m["change_wins"] == 10
    assert m["parent"]["q1"] == 99.625 and m["parent"]["q3"] == 100.875
    assert m["parent_runs"] == PARENT


@pytest.mark.parametrize("factor,wins", [(1.005, 10), (1.05, 8)])
def test_a_gain_inside_the_spread_or_without_nine_wins_is_not_claimed(tool, tmp_path,
                                                                     factor, wins):
    change = [p * factor for p in PARENT]
    for k in range(10 - wins):  # the change loses these pairs
        change[k] = PARENT[k] * 0.99
    code, lines = run(tool, tmp_path, StubRunner({"parent": PARENT, "change": change}))
    line = next(line for line in lines if line.startswith("rounds_per_s "))
    assert code == 0 and f"change won {wins} of 10" in line and "claim rule not met" in line


def test_a_spread_wider_than_the_bound_is_unresolved(tool, tmp_path):
    # peak_rss_mb may be 10% worse; parent runs spread by 40%
    runner = StubRunner({"parent": PARENT, "change": PARENT})
    runner.rss = {"parent": [40.0, 60.0] * 5, "change": [50.0] * 10}
    code, lines = run(tool, tmp_path, runner)
    line = next(line for line in lines if line.startswith("peak_rss_mb "))
    assert code == 0 and "within bound (unresolved" in line
    line = next(line for line in lines if line.startswith("rounds_per_s "))
    assert "unresolved" not in line


def test_a_metric_past_its_bound_fails(tool, tmp_path):
    # setup_s may be at most 25% worse; 0.04 -> 0.051 is 27.5%
    runner = StubRunner({"parent": PARENT, "change": PARENT},
                        setup={"parent": 0.04, "change": 0.051})
    code, lines = run(tool, tmp_path, runner)
    assert code == 1
    assert any(line.startswith("setup_s ") and "PAST bound" in line for line in lines)
    assert any(line.startswith("BOUND BROKEN: setup_s") for line in lines)


@pytest.mark.parametrize("fault,message", [({"correct": False}, "not correct"),
                                           ({"failed": 1}, "larger share")])
def test_an_incorrect_or_failing_change_fails(tool, tmp_path, fault, message):
    code, lines = run(tool, tmp_path, StubRunner({"parent": PARENT, "change": PARENT}, **fault))
    assert code == 1 and any(line.startswith("BOUND BROKEN") and message in line
                             for line in lines)


class RawStubRunner(StubRunner):
    """StubRunner whose runs also print rounds_per_s and setup_s before the
    speed correction, as bench/run.py does: raw[tree][k] for run k."""

    def __init__(self, rounds, raw):
        super().__init__(rounds)
        self.raw = raw

    def __call__(self, tree, argv):
        side = os.path.basename(tree)
        k = sum(t == tree for t, _ in self.calls)
        out = super().__call__(tree, argv)
        return (f"# rounds_per_s before the speed correction: {self.raw[side][k]}\n"
                f"# setup_s before the speed correction: 0.02\n" + out)


def test_the_uncorrected_figures_are_reported_beside_the_scaled_ones(tool, tmp_path):
    # scaled: a clear 5% gain; raw: the change wins 7 pairs and reads 2% faster
    raw_parent = [200.0 + k for k in range(10)]
    raw_change = [p * 1.02 for p in raw_parent]
    for k in (1, 4, 7):  # the change loses these pairs before the correction
        raw_change[k] = raw_parent[k] - 1.0
    runner = RawStubRunner({"parent": PARENT, "change": [p * 1.05 for p in PARENT]},
                           {"parent": raw_parent, "change": raw_change})
    path = tmp_path / "BENCH.json"
    code, lines = run(tool, tmp_path, runner, "--json", str(path))
    assert code == 0
    line = next(line for line in lines
                if line.startswith("rounds_per_s before the speed correction:"))
    median_parent = (204.0 + 205.0) / 2
    assert f"parent {median_parent:.6g}" in line and "change won 7 of 10" in line
    raw = json.loads(path.read_text())["end_to_end"]["betting-protocol@90001"][
        "metrics"]["rounds_per_s"]["raw"]
    assert raw["parent_runs"] == raw_parent and raw["change_runs"] == raw_change
    assert raw["parent_median"] == median_parent and raw["change_wins"] == 7
    assert raw["ratio_of_medians"] == pytest.approx(raw["change_median"] / median_parent)
    # the verdicts read the scaled figures; a metric with no raw line gets none
    scaled = next(line for line in lines if line.startswith("rounds_per_s ("))
    assert "change won 10 of 10" in scaled and "claim rule met" in scaled
    assert not any(line.startswith("peak_rss_mb before") for line in lines)
    setup = json.loads(path.read_text())["end_to_end"]["betting-protocol@90001"][
        "metrics"]["setup_s"]["raw"]
    assert setup["ratio_of_medians"] == 1.0 and setup["change_wins"] == 0


def test_runs_without_raw_lines_store_no_raw_figures(tool, tmp_path):
    path = tmp_path / "BENCH.json"
    runner = StubRunner({"parent": PARENT, "change": PARENT})
    code, lines = run(tool, tmp_path, runner, "--json", str(path))
    assert code == 0 and not any("before the speed correction" in line for line in lines)
    metrics = json.loads(path.read_text())["end_to_end"]["betting-protocol@90001"]["metrics"]
    assert all("raw" not in m for m in metrics.values())
