"""Toy-size runs of tools/round_costs.py: it runs to the end, prints every
round type it replays, every ratio line (full, corner and zero rounds over
Sgd.step and corner over full, for each learner) and every learner's
evaluations per corner, with --compare replays a second load of this tree
as its control, and with --json stores its rows and ratios in a JSON file
whose other keys it keeps. No timing is asserted."""

import importlib.util
import json
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "round_costs.py")
TOY = ["--dims", "3", "--rows", "60", "--epochs", "2", "--trials", "2"]


@pytest.fixture(scope="module")
def round_costs():
    spec = importlib.util.spec_from_file_location("round_costs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("compare", [False, True])
def test_toy_replay_prints_every_learner_and_the_ratio(round_costs, capsys, compare):
    src = os.path.join(round_costs.ROOT, "src")
    assert round_costs.main(TOY + (["--compare", src] if compare else [])) == 0
    out = capsys.readouterr().out
    for cls in round_costs.LEARNERS + ("Sgd",):
        assert f"   3 {cls}" in out
    rows = [line for line in out.splitlines() if line.startswith("   3 ")]
    assert {r.split()[2] for r in rows} >= {"zero", "full"}
    # one cell per tree: this, other and this again with --compare
    assert all(r.count("(") == (3 if compare else 1) for r in rows)
    header = next(line for line in out.splitlines() if line.startswith(" dim"))
    assert header.endswith("this/other   this/this") == compare
    assert all(len(r.split(")")[-1].split()) == (2 if compare else 0) for r in rows)
    ratios = [line for line in out.splitlines() if " at d = 3: " in line]
    labels = {line.split(" at d = ")[0] for line in ratios}
    assert labels == {f"{cls} {ratio}" for cls in round_costs.LEARNERS
                      for ratio in ("full / Sgd", "corner / Sgd", "corner / full", "zero / Sgd",
                                    "evaluations / corner")}
    assert all(line.count("(") == (2 if compare else 1) for line in ratios)


def test_evaluations_per_corner_are_the_learners_counters(round_costs, capsys):
    # the same recorded rounds on a fresh learner give the printed counts
    # for this tree and, this tree standing in for the other, for the other
    src = os.path.join(round_costs.ROOT, "src")
    assert round_costs.main(TOY + ["--compare", src]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if " evaluations / corner at d = 3: " in line]
    ic = round_costs.load_tree(src, "_round_costs_test")
    X, y = round_costs.hinge_problem(np.random.default_rng(1), 60, 3)
    assert len(lines) == len(round_costs.LEARNERS)
    for cls, line in zip(round_costs.LEARNERS, lines):
        rounds, types = round_costs.record(ic, cls, X, y, 2)
        learner = getattr(ic.learners, cls)(3)
        for loss, g, ex in round_costs.bind(ic, X, y, rounds):
            learner.step(loss, g, ex)
        c, e = learner.corner_rounds, learner.residual_evals
        assert c == types.count("corner") > 0
        assert line == (f"{cls} evaluations / corner at d = 3: {e / c:.4f} (this: {e} / {c}), "
                        f"{e / c:.4f} (other: {e} / {c})")


def test_json_stores_the_rows_and_keeps_other_keys(round_costs, tmp_path, capsys):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"pr": 1, "round_types": "replaced", "end_to_end": {"a": 1}}))
    src = os.path.join(round_costs.ROOT, "src")
    assert round_costs.main(TOY + ["--compare", src, "--json", str(path)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("   3 ")]
    data = json.loads(path.read_text())
    assert data["pr"] == 1 and data["end_to_end"] == {"a": 1}
    table = data["round_types"]
    assert table["unit"] == "us" and "--json" in table["what"]
    assert len(table["rows"]) == len(printed)
    for line, (key, row) in zip(printed, table["rows"].items()):
        dim, cls, kind = key.split(".")
        assert line.split()[:4] == [dim[1:], cls, kind, str(row["rounds"])]
        for tree in ("this", "other", round_costs.AGAIN):
            assert row[f"{tree}_min_us"] <= row[f"{tree}_us"]
        assert row["this/this"] == pytest.approx(row["this_us"] / row["this-again_us"],
                                                 rel=1e-3)
    ratios, rows = table["ratios"]["d3"], table["rows"]
    for cls in round_costs.LEARNERS:  # every learner's rounds over Sgd.step, this tree's
        for kind in ("full", "corner"):
            by_tree = ratios[f"{cls} {kind} / Sgd"]
            assert set(by_tree) == {"this", "other"}
            if f"d3.{cls}.{kind}" in rows:
                assert by_tree["this"] == pytest.approx(
                    rows[f"d3.{cls}.{kind}"]["this_us"] / rows["d3.Sgd.full"]["this_us"],
                    rel=1e-3)
    for cls in round_costs.LEARNERS:
        by_tree = table["corner_evals"]["d3"][cls]
        assert set(by_tree) == {"this", "other"}
        for counts in by_tree.values():
            assert counts["per_corner"] == pytest.approx(counts["evals"] / counts["corners"])
