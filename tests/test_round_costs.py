"""Toy-size runs of tools/round_costs.py: it runs to the end, prints every
round type it replays, every ratio line (full, corner and zero rounds over
Sgd.step and corner over full, for each learner) and every learner's
evaluations per corner, with --compare replays a second load of this tree
as its control and divides both trees' ratios over Sgd by the other tree's
Sgd.step, and with --json stores its rows and ratios in a JSON file whose
other keys it keeps. No timing is asserted."""

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
    sgd = "other's Sgd" if compare else "Sgd"
    assert labels == {f"{cls} {ratio}" for cls in round_costs.LEARNERS
                      for ratio in (f"full / {sgd}", f"corner / {sgd}", "corner / full",
                                    f"zero / {sgd}", "evaluations / corner")}
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
    assert "other tree's Sgd.step" in table["what"]
    for cls in round_costs.LEARNERS:  # every learner's rounds over the other tree's Sgd.step
        for kind in ("full", "corner"):
            by_tree = ratios[f"{cls} {kind} / other's Sgd"]
            assert set(by_tree) == {"this", "other"}
            if f"d3.{cls}.{kind}" in rows:
                for tree in by_tree:
                    assert by_tree[tree] == pytest.approx(
                        rows[f"d3.{cls}.{kind}"][f"{tree}_us"] / rows["d3.Sgd.full"]["other_us"],
                        rel=1e-3)
    for cls in round_costs.LEARNERS:
        by_tree = table["corner_evals"]["d3"][cls]
        assert set(by_tree) == {"this", "other"}
        for counts in by_tree.values():
            assert counts["per_corner"] == pytest.approx(counts["evals"] / counts["corners"])


def test_a_slower_sgd_in_this_tree_moves_no_learner_ratio(round_costs, capsys):
    # the same per-trial cells twice, this tree's Sgd.step three times as
    # slow the second time: every "/ other's Sgd" line reads the same, and
    # only the Sgd row's this/other moves
    names = ["this", "other", round_costs.AGAIN]
    jobs, base = [], {}
    for k, cls in enumerate(round_costs.LEARNERS + ("Sgd",)):
        kinds = ("full",) if cls == "Sgd" else round_costs.TYPES
        for n in names:
            jobs.append(((3, cls, n), None, None, list(kinds)))
            base[(3, cls, n)] = {kind: [1.0 + k + j + i + (n == "other") for i in range(3)]
                                 for j, kind in enumerate(kinds)}
    slow = {key: {kind: [3.0 * us for us in trials] if key == (3, "Sgd", "this") else trials
                  for kind, trials in by_kind.items()}
            for key, by_kind in base.items()}
    printed = []
    for cells in (base, slow):
        rows, ratios = round_costs.summarise([3], names, cells, jobs)
        round_costs.print_table(3, 0.0, names, rows, ratios, {})
        printed.append(capsys.readouterr().out.splitlines())
    over_sgd = [[line for line in out if " / other's Sgd at d = 3: " in line] for out in printed]
    assert len(over_sgd[0]) == 3 * len(round_costs.LEARNERS)
    assert over_sgd[0] == over_sgd[1]
    moved = [line for line, again in zip(*printed) if line != again]
    assert [line.split()[1] for line in moved] == ["Sgd"]
