"""Toy-size run of tools/round_costs.py: it runs to the end and prints every
round type it replays and every ratio line. No timing is asserted."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "round_costs.py")


@pytest.fixture(scope="module")
def round_costs():
    spec = importlib.util.spec_from_file_location("round_costs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("compare", [False, True])
def test_toy_replay_prints_every_learner_and_the_ratio(round_costs, capsys, compare):
    src = os.path.join(round_costs.ROOT, "src")
    argv = ["--dims", "3", "--rows", "60", "--epochs", "2", "--trials", "2"]
    assert round_costs.main(argv + (["--compare", src] if compare else [])) == 0
    out = capsys.readouterr().out
    for cls in round_costs.LEARNERS + ("Sgd",):
        assert f"   3 {cls}" in out
    rows = [line for line in out.splitlines() if line.startswith("   3 ")]
    assert {r.split()[2] for r in rows} >= {"zero", "full"}
    assert all(r.count("(") == (2 if compare else 1) for r in rows)  # one cell per tree
    ratios = [line for line in out.splitlines() if " at d = 3: " in line]
    labels = {line.split(" at d = ")[0] for line in ratios}
    assert labels == {"ImplicitCoin full / Sgd",
                      *(f"{cls} corner / full" for cls in round_costs.LEARNERS),
                      *(f"{cls} zero / Sgd" for cls in round_costs.LEARNERS)}
    assert all(line.count("(") == (2 if compare else 1) for line in ratios)
