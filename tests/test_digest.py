"""Toy-size runs of tools/digest.py: a tree compares identical with itself,
also when both trees are given as one path, and a one-ulp perturbation of
one learner's step, or of the statistics the examples carry, is reported at
the round it first shows, with its iterate gap relative to the stream; in
--cli mode, a perturbed CSV number format is reported at the file and line
it first shows."""

import importlib
import importlib.util
import io
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "digest.py")
SRC = os.path.join(os.path.dirname(TOOL), os.pardir, "src")


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def toy(digest, monkeypatch):
    monkeypatch.setattr(digest, "SEEDS", (5,))
    monkeypatch.setattr(digest, "DIMS", (1, 4))
    monkeypatch.setattr(digest, "ROUNDS", 40)
    return digest


TOY_STREAMS = 88


def compare(digest, a, b):
    out = io.StringIO()
    differ = digest.report({"a": a, "b": b}, out)
    return differ, out.getvalue().splitlines()


def test_a_tree_compares_identical_with_itself(toy):
    a, b = toy.load_tree(SRC, "_digest_test_a"), toy.load_tree(SRC, "_digest_test_b")
    differ, lines = compare(toy, a, b)
    streams = [line for line in lines if line.endswith("  identical")]
    # classes, dims, drift, feeds, and the betting learners traced and untraced
    assert differ == 0 and len(streams) == (3 * 2 + 5) * 2 * 2 * 2 == TOY_STREAMS
    for cls in ("ImplicitCoin", "Sgd", "AProx", "ImportanceAwareSgd", "KtCoin", "Cocob"):
        for feed in ("array", "example"):
            assert any(line.startswith(f"{cls} ") and f" {feed} " in line for line in streams)
    sums = [line.split()[1] for line in lines if line.startswith("sha256 ")]
    assert len(sums) == 2 and sums[0] == sums[1]
    assert lines[-1] == "all streams identical"


def test_a_perturbed_step_is_reported(toy, monkeypatch):
    a, b = toy.load_tree(SRC, "_digest_test_a"), toy.load_tree(SRC, "_digest_test_b")
    step = b.learners._BettingCoin.step

    def nudged(self, *args):  # u one ulp more after every moving round
        u = self._u
        w_next = step(self, *args)
        if self._u is not u:
            self._u = np.nextafter(self._u, np.inf)
        return w_next

    monkeypatch.setattr(b.learners._BettingCoin, "step", nudged)
    differ, lines = compare(toy, a, b)
    changed = [line for line in lines if " differs from round " in line]
    # ImplicitCoin's small branch and the projected variant take the
    # unprojected step; the per-coordinate variant does not
    assert differ == len(changed) > 0
    assert all(line.startswith(("ImplicitCoin ", "ProjectedImplicitCoin ")) for line in changed)
    assert all(float(line.split("relative iterate gap ")[1].split(",")[0]) > 0.0
               for line in changed)
    # |dh| is reported for the traced streams only, and summed up after them
    assert all((", largest |dh| " in line) == (" traced " in line) for line in changed)
    summary = next(line for line in lines if line.startswith("over the "))
    assert summary.startswith(f"over the {differ} differing streams: largest relative")
    assert lines.index(summary) == len(lines) - 4  # then the two sums and the count
    sums = [line.split()[1] for line in lines if line.startswith("sha256 ")]
    assert sums[0] != sums[1] and lines[-1] == f"{differ} streams differ"


def test_the_iterate_gap_is_relative_to_the_stream(digest):
    # an alternating stream's iterate passes near 0, where a per-round ratio
    # would read 0.5 here; the gap is taken against the stream's largest |w|
    rounds = [(b"a", np.array([2.0, -1.0]), None), (b"b", np.array([1e-17, 0.0]), None)]
    other = [(b"a", np.array([2.0, -1.0]), None), (b"c", np.array([2e-17, 0.0]), None)]
    assert digest.gaps(rounds, other) == (2, 0.5e-17, None)
    traced = [(data, w, 0.5) for data, w, _ in rounds]
    assert digest.gaps(traced, [(data, w, 0.25) for data, w, _ in other])[2] == 0.25
    assert digest.gaps(rounds, rounds) == (None, 0.0, None)


def test_main_compares_a_tree_with_itself_given_one_path(digest, toy, capsys):
    assert digest.main([SRC, "--compare", SRC]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == TOY_STREAMS + 3 and out[-1] == "all streams identical"
    assert [line.split()[-1] for line in out[-3:-1]] == ["this", "other"]


def test_perturbed_example_statistics_are_reported(toy, monkeypatch):
    a, b = toy.load_tree(SRC, "_digest_test_a"), toy.load_tree(SRC, "_digest_test_b")
    labeled_examples = b.losses.labeled_examples

    def nudged(X, y):  # each cached x.x one ulp more
        examples = labeled_examples(X, y)
        for ex in examples:
            ex.__dict__["sq_norm"] = float(np.nextafter(ex.sq_norm, np.inf))
        return examples

    monkeypatch.setattr(b.losses, "labeled_examples", nudged)
    differ, lines = compare(toy, a, b)
    changed = [line for line in lines if " differs from " in line]
    # only the steps fed their examples read sq_norm, and of those only the
    # ones whose update depends on g.g
    assert differ == len(changed) > 0
    assert all(" example " in line for line in changed)
    for cls in ("AProx", "ImportanceAwareSgd", "ImplicitCoin", "ProjectedImplicitCoin"):
        assert any(line.startswith(f"{cls} ") for line in changed)
    for cls in ("Sgd", "KtCoin", "Cocob", "CoordinateImplicitCoin"):
        assert not any(line.startswith(f"{cls} ") for line in changed)


def test_main_exit_code(digest, toy, capsys):
    assert digest.main([SRC]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == TOY_STREAMS + 1 and out[-1].startswith("sha256 ")


@pytest.fixture()
def cli_toy(digest, monkeypatch):
    monkeypatch.setattr(digest, "CLI_ROWS", 60)
    monkeypatch.setattr(digest, "CLI_EPOCHS", 1)
    return digest


CLI_RUNS = 14  # seven algorithms, two tasks


def compare_cli(digest, a, b, workdir):
    out = io.StringIO()
    differ = digest.cli_report({"a": a, "b": b}, str(workdir), out)
    return differ, out.getvalue().splitlines()


def test_cli_runs_compare_identical_with_themselves(cli_toy, tmp_path):
    a, b = cli_toy.load_tree(SRC, "_digest_test_a"), cli_toy.load_tree(SRC, "_digest_test_b")
    differ, lines = compare_cli(cli_toy, a, b, tmp_path)
    runs = [line for line in lines if line.endswith("  identical")]
    assert differ == 0 and len(runs) == CLI_RUNS
    for algo in a.ALGORITHMS:
        for task in ("reg", "clf"):
            assert sum(line.split()[:2] == [algo, task] for line in runs) == 1
    sums = [line.split()[1] for line in lines if line.startswith("sha256 ")]
    assert len(sums) == 2 and sums[0] == sums[1]
    assert lines[-1] == "all runs identical"
    # every run finished, and the betting learners wrote their traces
    for name, argv, traced in cli_toy.cli_runs():
        outputs = dict(cli_toy.cli_outputs(a, argv, traced, str(tmp_path / "data.libsvm"),
                                           str(tmp_path / "check.csv")))
        assert outputs["exit code"] == ["0"] and outputs["csv"][-1].startswith("# ")
        assert len(outputs["trace"]) == (1 + 2 * 42 if traced else 0)
        assert "wall_ms" not in outputs["csv"][0]


def test_a_perturbed_csv_format_is_reported(cli_toy, tmp_path, monkeypatch):
    a, b = cli_toy.load_tree(SRC, "_digest_test_a"), cli_toy.load_tree(SRC, "_digest_test_b")
    harness = importlib.import_module(b.__name__ + ".harness")
    monkeypatch.setattr(harness, "_fmt", lambda value: "" if value is None else f"{value:.9g}")
    differ, lines = compare_cli(cli_toy, a, b, tmp_path)
    # the first row's losses lose their tenth digit
    changed = [line for line in lines if line.endswith("  differs at csv line 2")]
    assert differ == len(changed) == CLI_RUNS
    sums = [line.split()[1] for line in lines if line.startswith("sha256 ")]
    assert sums[0] != sums[1] and lines[-1] == f"{CLI_RUNS} runs differ"


def test_cli_main_exit_code(cli_toy, capsys):
    assert cli_toy.main([SRC, "--cli", "--compare", os.path.abspath(SRC)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == CLI_RUNS + 3 and out[-1] == "all runs identical"
