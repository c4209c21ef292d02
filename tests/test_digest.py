"""Toy-size runs of tools/digest.py: a tree compares identical with itself,
and a one-ulp perturbation of one learner's step, or of the statistics the
examples carry, is reported at the round it first shows."""

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
    step_beta = b.learners._step_beta

    def nudged(beta, g, gg, eta, h):  # one ulp more on every moving round
        beta_next, k2 = step_beta(beta, g, gg, eta, h)
        return np.nextafter(beta_next, np.inf), k2

    monkeypatch.setattr(b.learners, "_step_beta", nudged)
    differ, lines = compare(toy, a, b)
    changed = [line for line in lines if " differs from round " in line]
    # ImplicitCoin's small branch and the projected variant take the
    # unprojected step; the per-coordinate variant does not
    assert differ == len(changed) > 0
    assert all("CoordinateImplicitCoin" not in line for line in changed)
    assert all(float(line.split("relative iterate gap ")[1].split(",")[0]) > 0.0
               for line in changed)
    sums = [line.split()[1] for line in lines if line.startswith("sha256 ")]
    assert sums[0] != sums[1] and lines[-1] == f"{differ} streams differ"


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
