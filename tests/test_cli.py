import gc
import math
import platform
import sys
import warnings

import numpy as np
import pytest

import implicitcoin
from implicitcoin import data_io, harness, losses
from implicitcoin.cli import main
from implicitcoin.data_io import make_synthetic_regression, serialize_libsvm
from implicitcoin.diagnostics import WINDOW_RECORDS
from implicitcoin.harness import read_csv


@pytest.fixture()
def libsvm_file(tmp_path):
    ds = make_synthetic_regression(n=60, dim=4, seed=13)
    path = tmp_path / "data.libsvm"
    path.write_text(serialize_libsvm(ds))
    return path


def run_cli(tmp_path, libsvm_file, *extra):
    out = tmp_path / "out.csv"
    code = main(["run", "--algo", "implicit-coin", "--data", str(libsvm_file),
                 "--format", "libsvm", "--task", "reg", "--epochs", "2",
                 "--reps", "2", "--out", str(out), *extra])
    return code, out


def test_run_writes_csv_and_metadata(tmp_path, libsvm_file):
    code, out = run_cli(tmp_path, libsvm_file)
    assert code == 0
    rows = read_csv(out)
    assert {r["repetition"] for r in rows} == {"0", "1", "mean"}
    assert (tmp_path / "out.csv.meta.txt").exists()


def test_metadata_records_provenance(tmp_path, libsvm_file):
    code, out = run_cli(tmp_path, libsvm_file)
    assert code == 0
    lines = (tmp_path / "out.csv.meta.txt").read_text().splitlines()
    for line in (f"package_version={implicitcoin.__version__}",
                 f"python={platform.python_version()}",
                 f"numpy={np.__version__}"):
        assert line in lines


def test_classification_run_splits_each_repetition_once(tmp_path, libsvm_file,
                                                        monkeypatch):
    # the metadata's binarization thresholds are those of the prepared
    # repetitions, handed on instead of split again
    splits = []
    split = data_io.shuffle_split

    def counting(*args):
        splits.append(1)
        return split(*args)

    monkeypatch.setattr(data_io, "shuffle_split", counting)
    out = tmp_path / "out.csv"
    assert main(["run", "--algo", "cw-implicit-coin", "--data", str(libsvm_file),
                 "--format", "libsvm", "--task", "clf", "--epochs", "1",
                 "--reps", "3", "--seed", "4", "--out", str(out)]) == 0
    assert len(splits) == 3
    monkeypatch.undo()
    config = harness.ExperimentConfig(
        algorithm="cw-implicit-coin", data_path=str(libsvm_file),
        task="classification", epochs=1, repetitions=3, seed=4)
    dataset = harness.load_dataset(config)
    lines = (tmp_path / "out.csv.meta.txt").read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("binarize_threshold")] == [
        f"binarize_threshold_rep{rep}="
        f"{harness.prepare_repetition(config, dataset, rep).threshold!r}"
        for rep in range(3)]


def test_check_bounds_appends_diagnostics_block(tmp_path, libsvm_file):
    code, out = run_cli(tmp_path, libsvm_file, "--check-bounds")
    assert code == 0
    text = out.read_text()
    assert "# DIAGNOSTICS" in text
    assert "check=no_overshoot pass" in text
    assert "check=wealth_lower_bound pass" in text


def test_trace_wealth_stream(tmp_path, libsvm_file):
    trace = tmp_path / "trace.csv"
    code, _ = run_cli(tmp_path, libsvm_file, "--trace-wealth", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,h,wealth,beta_norm,residual"
    assert len(lines) > 42
    h = float(lines[1].split(",")[1])
    assert 0.0 <= h <= 1.0


def test_trace_file_closed_when_the_run_fails(tmp_path, libsvm_file, monkeypatch):
    # the output directory is missing, so the run fails after training; the
    # trace file must still be closed, with every row written, and an
    # unclosed file's ResourceWarning is made an error that lands here
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    trace = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code = main(["run", "--algo", "implicit-coin", "--data", str(libsvm_file),
                     "--format", "libsvm", "--task", "reg", "--epochs", "2",
                     "--reps", "2", "--out", str(tmp_path / "missing" / "x.csv"),
                     "--trace-wealth", str(trace)])
        gc.collect()
    assert code == 1
    assert [u.exc_value for u in unraisable] == []
    assert len(trace.read_text().splitlines()) > 42


def test_aborted_run_leaves_a_closed_trace_of_the_rounds_before(tmp_path, libsvm_file,
                                                                monkeypatch, capsys):
    # the oracle returns a nan loss past the first full window of trace
    # rows, so the learner rejects the round and the run aborts there
    args = ["run", "--algo", "implicit-coin", "--data", str(libsvm_file),
            "--format", "libsvm", "--task", "reg", "--epochs", "10", "--reps", "1",
            "--check-bounds"]
    full = tmp_path / "full.csv"
    assert main([*args, "--out", str(tmp_path / "a.csv"), "--trace-wealth", str(full)]) == 0
    abort_at = WINDOW_RECORDS + 44
    eval_grad_fn = losses.eval_grad_fn
    calls = []

    def poisoned_fn(kind):
        oracle = eval_grad_fn(kind)

        def poisoned(w, ex):
            calls.append(1)
            loss, g = oracle(w, ex)
            return (math.nan if len(calls) == abort_at else loss), g
        return poisoned

    monkeypatch.setattr(losses, "eval_grad_fn", poisoned_fn)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    trace = tmp_path / "aborted.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code = main([*args, "--out", str(tmp_path / "b.csv"), "--trace-wealth", str(trace)])
        gc.collect()
    assert code == 1
    assert f"RunAborted: round {abort_at}" in capsys.readouterr().err
    assert [u.exc_value for u in unraisable] == []
    lines = trace.read_text().splitlines()
    assert len(lines) == abort_at  # the header and the rounds before the abort
    assert lines == full.read_text().splitlines()[:abort_at]


def test_trace_wealth_rejected_for_baseline(tmp_path, libsvm_file, capsys):
    out = tmp_path / "out.csv"
    code = main(["run", "--algo", "sgd", "--data", str(libsvm_file),
                 "--format", "libsvm", "--task", "reg", "--out", str(out),
                 "--trace-wealth", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_trace_wealth_for_baseline_rejected_before_the_data_is_read(tmp_path, capsys):
    # the flag is checked before the data file is opened: a missing file is
    # not what the error names
    trace = tmp_path / "t.csv"
    code = main(["run", "--algo", "sgd", "--data", str(tmp_path / "missing.libsvm"),
                 "--format", "libsvm", "--task", "reg", "--out", str(tmp_path / "out.csv"),
                 "--trace-wealth", str(trace)])
    assert code == 1 and not trace.exists()
    err = capsys.readouterr().err
    assert "trace-wealth needs a betting learner" in err
    assert "missing.libsvm" not in err and "FileNotFoundError" not in err
    assert err.startswith("error: ValueError:") and err.count("\n") == 1


def test_grid_rejected_for_parameter_free(tmp_path, libsvm_file, capsys):
    out = tmp_path / "out.csv"
    code = main(["run", "--algo", "cocob", "--data", str(libsvm_file),
                 "--format", "libsvm", "--task", "reg", "--grid", "0.1,1",
                 "--out", str(out)])
    assert code == 1
    assert "parameter-free" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["nan", "inf", "0.1,nan", "1,-inf"])
def test_non_finite_grid_value_rejected(tmp_path, libsvm_file, capsys, grid):
    out = tmp_path / "out.csv"
    code = main(["run", "--algo", "sgd", "--data", str(libsvm_file),
                 "--format", "libsvm", "--task", "reg", "--epochs", "2",
                 "--reps", "1", "--grid", grid, "--out", str(out)])
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert "finite" in err and err.count("\n") == 1


def test_missing_file_is_one_line_error(tmp_path, capsys):
    code = main(["run", "--algo", "sgd", "--data", str(tmp_path / "nope.libsvm"),
                 "--format", "libsvm", "--task", "reg",
                 "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_csv_dataset_via_target_column(tmp_path):
    rng = np.random.default_rng(5)
    lines = ["f1,f2,label"]
    for _ in range(40):
        lines.append(f"{rng.normal()},{rng.normal()},{rng.normal()}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    code = main(["run", "--algo", "coin", "--data", str(data), "--format", "csv",
                 "--task", "reg", "--epochs", "1", "--reps", "1",
                 "--target-col", "label", "--out", str(out)])
    assert code == 0
    assert len(read_csv(out)) == 2  # one epoch row + one mean row
