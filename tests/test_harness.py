import numpy as np
import pytest

from implicitcoin import harness
from implicitcoin.data_io import make_synthetic_regression, serialize_libsvm
from implicitcoin.harness import (DEFAULT_GRID, ExperimentConfig, RunRecord,
                                  emit_csv, read_csv, run_single, tune_and_run)
from implicitcoin.losses import eval_grad_fn


@pytest.fixture(scope="module")
def small_ds():
    return make_synthetic_regression(n=60, dim=4, seed=3)


def count_records(records, rep):
    return [r for r in records if r.repetition == rep]


class TestConfig:
    def test_default_grid_is_13_log_spaced(self):
        assert len(DEFAULT_GRID) == 13
        assert DEFAULT_GRID[0] == pytest.approx(1e-4)
        assert DEFAULT_GRID[-1] == pytest.approx(1e2)
        ratios = [DEFAULT_GRID[i + 1] / DEFAULT_GRID[i] for i in range(12)]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_parameter_free_rejects_grid(self):
        with pytest.raises(ValueError, match="parameter-free"):
            ExperimentConfig(algorithm="implicit-coin", eta0_grid=(0.1,))

    def test_tuned_with_explicit_empty_grid_rejected(self, small_ds):
        cfg = ExperimentConfig(algorithm="sgd", epochs=1, repetitions=1,
                               eta0_grid=())
        with pytest.raises(ValueError, match="non-empty"):
            tune_and_run(cfg, dataset=small_ds)

    def test_basic_validation(self):
        with pytest.raises(ValueError, match="algorithm"):
            ExperimentConfig(algorithm="code")
        with pytest.raises(ValueError, match="epochs"):
            ExperimentConfig(algorithm="sgd", epochs=0)
        with pytest.raises(ValueError, match="format"):
            ExperimentConfig(algorithm="sgd", data_format="arff")


class TestRunSingle:
    def test_step_count_is_train_size_times_epochs(self, small_ds):
        cfg = ExperimentConfig(algorithm="implicit-coin", epochs=1, repetitions=1)
        calls = []
        base = eval_grad_fn("absolute")

        def counting(w, ex):
            calls.append(1)
            return base(w, ex)

        records = run_single(cfg, 0, dataset=small_ds, loss_fn=counting)
        assert len(calls) == 42  # floor(0.7 * 60) rows, 1 epoch
        assert len(records) == 1

    def test_deterministic(self, small_ds):
        cfg = ExperimentConfig(algorithm="cocob", epochs=2, repetitions=1, seed=11)
        a = run_single(cfg, 0, dataset=small_ds)
        b = run_single(cfg, 0, dataset=small_ds)
        for x, y in zip(a, b):
            assert (x.train_loss, x.val_loss, x.test_loss) == \
                   (y.train_loss, y.val_loss, y.test_loss)

    def test_no_overshoot_on_every_traced_round(self, small_ds):
        from implicitcoin.diagnostics import NoOvershootFold
        fold = NoOvershootFold()
        cfg = ExperimentConfig(algorithm="implicit-coin", epochs=2, repetitions=1)
        run_single(cfg, 0, dataset=small_ds, trace_cb=fold.update)
        report = fold.report()
        assert report.passed and report.rounds > 0

    def test_precondition_violation_aborts_with_round_index(self, small_ds):
        cfg = ExperimentConfig(algorithm="implicit-coin", epochs=1, repetitions=1)

        def oversized(w, ex):
            return 1.0, 2.0 * np.ones_like(w)  # norm 4: violates the unit bound

        with pytest.raises(harness.RunAborted, match="round 1") as err:
            run_single(cfg, 0, dataset=small_ds, loss_fn=oversized)
        assert err.value.round_index == 1

    @pytest.mark.parametrize("algorithm", ["implicit-coin", "cw-implicit-coin"])
    @pytest.mark.parametrize("bad", ["nan-loss", "inf-loss", "nan-grad", "inf-grad"])
    def test_non_finite_oracle_output_aborts_with_round_index(self, small_ds,
                                                             algorithm, bad):
        cfg = ExperimentConfig(algorithm=algorithm, epochs=1, repetitions=1)
        base = eval_grad_fn("absolute")
        calls = []

        def poisoned(w, ex):
            calls.append(1)
            loss, g = base(w, ex)
            if len(calls) == 3:
                kind, what = bad.split("-")
                value = np.nan if kind == "nan" else np.inf
                if what == "loss":
                    loss = value
                else:
                    g = g.copy()
                    g[0] = value
            return loss, g

        with pytest.raises(harness.RunAborted, match="round 3") as err:
            run_single(cfg, 0, dataset=small_ds, loss_fn=poisoned)
        assert err.value.round_index == 3


class TestTuneAndRun:
    def test_parameter_free_skips_tuning(self, small_ds, monkeypatch):
        calls = []
        orig = harness.run_single

        def spy(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(harness, "run_single", spy)
        cfg = ExperimentConfig(algorithm="coin", epochs=1, repetitions=2)
        tune_and_run(cfg, dataset=small_ds)
        assert len(calls) == 2  # one per repetition, no grid sweep

    def test_grid_times_reps_tuning_runs(self, small_ds, monkeypatch):
        calls = []
        orig = harness.run_single

        def spy(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(harness, "run_single", spy)
        cfg = ExperimentConfig(algorithm="sgd", epochs=1, repetitions=3,
                               eta0_grid=(0.01, 0.1, 1.0, 10.0, 0.3, 3.0, 30.0))
        records = tune_and_run(cfg, dataset=small_ds)
        assert len(calls) == 7 * 3
        finals = [r for r in records if r.repetition != "mean"]
        assert len(finals) == 3  # one selected epoch-row per repetition

    def test_ties_prefer_smaller_eta0(self, small_ds, monkeypatch):
        def fake_run(config, repetition, eta0=None, dataset=None, **kwargs):
            return [RunRecord(algorithm=config.algorithm, repetition=repetition,
                              epoch=1, eta0=eta0, val_loss=1.0)]

        monkeypatch.setattr(harness, "run_single", fake_run)
        cfg = ExperimentConfig(algorithm="sgd", epochs=1, repetitions=1,
                               eta0_grid=(5.0, 0.5, 50.0))
        records = tune_and_run(cfg, dataset=small_ds)
        assert records[0].eta0 == 0.5

    def test_mean_rows_are_arithmetic_means(self, small_ds):
        cfg = ExperimentConfig(algorithm="coin", epochs=2, repetitions=3, seed=1)
        records = tune_and_run(cfg, dataset=small_ds)
        means = count_records(records, "mean")
        assert len(means) == 2
        for mean_row in means:
            group = [r for r in records
                     if r.repetition != "mean" and r.epoch == mean_row.epoch]
            assert len(group) == 3
            assert mean_row.test_loss == pytest.approx(
                sum(r.test_loss for r in group) / 3, rel=1e-12)
            assert mean_row.train_loss == pytest.approx(
                sum(r.train_loss for r in group) / 3, rel=1e-12)

    def test_selected_eta_varies_only_within_grid(self, small_ds):
        cfg = ExperimentConfig(algorithm="aprox", epochs=1, repetitions=2,
                               eta0_grid=(0.1, 1.0))
        records = tune_and_run(cfg, dataset=small_ds)
        for r in count_records(records, 0) + count_records(records, 1):
            assert r.eta0 in (0.1, 1.0)


class TestCsv:
    def test_round_trip_and_mean_block(self, small_ds, tmp_path):
        cfg = ExperimentConfig(algorithm="coin", epochs=2, repetitions=2, seed=2)
        records = tune_and_run(cfg, dataset=small_ds)
        path = tmp_path / "out.csv"
        emit_csv(records, path, extra_lines=["# DIAGNOSTICS", "# nothing"])
        rows = read_csv(path)
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert row["algorithm"] == rec.algorithm
            assert str(row["repetition"]) == str(rec.repetition)
            for key in ("train_loss", "val_loss", "test_loss"):
                got, want = row[key], getattr(rec, key)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            emit_csv([], tmp_path / "out.csv")

    def test_unwritable_path_errors(self, tmp_path):
        rec = RunRecord(algorithm="sgd", repetition=0, epoch=1)
        with pytest.raises(OSError):
            emit_csv([rec], tmp_path / "missing" / "out.csv")

    def test_eta0_blank_for_parameter_free(self, small_ds, tmp_path):
        cfg = ExperimentConfig(algorithm="cocob", epochs=1, repetitions=1)
        records = tune_and_run(cfg, dataset=small_ds)
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        body = path.read_text().splitlines()
        assert body[1].split(",")[3] == ""

    def test_determinism_of_emitted_bytes(self, small_ds, tmp_path):
        cfg = ExperimentConfig(algorithm="implicit-coin", epochs=2,
                               repetitions=2, seed=9)

        def emit(path):
            records = tune_and_run(cfg, dataset=small_ds)
            for r in records:
                r.wall_ms = 0.0
            emit_csv(records, path)
            return path.read_text()

        assert emit(tmp_path / "a.csv") == emit(tmp_path / "b.csv")


class TestClassificationPipeline:
    def test_median_binarization_applied(self):
        ds = make_synthetic_regression(n=80, dim=3, seed=21)
        cfg = ExperimentConfig(algorithm="implicit-coin", task="classification",
                               epochs=1, repetitions=1)
        train, val, test, record = harness.prepare_splits(cfg, ds, 0)
        assert record.binarize_threshold is not None
        for split in (train, val, test):
            assert set(np.unique(split.y)) <= {-1.0, 1.0}

    def test_hinge_run_completes(self):
        ds = make_synthetic_regression(n=80, dim=3, seed=22)
        cfg = ExperimentConfig(algorithm="implicit-coin", task="classification",
                               epochs=2, repetitions=1)
        records = run_single(cfg, 0, dataset=ds)
        assert all(np.isfinite(r.test_loss) for r in records)


def test_metadata_file(tmp_path, small_ds):
    data = tmp_path / "ds.libsvm"
    data.write_text(serialize_libsvm(small_ds))
    cfg = ExperimentConfig(algorithm="sgd", data_path=str(data),
                           task="regression", epochs=1, repetitions=1)
    meta = tmp_path / "meta.txt"
    harness.write_metadata(cfg, meta)
    text = meta.read_text()
    assert "split_prng=pcg64" in text
    assert "eta0_grid=0.0001" in text
    assert "selection=final-epoch" in text
