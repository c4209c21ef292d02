import dataclasses

import numpy as np
import pytest

from implicitcoin import baselines, data_io, harness, losses
from implicitcoin.baselines import is_parameter_free
from implicitcoin.data_io import make_synthetic_regression, serialize_libsvm
from implicitcoin.harness import (DEFAULT_GRID, ExperimentConfig, RunRecord,
                                  emit_csv, read_csv, run_single, tune_and_run)
from implicitcoin.learners import ImplicitCoin
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

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("algorithm", baselines.ALGORITHMS)
    def test_every_algorithm_runs_on_read_only_gradients(self, small_ds, algorithm, task):
        # the oracles hand out the example's read-only arrays; no algorithm
        # writes into one, and a writeable copy gives the same records
        base = eval_grad_fn("hinge" if task == "classification" else "absolute")
        writeable = []

        def watching(w, ex):
            loss, g = base(w, ex)
            writeable.append(g.flags.writeable)
            return loss, g

        def copying(w, ex):
            loss, g = base(w, ex)
            return loss, g.copy()

        cfg = ExperimentConfig(algorithm=algorithm, task=task, epochs=2, repetitions=1)
        eta0 = None if is_parameter_free(algorithm) else 0.1
        records = run_single(cfg, 0, eta0, dataset=small_ds, loss_fn=watching)
        assert len(records) == 2 and len(writeable) == 2 * 42 and not any(writeable)
        again = run_single(cfg, 0, eta0, dataset=small_ds, loss_fn=copying)
        assert [dataclasses.replace(r, wall_ms=0.0) for r in records] == \
               [dataclasses.replace(r, wall_ms=0.0) for r in again]

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

    @pytest.mark.parametrize("algorithm", ["implicit-coin", "cw-implicit-coin",
                                           "sgd", "aprox", "iwa", "coin", "cocob"])
    @pytest.mark.parametrize("bad", ["nan-loss", "inf-loss", "nan-grad", "inf-grad"])
    def test_non_finite_oracle_output_aborts_with_round_index(self, small_ds,
                                                             algorithm, bad):
        eta0 = None if is_parameter_free(algorithm) else 0.1
        cfg = ExperimentConfig(algorithm=algorithm, epochs=2, repetitions=1)
        base = eval_grad_fn("absolute")
        calls = []

        def poisoned(w, ex):
            calls.append(1)
            loss, g = base(w, ex)
            if len(calls) == 45:  # the third round of the second epoch
                kind, what = bad.split("-")
                value = np.nan if kind == "nan" else np.inf
                if what == "loss":
                    loss = value
                else:
                    g = g.copy()
                    g[0] = value
            return loss, g

        with pytest.raises(harness.RunAborted, match="round 45") as err:
            run_single(cfg, 0, eta0, dataset=small_ds, loss_fn=poisoned)
        assert err.value.round_index == 45

    def test_wealth_overflow_aborts_with_round_index(self, small_ds):
        # a constant coin under a huge loss never reaches the corner, so the
        # wealth grows geometrically until it leaves float range
        cfg = ExperimentConfig(algorithm="implicit-coin", epochs=60, repetitions=1)

        def runaway(w, ex):
            g = np.zeros_like(w)
            g[0] = -1.0
            return 1.7e308, g

        learner = ImplicitCoin(small_ds.n_features)
        rounds = 0
        with pytest.raises(ValueError, match="wealth overflows"):
            while True:
                learner.step(*runaway(learner.predict(), None))
                rounds += 1
        with pytest.raises(harness.RunAborted, match=f"round {rounds + 1}") as err:
            run_single(cfg, 0, dataset=small_ds, loss_fn=runaway)
        assert err.value.round_index == rounds + 1


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


def sequential_protocol(cfg, ds):
    """The protocol as a plain loop of run_single calls, each preparing its
    own split: the reference for the shared preparation of tune_and_run."""
    selected = []
    for rep in range(cfg.repetitions):
        if not cfg.effective_grid:
            selected.extend(run_single(cfg, rep, None, ds))
            continue
        best = None
        for eta0 in sorted(cfg.effective_grid):
            records = run_single(cfg, rep, eta0, ds)
            if best is None or records[-1].val_loss < best[0]:
                best = (records[-1].val_loss, records)
        selected.extend(best[1])
    return selected + harness._mean_rows(selected, cfg)


def without_wall(records):
    return [dataclasses.replace(r, wall_ms=0.0) for r in records]


class TestPreparedRepetitions:
    @pytest.mark.parametrize("algorithm,task", [
        ("sgd", "regression"), ("aprox", "regression"), ("iwa", "regression"),
        ("implicit-coin", "classification"), ("cw-implicit-coin", "classification")])
    def test_records_equal_a_fresh_split_per_run(self, algorithm, task):
        ds = make_synthetic_regression(n=80, dim=3, seed=23)
        cfg = ExperimentConfig(algorithm=algorithm, task=task, epochs=2,
                               repetitions=2, seed=4)
        got = tune_and_run(cfg, dataset=ds)
        assert without_wall(got) == without_wall(sequential_protocol(cfg, ds))

    @pytest.mark.parametrize("algorithm,runs", [("sgd", 13), ("coin", 1)])
    def test_one_split_and_one_row_set_per_repetition(self, algorithm, runs,
                                                      small_ds, monkeypatch):
        counts = {"split": 0, "example": 0, "run": 0}

        def counted(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(data_io, "shuffle_split", counted("split", data_io.shuffle_split))
        monkeypatch.setattr(losses, "LabeledExample", counted("example", losses.LabeledExample))
        monkeypatch.setattr(harness, "run_single", counted("run", harness.run_single))
        cfg = ExperimentConfig(algorithm=algorithm, epochs=3, repetitions=2)
        tune_and_run(cfg, dataset=small_ds)
        assert counts == {"split": 2, "example": 2 * 42, "run": 2 * runs}

    def test_run_single_rejects_another_repetitions_split(self, small_ds):
        cfg = ExperimentConfig(algorithm="sgd", epochs=1, repetitions=2, seed=3)
        prepared = harness.prepare_repetition(cfg, small_ds, 0)
        assert len(prepared.examples) == len(prepared.train) == 42
        with pytest.raises(ValueError, match="repetition 0, not seed 3 repetition 1"):
            run_single(cfg, 1, 0.1, small_ds, prepared=prepared)
        other = ExperimentConfig(algorithm="sgd", epochs=1, repetitions=2, seed=5)
        with pytest.raises(ValueError, match="not seed 5"):
            run_single(other, 0, 0.1, small_ds, prepared=prepared)


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


def test_metadata_does_not_split_a_regression_task(tmp_path, small_ds, monkeypatch):
    calls = []
    split = data_io.shuffle_split

    def counting(*args):
        calls.append(1)
        return split(*args)

    monkeypatch.setattr(data_io, "shuffle_split", counting)
    for algorithm in ("sgd", "implicit-coin"):
        cfg = ExperimentConfig(algorithm=algorithm, task="regression", epochs=1,
                               repetitions=3)
        harness.write_metadata(cfg, tmp_path / "meta.txt", small_ds)
        assert "binarize_threshold" not in (tmp_path / "meta.txt").read_text()
    assert calls == []


def test_metadata_thresholds_match_prepared_splits_without_standardizing(
        tmp_path, monkeypatch):
    ds = make_synthetic_regression(n=80, dim=3, seed=21)
    cfg = ExperimentConfig(algorithm="implicit-coin", task="classification",
                           epochs=1, repetitions=3, seed=2)
    expected = [harness.prepare_splits(cfg, ds, rep)[3].binarize_threshold
                for rep in range(3)]

    def no_standardize(*args):
        raise AssertionError("write_metadata standardized a split")

    monkeypatch.setattr(data_io, "standardize_then_unit_normalize", no_standardize)
    meta = tmp_path / "meta.txt"
    harness.write_metadata(cfg, meta, ds)
    lines = meta.read_text().splitlines()
    assert [f"binarize_threshold_rep{rep}={t!r}" for rep, t in enumerate(expected)] \
        == [ln for ln in lines if ln.startswith("binarize_threshold")]
