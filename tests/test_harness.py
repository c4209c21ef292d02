import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitcoin import baselines, data_io, harness, losses
from implicitcoin.baselines import is_parameter_free
from implicitcoin.data_io import make_synthetic_regression, serialize_libsvm
from implicitcoin.harness import (DEFAULT_GRID, ExperimentConfig, RunRecord,
                                  emit_csv, prepare_repetition, read_csv, run_single,
                                  tune_and_run)
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

    def test_tuned_with_explicit_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ExperimentConfig(algorithm="sgd", epochs=1, repetitions=1, eta0_grid=())

    def test_grid_settled_at_construction(self):
        assert ExperimentConfig(algorithm="sgd").eta0_grid == DEFAULT_GRID
        assert ExperimentConfig(algorithm="aprox", eta0_grid=[1, 0.5]).eta0_grid == (1.0, 0.5)
        for algorithm in ("coin", "implicit-coin"):
            assert ExperimentConfig(algorithm=algorithm).eta0_grid == ()
            assert ExperimentConfig(algorithm=algorithm, eta0_grid=()).eta0_grid == ()

    @pytest.mark.parametrize("grid", [(math.nan,), (-1.0,), (0.0,), (math.inf, 1.0)])
    def test_grid_value_outside_positive_finite_rejected(self, grid):
        with pytest.raises(ValueError, match="positive and finite"):
            ExperimentConfig(algorithm="sgd", eta0_grid=grid)

    def test_basic_validation(self):
        with pytest.raises(ValueError, match="algorithm"):
            ExperimentConfig(algorithm="code")
        with pytest.raises(ValueError, match="epochs"):
            ExperimentConfig(algorithm="sgd", epochs=0)
        with pytest.raises(ValueError, match="format"):
            ExperimentConfig(algorithm="sgd", data_format="arff")

    @pytest.mark.parametrize("field,value", [
        ("epochs", 1.5), ("epochs", True), ("epochs", 2.0), ("repetitions", 2.5),
        ("repetitions", True), ("repetitions", 0), ("seed", -1), ("seed", 1.5),
        ("seed", np.True_), ("seed", "3")])
    def test_counts_and_seed_must_be_integers_in_range(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(algorithm="sgd", **{field: value})

    def test_numpy_integers_are_counts_and_seeds(self):
        cfg = ExperimentConfig(algorithm="coin", epochs=np.int64(2),
                               repetitions=np.uint8(1), seed=np.int32(0))
        assert (cfg.epochs, cfg.repetitions, cfg.seed) == (2, 1, 0)


@pytest.fixture(scope="module")
def tiny_libsvm(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.libsvm"
    path.write_text(serialize_libsvm(make_synthetic_regression(n=20, dim=2, seed=5)))
    return str(path)


COUNTS = st.one_of(st.integers(-1, 3), st.sampled_from(
    [1.5, 2.0, -0.0, math.nan, True, False, np.int64(2), np.uint8(1), np.True_, "2", None]))
SEEDS = st.one_of(st.integers(-2, 2**70), st.sampled_from(
    [1.5, -1.0, True, np.int64(3), np.uint64(7), np.int8(-1), "1", None]))


def is_count(value, least):
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(epochs=COUNTS, repetitions=COUNTS, seed=SEEDS)
def test_run_arguments_run_or_fail_before_the_data_are_read(tiny_libsvm, epochs,
                                                            repetitions, seed):
    # every draw either runs on the tiny file or raises ValueError before
    # load_dataset reads it
    valid = is_count(epochs, 1) and is_count(repetitions, 1) and is_count(seed, 0)
    with mock.patch.object(harness, "load_dataset", wraps=harness.load_dataset) as load:
        try:
            cfg = ExperimentConfig(algorithm="coin", data_path=tiny_libsvm, epochs=epochs,
                                   repetitions=repetitions, seed=seed)
            records = tune_and_run(cfg)
        except ValueError:
            assert not valid and load.call_count == 0
            return
    assert valid and load.call_count == 1
    assert len(records) == (repetitions + 1) * epochs


class TestRunSingle:
    def test_step_count_is_train_size_times_epochs(self, small_ds):
        cfg = ExperimentConfig(algorithm="implicit-coin", epochs=1, repetitions=1)
        calls = []
        base = eval_grad_fn("absolute")

        def counting(w, ex):
            calls.append(1)
            return base(w, ex)

        records = run_single(cfg, prepare_repetition(cfg, small_ds, 0), loss_fn=counting)
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
        prepared = prepare_repetition(cfg, small_ds, 0)
        records = run_single(cfg, prepared, eta0, loss_fn=watching)
        assert len(records) == 2 and len(writeable) == 2 * 42 and not any(writeable)
        again = run_single(cfg, prepared, eta0, loss_fn=copying)
        assert [dataclasses.replace(r, wall_ms=0.0) for r in records] == \
               [dataclasses.replace(r, wall_ms=0.0) for r in again]

    def test_deterministic(self, small_ds):
        cfg = ExperimentConfig(algorithm="cocob", epochs=2, repetitions=1, seed=11)
        a = run_single(cfg, prepare_repetition(cfg, small_ds, 0))
        b = run_single(cfg, prepare_repetition(cfg, small_ds, 0))
        for x, y in zip(a, b):
            assert (x.train_loss, x.val_loss, x.test_loss) == \
                   (y.train_loss, y.val_loss, y.test_loss)

    def test_no_overshoot_on_every_traced_round(self, small_ds):
        from implicitcoin.diagnostics import NoOvershootFold
        fold = NoOvershootFold()
        cfg = ExperimentConfig(algorithm="implicit-coin", epochs=2, repetitions=1)
        run_single(cfg, prepare_repetition(cfg, small_ds, 0), trace_cb=fold.update)
        report = fold.report()
        assert report.passed and report.rounds > 0

    def test_precondition_violation_aborts_with_round_index(self, small_ds):
        cfg = ExperimentConfig(algorithm="implicit-coin", epochs=1, repetitions=1)

        def oversized(w, ex):
            return 1.0, 2.0 * np.ones_like(w)  # norm 4: violates the unit bound

        with pytest.raises(harness.RunAborted, match="round 1") as err:
            run_single(cfg, prepare_repetition(cfg, small_ds, 0), loss_fn=oversized)
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
            run_single(cfg, prepare_repetition(cfg, small_ds, 0), eta0, loss_fn=poisoned)
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
            run_single(cfg, prepare_repetition(cfg, small_ds, 0), loss_fn=runaway)
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
        def fake_run(config, prepared, eta0=None, **kwargs):
            return [RunRecord(algorithm=config.algorithm, repetition=prepared.repetition,
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
    """The protocol as a plain loop of run_single calls, each on a
    repetition prepared for it alone: the reference for the shared
    preparation of tune_and_run."""
    selected = []
    for rep in range(cfg.repetitions):
        if not cfg.eta0_grid:
            selected.extend(run_single(cfg, prepare_repetition(cfg, ds, rep)))
            continue
        best = None
        for eta0 in sorted(cfg.eta0_grid):
            records = run_single(cfg, prepare_repetition(cfg, ds, rep), eta0)
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

        def counted_rows(fn):
            def wrapped(*args, **kwargs):
                examples = fn(*args, **kwargs)
                counts["example"] += len(examples)
                return examples
            return wrapped

        monkeypatch.setattr(data_io, "shuffle_split", counted("split", data_io.shuffle_split))
        monkeypatch.setattr(losses, "labeled_examples", counted_rows(losses.labeled_examples))
        # the batch builder binds the class itself, so a wrapper here sees no row
        monkeypatch.setattr(losses, "LabeledExample", counted("example", losses.LabeledExample))
        monkeypatch.setattr(harness, "run_single", counted("run", harness.run_single))
        cfg = ExperimentConfig(algorithm=algorithm, epochs=3, repetitions=2)
        tune_and_run(cfg, dataset=small_ds)
        assert counts == {"split": 2, "example": 2 * 42, "run": 2 * runs}


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
        prepared = prepare_repetition(cfg, ds, 0)
        assert prepared.threshold is not None
        labels = [ex.y for ex in prepared.examples]
        for y in (labels, prepared.val.y, prepared.test.y):
            assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_hinge_run_completes(self):
        ds = make_synthetic_regression(n=80, dim=3, seed=22)
        cfg = ExperimentConfig(algorithm="implicit-coin", task="classification",
                               epochs=2, repetitions=1)
        records = run_single(cfg, prepare_repetition(cfg, ds, 0))
        assert all(np.isfinite(r.test_loss) for r in records)


def test_metadata_file(tmp_path, small_ds):
    data = tmp_path / "ds.libsvm"
    data.write_text(serialize_libsvm(small_ds))
    cfg = ExperimentConfig(algorithm="sgd", data_path=str(data),
                           task="regression", epochs=1, repetitions=1)
    meta = tmp_path / "meta.txt"
    harness.write_metadata(cfg, meta, [None])
    text = meta.read_text()
    assert "split_prng=pcg64" in text
    assert "eta0_grid=0.0001" in text
    assert "selection=final-epoch" in text


def test_metadata_does_not_split_a_regression_task(tmp_path, small_ds, monkeypatch):
    for algorithm in ("sgd", "implicit-coin"):
        cfg = ExperimentConfig(algorithm=algorithm, task="regression", epochs=1,
                               repetitions=3)
        thresholds = []
        tune_and_run(cfg, dataset=small_ds, thresholds=thresholds)
        assert thresholds == [None] * 3

        def no_split(*args):
            raise AssertionError("write_metadata split a repetition")

        monkeypatch.setattr(data_io, "shuffle_split", no_split)
        harness.write_metadata(cfg, tmp_path / "meta.txt", thresholds)
        monkeypatch.undo()
        assert "binarize_threshold" not in (tmp_path / "meta.txt").read_text()


def test_metadata_thresholds_match_prepared_splits_without_splitting_again(
        tmp_path, monkeypatch):
    ds = make_synthetic_regression(n=80, dim=3, seed=21)
    cfg = ExperimentConfig(algorithm="implicit-coin", task="classification",
                           epochs=1, repetitions=3, seed=2)
    expected = [prepare_repetition(cfg, ds, rep).threshold for rep in range(3)]
    thresholds = []
    tune_and_run(cfg, dataset=ds, thresholds=thresholds)

    def no_split(*args):
        raise AssertionError("write_metadata split a repetition")

    monkeypatch.setattr(data_io, "shuffle_split", no_split)
    meta = tmp_path / "meta.txt"
    harness.write_metadata(cfg, meta, thresholds)
    lines = meta.read_text().splitlines()
    assert [f"binarize_threshold_rep{rep}={t!r}" for rep, t in enumerate(expected)] \
        == [ln for ln in lines if ln.startswith("binarize_threshold")]


class TestExampleStatistics:
    """The statistics an example carries change no number: run_single gives
    the records of a run whose steps never see the example, and a gradient
    that is not one of the example's own arrays is measured afresh."""

    @staticmethod
    def run(monkeypatch, algorithm, task, loss_fn=None, with_examples=True,
            trace_cb=None):
        """run_single's records (by repr, so -0.0 counts) and the learner's
        counters; without examples, every step is called as step(loss, g)."""
        make = baselines.make_algorithm
        learners = []

        def made(*args, **kwargs):
            learner = make(*args, **kwargs)
            if not with_examples:
                step = learner.step
                learner.step = lambda loss_value, g, ex=None: step(loss_value, g)
            learners.append(learner)
            return learner

        monkeypatch.setattr(baselines, "make_algorithm", made)
        ds = make_synthetic_regression(n=80, dim=5, seed=31)
        cfg = ExperimentConfig(algorithm=algorithm, task=task, epochs=2,
                               repetitions=1, seed=6)
        eta0 = None if is_parameter_free(algorithm) else 0.5
        try:
            records = run_single(cfg, prepare_repetition(cfg, ds, 0), eta0,
                                 loss_fn=loss_fn, trace_cb=trace_cb)
        finally:
            monkeypatch.undo()
        counters = {k: getattr(learners[0], k) for k in (
            "k", "t", "corner_rounds", "residual_evals", "grad_norm_warnings")
            if hasattr(learners[0], k)}
        return repr(without_wall(records)), counters

    @staticmethod
    def copies(algorithm, task, norm=None, poison_round=None):
        """An oracle whose gradient is a fresh array: the example's own, or
        scaled to the given norm in the unit bound the learner checks (the
        largest entry for cw-implicit-coin), or with a nan entry at one
        round."""
        oracle = losses.eval_grad_fn("hinge" if task == "classification" else "absolute")
        rounds = [0]

        def loss_fn(w, ex):
            loss, g = oracle(w, ex)
            rounds[0] += 1
            g = g.copy()
            if norm is not None and np.any(g):
                g *= norm / (np.max(np.abs(g)) if algorithm == "cw-implicit-coin"
                             else np.linalg.norm(g))
            if rounds[0] == poison_round:
                g[0] = np.nan
            return loss, g

        return loss_fn

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("algorithm", baselines.ALGORITHMS)
    def test_cached_and_measured_statistics_give_the_same_records(
            self, algorithm, task, monkeypatch):
        plain = self.run(monkeypatch, algorithm, task, with_examples=False)
        assert self.run(monkeypatch, algorithm, task) == plain
        assert self.run(monkeypatch, algorithm, task, self.copies(algorithm, task)) == plain

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("algorithm", baselines.ALGORITHMS)
    def test_a_modified_copy_is_measured_afresh(self, algorithm, task, monkeypatch):
        # just past the unit bound: the betting learners renormalise it
        just_past = 1.0 + 1e-12
        got = self.run(monkeypatch, algorithm, task, self.copies(algorithm, task, just_past))
        assert got == self.run(monkeypatch, algorithm, task,
                               self.copies(algorithm, task, just_past), with_examples=False)
        if algorithm.endswith("implicit-coin"):
            assert got[1]["grad_norm_warnings"] > 0
        # far past it (rejected by the betting learners), or a nan entry
        for bad in ({"norm": 2.0}, {"poison_round": 7}):
            outcomes = []
            for with_examples in (True, False):
                try:
                    outcomes.append(self.run(monkeypatch, algorithm, task,
                                             self.copies(algorithm, task, **bad),
                                             with_examples=with_examples))
                except harness.RunAborted as err:
                    outcomes.append((err.round_index, str(err)))
            assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 7  # the nan round is rejected

    @pytest.mark.parametrize("algorithm", ["implicit-coin", "cw-implicit-coin"])
    def test_traced_and_untraced_runs_agree_with_examples(self, algorithm, monkeypatch):
        def recorder(records):
            return lambda tr: records.append((tr.h, tr.wealth_after, tr.w_next.tobytes()))

        traced, plain = [], []
        got = self.run(monkeypatch, algorithm, "classification", trace_cb=recorder(traced))
        assert got == self.run(monkeypatch, algorithm, "classification")
        self.run(monkeypatch, algorithm, "classification", with_examples=False,
                 trace_cb=recorder(plain))
        assert traced == plain and any(h == 0.0 for h, _, _ in traced)
