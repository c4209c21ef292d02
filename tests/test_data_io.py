import math

import numpy as np
import pytest

from implicitcoin.data_io import (Dataset, binarize_by_threshold,
                                  make_synthetic_regression, median_threshold,
                                  parse_csv, parse_libsvm, serialize_libsvm,
                                  shuffle_split, standardize_then_unit_normalize)
from reference import expected_shape, reference_parse_libsvm


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm("1 1:0.5 3:-2\n")
        assert ds.n_features == 3
        assert ds.y[0] == 1.0
        np.testing.assert_array_equal(ds.X[0], [0.5, 0.0, -2.0])

    def test_label_only_line(self):
        ds = parse_libsvm("-1\n")
        assert ds.y[0] == -1.0
        assert ds.X.shape == (1, 0)

    def test_scientific_notation(self):
        ds = parse_libsvm("+1 2:1e-3\n")
        assert ds.X[0, 1] == 1e-3

    def test_zero_one_labels_mapped(self):
        ds = parse_libsvm("0 1:1\n1 1:2\n")
        np.testing.assert_array_equal(ds.y, [-1.0, 1.0])

    def test_one_two_labels_mapped(self):
        ds = parse_libsvm("1 1:1\n2 1:2\n")
        np.testing.assert_array_equal(ds.y, [-1.0, 1.0])

    def test_regression_labels_kept_raw(self):
        ds = parse_libsvm("0.25 1:1\n7 1:2\n", task="regression")
        np.testing.assert_array_equal(ds.y, [0.25, 7.0])

    def test_malformed_label_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_libsvm("1 1:1\nxyz 1:1\n")

    def test_malformed_token_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_libsvm("1 1:abc\n")

    def test_non_ascending_indices_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            parse_libsvm("1 3:1 2:1\n")
        with pytest.raises(ValueError, match="ascending"):
            parse_libsvm("1 0:1\n")

    @pytest.mark.parametrize("text,where", [
        ("1 1:nan 2:inf\n2 1:1 2:2\n", "line 1: non-finite value nan in feature 1"),
        ("1 1:1\n\n2 1:2 3:-inf\n", "line 3: non-finite value -inf in feature 3"),
        ("1 1:1\ninf 1:2\n", "line 2: non-finite target inf"),
        ("1 1:1\nNaN\n", "line 2: non-finite target nan"),
    ])
    def test_non_finite_cells_rejected_with_line(self, text, where):
        with pytest.raises(ValueError, match=where):
            parse_libsvm(text, task="regression")

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        X = np.where(rng.random((20, 6)) < 0.4, rng.normal(size=(20, 6)), 0.0)
        X[:, -1] = 1.0  # keep n_features stable under sparsification
        y = rng.choice([-1.0, 1.0], size=20)
        ds = Dataset(X=X, y=y, task="classification")
        again = parse_libsvm(serialize_libsvm(ds))
        assert again == ds


class TestParseLibsvmVectorised:
    """The batch parse against the token-by-token reference parser."""

    def test_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(23)
        scale = 10.0 ** rng.integers(-300, 300, size=(40, 9))
        X = np.where(rng.random((40, 9)) < 0.5, rng.normal(size=(40, 9)) * scale, 0.0)
        X[:, -1] = -0.5e-310  # subnormal, and a stable feature count
        X[3] = 0.0
        X[3, -1] = 1.0
        y = rng.normal(size=40)
        ds = Dataset(X=X, y=y, task="regression")
        text = serialize_libsvm(ds)
        again = parse_libsvm(text, task="regression")
        assert again.X.tobytes() == X.tobytes() and again.y.tobytes() == y.tobytes()
        ref_X, ref_y = reference_parse_libsvm(text)
        assert again.X.tobytes() == ref_X.tobytes() and again.y.tobytes() == ref_y.tobytes()

    def test_literals_that_float_and_int_accept(self):
        text = "+1 1:1e-3 2:+1 3:1_000.5 4:-0.0\n-1 0_2:.5 1_0:2E+3\n\n  \t\n+1\t4:7\r\n"
        ds = parse_libsvm(text, task="regression")
        ref_X, ref_y = reference_parse_libsvm(text)
        assert ds.X.tobytes() == ref_X.tobytes() and ds.y.tobytes() == ref_y.tobytes()
        assert ds.X.shape == (3, 10)
        assert ds.X[0, 0] == 1e-3 and ds.X[0, 1] == 1.0 and ds.X[0, 2] == 1000.5
        assert math.copysign(1.0, ds.X[0, 3]) == -1.0
        assert ds.X[1, 1] == 0.5 and ds.X[1, 9] == 2000.0 and ds.X[2, 3] == 7.0

    @pytest.mark.parametrize("text", [
        "1 5 1:2:3\n",          # colon counts balance, the pairs do not
        "1 1:2:3 5\n",
        "1 1:1\n2 2:1 7\n",
        "1 1:1 :2\n",
        "1 1:1 2:\n",
        "1 1:1 1_:2\n",
        "1 1:1 2:1_\n",
        "1 2:1 2:1\n",
        "1 1:1\n1 3:1 1:1\n",
        "1 0:1\n",
        "1 -1:1\n",
        "1 1:1\n1:0 1:1\n",
        "1 1:1\n1 1:1 2:1\nx 2:3:4\n",
        "1 1:\udcff\n",
    ])
    def test_errors_match_the_reference(self, text):
        with pytest.raises(ValueError) as ref:
            reference_parse_libsvm(text)
        with pytest.raises(ValueError, match=r"^line \d+: ") as got:
            parse_libsvm(text)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("bad_line,bad", [
        (None, None), (1, "x"), (1000, "1:2:3"), (1999, "7:1 3:1"), (2000, "5")])
    def test_many_batches_match_the_reference(self, bad_line, bad):
        # 2,000 lines of 1 to 9 tokens span several conversion batches; an
        # error in a late batch still names its line
        rng = np.random.default_rng(37)
        lines = []
        for i in range(1, 2001):
            cols = np.sort(rng.choice(np.arange(1, 30), size=int(rng.integers(1, 10)),
                                      replace=False))
            toks = [f"{j}:{rng.normal()!r}" for j in cols]
            if i == bad_line:
                toks.append(bad)
            lines.append(" ".join([repr(float(rng.choice([-1.0, 1.0])))] + toks))
        text = "\n".join(lines) + "\n"
        if bad is None:
            ref_X, ref_y = reference_parse_libsvm(text)
            ds = parse_libsvm(text)
            assert ds.X.tobytes() == ref_X.tobytes() and ds.y.tobytes() == ref_y.tobytes()
            return
        with pytest.raises(ValueError) as ref:
            reference_parse_libsvm(text)
        with pytest.raises(ValueError, match=f"^line {bad_line}: ") as got:
            parse_libsvm(text)
        assert str(got.value) == str(ref.value)

    def test_fuzzed_lines_match_the_reference(self):
        rng = np.random.default_rng(31)
        atoms = ["1", "2", "3", "10", "0", "-1", "+1", "1e-3", "1_0", ".5", "x", ":",
                 "1:2", "", "1.5", "-0.0"]
        for _ in range(2000):
            lines = []
            for _ in range(int(rng.integers(1, 4))):
                toks, k = [str(rng.choice(atoms[:8]))], 0
                for _ in range(int(rng.integers(0, 5))):
                    if rng.uniform() < 0.8:
                        k += int(rng.integers(1, 3)) if rng.uniform() < 0.9 else -1
                        toks.append(f"{k}:{rng.choice(atoms[:10])}")
                    else:
                        toks.append("".join(rng.choice(atoms, size=int(rng.integers(1, 3)))) or "1")
                lines.append(" ".join(toks))
            text = "\n".join(lines) + "\n"
            try:
                ref_X, ref_y = reference_parse_libsvm(text)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    parse_libsvm(text, task="regression")
                assert str(got.value) == str(err)
                continue
            if not (np.isfinite(ref_X).all() and np.isfinite(ref_y).all()):
                continue
            ds = parse_libsvm(text, task="regression")
            assert ds.X.tobytes() == ref_X.tobytes() and ds.y.tobytes() == ref_y.tobytes()


class TestParseCsv:
    def test_numeric_columns(self):
        ds = parse_csv("a,b,target\n1,2,0.5\n3,4,0.7\n", "target", "regression")
        assert ds.n_features == 2
        np.testing.assert_array_equal(ds.y, [0.5, 0.7])
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_one_hot_first_appearance_order(self):
        text = "color,target\nred,1\nblue,0\ngreen,1\nblue,0\n"
        ds = parse_csv(text, "target", "classification")
        assert ds.feature_names == ("color=red", "color=blue", "color=green")
        np.testing.assert_array_equal(ds.X[:, 0], [1, 0, 0, 0])
        np.testing.assert_array_equal(ds.X[:, 1], [0, 1, 0, 1])
        np.testing.assert_array_equal(ds.y, [1.0, -1.0, 1.0, -1.0])

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            parse_csv("a,b\n1,2\n", "target", "regression")

    def test_ragged_row_reports_number(self):
        with pytest.raises(ValueError, match="row 3"):
            parse_csv("a,target\n1,2\n1\n", "target", "regression")

    @pytest.mark.parametrize("text,where", [
        ("a,b,target\n1,2,3\n4,nan,5\n", "row 3: non-finite value nan in column 'b'"),
        ("c,a,target\nx,1,2\n\ny,-inf,2\n", "row 4: non-finite value -inf in column 'a'"),
        ("a,target\n1,inf\n", "row 2: non-finite target inf"),
        ("a,target\n1,2\n3,NaN\n", "row 3: non-finite target nan"),
    ])
    def test_non_finite_cells_rejected_with_row(self, text, where):
        with pytest.raises(ValueError, match=where):
            parse_csv(text, "target", "regression")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("", "target", "regression")
        with pytest.raises(ValueError, match="no data"):
            parse_csv("a,target\n", "target", "regression")


class TestPreprocessing:
    def test_constant_feature_becomes_zero(self):
        X = np.column_stack([np.full(20, 5.0), np.arange(20.0)])
        ds = Dataset(X=X, y=np.zeros(20), task="regression")
        out, = standardize_then_unit_normalize(ds)
        assert np.all(out.X[:, 0] == 0.0)

    def test_rows_have_unit_norm(self):
        ds = make_synthetic_regression(n=200, dim=6, seed=9)
        out, = standardize_then_unit_normalize(ds)
        norms = np.linalg.norm(out.X, axis=1)
        nonzero = norms > 0
        assert np.all(np.abs(norms[nonzero] - 1.0) <= 1e-12)

    def test_train_statistics_reused_on_test(self):
        train = Dataset(X=np.array([[0.0], [2.0]]), y=np.zeros(2), task="regression")
        test = Dataset(X=np.array([[4.0]]), y=np.zeros(1), task="regression")
        tr, te = standardize_then_unit_normalize(train, test)
        # train mean 1, std 1: the train rows standardize to -1 and 1, the
        # test row to 3, which normalizes to 1 (its own statistics give 0)
        np.testing.assert_array_equal(tr.X, [[-1.0], [1.0]])
        assert te.X[0, 0] == 1.0  # sign survives row normalization

    def test_empty_train_rejected(self):
        ds = Dataset(X=np.zeros((0, 2)), y=np.zeros(0), task="regression")
        with pytest.raises(ValueError, match="empty"):
            standardize_then_unit_normalize(ds)


class TestSplit:
    def test_sizes_70_15_15(self):
        ds = make_synthetic_regression(n=100, dim=3, seed=1)
        train, val, test = shuffle_split(ds, 4)
        assert (len(train), len(val), len(test)) == (70, 15, 15)

    def test_deterministic_and_repetition_changes(self):
        ds = make_synthetic_regression(n=50, dim=3, seed=1)
        a1 = shuffle_split(ds, 4, 1)
        a2 = shuffle_split(ds, 4, 1)
        assert all(x == y for x, y in zip(a1, a2))
        seen = set()
        for rep in range(3):
            train, _, _ = shuffle_split(ds, 4, rep)
            seen.add(tuple(train.y.tolist()))
        assert len(seen) == 3  # three repetitions, three different shuffles

    def test_partition_covers_and_is_disjoint(self):
        ds = make_synthetic_regression(n=97, dim=2, seed=2)
        key = ds.X[:, 0] + 1e-6 * ds.X[:, 1]
        train, val, test = shuffle_split(ds, 8)
        combined = np.concatenate([train.X[:, 0] + 1e-6 * train.X[:, 1],
                                   val.X[:, 0] + 1e-6 * val.X[:, 1],
                                   test.X[:, 0] + 1e-6 * test.X[:, 1]])
        assert sorted(combined.tolist()) == sorted(key.tolist())

    def test_too_small_rejected(self):
        ds = Dataset(X=np.zeros((5, 1)), y=np.zeros(5), task="regression")
        with pytest.raises(ValueError, match="small"):
            shuffle_split(ds, 0)

    def test_negative_repetition_rejected(self):
        ds = make_synthetic_regression(n=20, dim=1, seed=1)
        with pytest.raises(ValueError, match="repetition must be >= 0"):
            shuffle_split(ds, 0, -1)


class TestBinarization:
    def test_median_threshold_split(self):
        ds = Dataset(X=np.zeros((5, 1)), y=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                     task="regression")
        thr = median_threshold(ds.y)
        assert thr == 3.0
        out = binarize_by_threshold(ds, thr)
        np.testing.assert_array_equal(out.y, [-1, -1, -1, 1, 1])
        assert out.task == "classification"


class TestMetadata:
    def test_expected_shape_lookup(self):
        assert expected_shape("Bank32nh") == ("regression", 8192, 32)
        assert expected_shape("houses-8l") == ("regression", 22784, 8)
        with pytest.raises(ValueError):
            expected_shape("unknown")

    def test_table_shape_verified_on_matching_file(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8192, 32))
        ds = Dataset(X=X, y=rng.normal(size=8192), task="regression", name="bank32nh")
        path = tmp_path / "bank32nh.libsvm"
        path.write_text(serialize_libsvm(ds))
        parsed = parse_libsvm(path.read_text(), task="regression", name="bank32nh")
        task, n, d = expected_shape(parsed.name)
        assert (parsed.task, len(parsed), parsed.n_features) == (task, n, d)


def test_preprocessed_gradients_satisfy_unit_bound():
    from implicitcoin.losses import LabeledExample, absolute_eval_grad
    ds = make_synthetic_regression(n=60, dim=4, seed=12)
    out, = standardize_then_unit_normalize(ds)
    rng = np.random.default_rng(1)
    for i in range(len(out)):
        w = rng.normal(size=4)
        _, g = absolute_eval_grad(w, LabeledExample(out.X[i], out.y[i]))
        assert np.linalg.norm(g) <= 1.0 + 1e-12
