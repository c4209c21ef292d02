import numpy as np
import pytest

from implicitcoin.data_io import (Dataset, SplitSpec, binarize_by_threshold,
                                  expected_shape, make_synthetic_regression,
                                  median_threshold, parse_csv, parse_libsvm,
                                  save_transform_record, serialize_libsvm,
                                  shuffle_split, standardize_then_unit_normalize)


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
        out, _, = standardize_then_unit_normalize(ds)[:1] + (None,)
        assert np.all(out.X[:, 0] == 0.0)

    def test_rows_have_unit_norm(self):
        ds = make_synthetic_regression(n=200, dim=6, seed=9)
        out, rec = standardize_then_unit_normalize(ds)
        norms = np.linalg.norm(out.X, axis=1)
        nonzero = norms > 0
        assert np.all(np.abs(norms[nonzero] - 1.0) <= 1e-12)

    def test_train_statistics_reused_on_test(self):
        train = Dataset(X=np.array([[0.0], [2.0]]), y=np.zeros(2), task="regression")
        test = Dataset(X=np.array([[4.0]]), y=np.zeros(1), task="regression")
        tr, te, rec = standardize_then_unit_normalize(train, test)
        # train mean 1, std 1: the test row standardizes to 3, normalizes to 1
        assert rec.mean[0] == 1.0 and rec.std[0] == 1.0
        assert te.X[0, 0] == 1.0  # sign survives row normalization

    def test_empty_train_rejected(self):
        ds = Dataset(X=np.zeros((0, 2)), y=np.zeros(0), task="regression")
        with pytest.raises(ValueError, match="empty"):
            standardize_then_unit_normalize(ds)


class TestSplit:
    def test_sizes_70_15_15(self):
        ds = make_synthetic_regression(n=100, dim=3, seed=1)
        train, val, test = shuffle_split(ds, SplitSpec(seed=4))
        assert (len(train), len(val), len(test)) == (70, 15, 15)

    def test_deterministic_and_repetition_changes(self):
        ds = make_synthetic_regression(n=50, dim=3, seed=1)
        a1 = shuffle_split(ds, SplitSpec(seed=4, repetition=1))
        a2 = shuffle_split(ds, SplitSpec(seed=4, repetition=1))
        assert all(x == y for x, y in zip(a1, a2))
        seen = set()
        for rep in range(3):
            train, _, _ = shuffle_split(ds, SplitSpec(seed=4, repetition=rep))
            seen.add(tuple(train.y.tolist()))
        assert len(seen) == 3  # three repetitions, three different shuffles

    def test_partition_covers_and_is_disjoint(self):
        ds = make_synthetic_regression(n=97, dim=2, seed=2)
        key = ds.X[:, 0] + 1e-6 * ds.X[:, 1]
        train, val, test = shuffle_split(ds, SplitSpec(seed=8))
        combined = np.concatenate([train.X[:, 0] + 1e-6 * train.X[:, 1],
                                   val.X[:, 0] + 1e-6 * val.X[:, 1],
                                   test.X[:, 0] + 1e-6 * test.X[:, 1]])
        assert sorted(combined.tolist()) == sorted(key.tolist())

    def test_too_small_rejected(self):
        ds = Dataset(X=np.zeros((5, 1)), y=np.zeros(5), task="regression")
        with pytest.raises(ValueError, match="small"):
            shuffle_split(ds, SplitSpec(seed=0))


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

    def test_transform_record_saved(self, tmp_path):
        ds = make_synthetic_regression(n=30, dim=2, seed=3)
        out, rec = standardize_then_unit_normalize(ds)
        rec.seed, rec.repetition, rec.binarize_threshold = 7, 1, 0.25
        path = tmp_path / "record.txt"
        save_transform_record(rec, path)
        text = path.read_text()
        assert "prng=pcg64" in text and "seed=7" in text
        assert "binarize_threshold=0.25" in text
        assert text.count(",") >= 2  # mean and std vectors


def test_preprocessed_gradients_satisfy_unit_bound():
    from implicitcoin.losses import LabeledExample, absolute_eval_grad
    ds = make_synthetic_regression(n=60, dim=4, seed=12)
    out, _ = standardize_then_unit_normalize(ds)
    rng = np.random.default_rng(1)
    for i in range(len(out)):
        w = rng.normal(size=4)
        _, g = absolute_eval_grad(w, LabeledExample(out.X[i], out.y[i]))
        assert np.linalg.norm(g) <= 1.0 + 1e-12
