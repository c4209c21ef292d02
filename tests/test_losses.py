import math
import pickle

import numpy as np
import pytest

from implicitcoin import baselines, losses
from implicitcoin.losses import (LabeledExample, absolute_eval_grad,
                                 eval_grad_fn, hinge_eval_grad, labeled_examples,
                                 mean_loss)
from reference import reference_absolute_eval_grad, reference_hinge_eval_grad


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestHinge:
    def test_zero_predictor_margin_is_one(self):
        x = unit([3.0, 4.0])
        loss, grad = hinge_eval_grad(np.zeros(2), LabeledExample(x, 1.0))
        assert loss == 1.0
        np.testing.assert_array_equal(grad, -x)

    def test_inactive_hinge(self):
        x = np.array([1.0, 0.0])
        w = np.array([2.0, 0.0])  # y<w,x> = 2
        loss, grad = hinge_eval_grad(w, LabeledExample(x, 1.0))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_negative_label_direct_evaluation(self):
        x = unit([1.0, 2.0])
        w = 0.5 * x
        loss, grad = hinge_eval_grad(w, LabeledExample(x, -1.0))
        assert loss == pytest.approx(1.5, abs=1e-15)
        np.testing.assert_allclose(grad, x)

    def test_exact_margin_gives_zero_subgradient(self):
        x = np.array([1.0])
        loss, grad = hinge_eval_grad(np.array([1.0]), LabeledExample(x, 1.0))
        assert loss == 0.0
        assert grad[0] == 0.0

    def test_rejects_non_binary_target(self):
        with pytest.raises(ValueError, match="-1"):
            hinge_eval_grad(np.zeros(1), LabeledExample(np.ones(1), 0.5))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hinge_eval_grad(np.zeros(3), LabeledExample(np.ones(2), 1.0))


class TestAbsolute:
    def test_zero_predictor(self):
        x = unit([1.0, 1.0])
        loss, grad = absolute_eval_grad(np.zeros(2), LabeledExample(x, 10.0))
        assert loss == 10.0
        np.testing.assert_array_equal(grad, -x)

    def test_at_minimum(self):
        x = np.array([1.0, 0.0])
        w = np.array([2.5, 7.0])
        loss, grad = absolute_eval_grad(w, LabeledExample(x, 2.5))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_direct_evaluation(self):
        x = np.array([1.0, 0.0])
        w = np.array([2.0, 0.0])
        loss, grad = absolute_eval_grad(w, LabeledExample(x, 0.5))
        assert loss == pytest.approx(1.5, abs=1e-15)
        np.testing.assert_array_equal(grad, x)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            absolute_eval_grad(np.zeros(1), LabeledExample(np.ones(2), 1.0))


class TestExampleOwnedGradients:
    """The oracles hand out the example's own read-only x, -x and zeros."""

    CASES = [(hinge_eval_grad, reference_hinge_eval_grad),
             (absolute_eval_grad, reference_absolute_eval_grad)]

    @pytest.mark.parametrize("fn,ref", CASES)
    def test_bit_equal_to_per_call_gradients_and_read_only(self, fn, ref):
        rng = np.random.default_rng(17)
        branches = set()
        for _ in range(3000):
            d = int(rng.integers(1, 6))
            x = rng.normal(size=d) * rng.uniform(0.0, 1.0, size=d)
            x[rng.uniform(size=d) < 0.2] = 0.0  # zero entries keep their sign
            x[rng.uniform(size=d) < 0.1] = -0.0
            if fn is hinge_eval_grad:
                y = float(rng.choice([-1.0, 1.0]))
            else:
                y = float(rng.normal()) if rng.uniform() < 0.8 else 0.0
            ex = LabeledExample(x, y)
            w = rng.normal(size=d) * 3.0 if rng.uniform() < 0.8 else np.zeros(d)
            loss, g = fn(w, ex)
            ref_loss, ref_g = ref(w, ex)
            assert loss == ref_loss
            assert g.dtype == ref_g.dtype and g.shape == ref_g.shape
            assert g.tobytes() == ref_g.tobytes()
            assert not g.flags.writeable
            assert any(g is a for a in (ex.x, ex.neg_x, ex.zero))
            branches.add(next(k for k, a in enumerate((ex.x, ex.neg_x, ex.zero)) if g is a))
            with pytest.raises(ValueError, match="read-only"):
                g[0] = 1.0
        assert branches == {0, 1, 2}

    @pytest.mark.parametrize("fn", [hinge_eval_grad, absolute_eval_grad])
    def test_repeated_calls_return_the_same_objects(self, fn):
        ex = LabeledExample(np.array([0.6, -0.8]), -1.0)
        for w in (np.zeros(2), np.array([-5.0, 5.0]), np.array([5.0, -5.0])):
            first = fn(w, ex)[1]
            assert all(fn(w, ex)[1] is first for _ in range(3))

    def test_the_example_owns_its_arrays(self):
        x = np.array([0.6, -0.8])
        ex = LabeledExample(x, 1.0)
        x[0] = 9.0  # the caller's array stays writeable and apart
        assert ex.x.tobytes() == np.array([0.6, -0.8]).tobytes()
        assert ex.neg_x.tobytes() == (-ex.x).tobytes()
        assert ex.zero.tobytes() == np.zeros(2).tobytes()
        assert not any(a.flags.writeable for a in (ex.x, ex.neg_x, ex.zero))

    def test_built_from_a_list(self):
        ex = LabeledExample([1, 2], 1)
        assert ex.x.dtype == np.float64 and ex.y == 1.0
        assert hinge_eval_grad(np.zeros(2), ex)[1] is ex.neg_x


class TestLabeledExamples:
    """The batch builder: one read-only copy of X, -X once and one shared
    zero row, each example bit for bit LabeledExample(x, y)."""

    def test_bit_equal_to_one_example_per_row(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 5))
        X[rng.uniform(size=X.shape) < 0.2] = 0.0
        X[rng.uniform(size=X.shape) < 0.1] = -0.0
        y = rng.choice([-1.0, 1.0], size=40)
        batch = labeled_examples(X, y)
        assert len(batch) == 40
        for ex, x, t in zip(batch, X, y):
            one = LabeledExample(x, t)
            assert type(ex) is LabeledExample and type(ex.y) is float and ex.y == one.y
            for name in ("x", "neg_x", "zero", "abs_x"):
                a, b = getattr(ex, name), getattr(one, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            for name in ("sq_norm", "abs_max"):
                a, b = getattr(ex, name), getattr(one, name)
                assert type(a) is type(b) is float and a.hex() == b.hex()
            for fn in (hinge_eval_grad, absolute_eval_grad):
                w = rng.normal(size=5)
                got, want = fn(w, ex), fn(w, one)
                assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
        assert all(ex.zero is batch[0].zero for ex in batch)

    def test_copies_the_matrix_once(self):
        X = np.array([[0.6, -0.8], [1.0, 0.0]])
        batch = labeled_examples(X, [1, -1])
        X[0, 0] = 9.0  # the caller's matrix stays writeable and apart
        assert batch[0].x.tobytes() == np.array([0.6, -0.8]).tobytes()
        assert batch[0].x.base is batch[1].x.base
        assert batch[1].y == -1.0
        assert labeled_examples([[1, 2]], [1])[0].x.dtype == np.float64

    def test_a_wrapped_class_attribute_leaves_the_builder_alone(self, monkeypatch):
        # a tracer or a counting test may replace losses.LabeledExample
        monkeypatch.setattr(losses, "LabeledExample", lambda x, y: None)
        assert type(labeled_examples(np.eye(2), [1.0, -1.0])[0]) is LabeledExample

    @pytest.mark.parametrize("X,y", [(np.zeros(3), [1.0, 1.0, 1.0]),
                                     (np.zeros((3, 2)), [1.0, 1.0])])
    def test_rejects_a_bad_shape(self, X, y):
        with pytest.raises(ValueError, match="one target per row"):
            labeled_examples(X, y)


def bits(value):
    """A float's bits, with every nan alike."""
    return "nan" if math.isnan(value) else value.hex()


class TestInputStatistics:
    """An example's cached statistics are, bit for bit, what a step computes
    from its gradients, and a step handed the example behaves as one that
    measures g itself: a zero row plays a zero round, a nan row raises the
    same error, and an example of another dimension raises before any state
    changes."""

    @staticmethod
    def rows(d):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(30, d)) * rng.uniform(1e-3, 10.0, size=(30, 1))
        X[rng.uniform(size=X.shape) < 0.2] = -0.0
        X[3] = 0.0                       # a zero feature row
        X[5, d // 2] = 5e-324            # a subnormal entry
        X[7, -1] = np.nan
        X[8, 0] = -np.inf
        X[9:11] = 0.0
        X[9, 0] = 2.0                    # past the unit bound
        X[10, -1] = 1.0 + 1e-12          # just past it: renormalised
        return X, np.where(rng.uniform(size=30) < 0.5, 1.0, -1.0)

    def test_features_must_be_a_vector(self):
        with pytest.raises(ValueError, match="1-d vector"):
            LabeledExample(np.eye(2), 1.0)

    @pytest.mark.parametrize("d", [1, 4, 21])
    @pytest.mark.parametrize("batch", [True, False])
    def test_cached_values_are_the_per_round_values(self, d, batch):
        X, y = self.rows(d)
        examples = (labeled_examples(X, y) if batch
                    else [LabeledExample(x, t) for x, t in zip(X, y)])
        for ex in examples:
            for g in (ex.x, ex.neg_x):
                ag = np.abs(g)
                assert bits(ex.sq_norm) == bits(float(g.dot(g)))
                assert ex.abs_x.tobytes() == ag.tobytes() and not ex.abs_x.flags.writeable
                assert bits(ex.abs_max) == bits(float(ag[ag.argmax()]))
        assert examples[3].sq_norm == examples[3].abs_max == 0.0

    @pytest.mark.parametrize("name", baselines.ALGORITHMS)
    @pytest.mark.parametrize("batch", [True, False])
    def test_a_step_with_the_example_is_a_step_without_it(self, name, batch):
        d = 4
        X, y = self.rows(d)
        X[:3] /= np.linalg.norm(X[:3], axis=1)[:, None]  # rows the learners accept
        examples = (labeled_examples(X, y) if batch
                    else [LabeledExample(x, t) for x, t in zip(X, y)])
        eta0 = None if baselines.is_parameter_free(name) else 0.5
        cached, measured = (baselines.make_algorithm(name, d, eta0=eta0) for _ in range(2))
        for ex in examples[:3]:
            for g in (ex.x, ex.neg_x, ex.zero):
                w = cached.step(0.25, g, ex)
                assert w.tobytes() == measured.step(0.25, g).tobytes()
        state = pickle.dumps(vars(cached))
        for other in (LabeledExample(X[0, :d - 1], 1.0), LabeledExample(X[[0, 0]].ravel(), 1.0)):
            for g in (other.x, other.neg_x, other.zero):
                with pytest.raises(ValueError, match="shape"):
                    cached.step(0.25, g, other)
        assert pickle.dumps(vars(cached)) == state
        zero_row = examples[3]
        for g in (zero_row.x, zero_row.neg_x, zero_row.zero):
            w_next = cached.step(0.25, g, zero_row)
            assert w_next.tobytes() == measured.step(0.25, g).tobytes() == w.tobytes()
            if hasattr(cached, "beta"):  # a betting learner returns its held iterate
                assert w_next is w
        for ex in examples[7:11]:
            for g in (ex.x, ex.neg_x):
                try:
                    got = cached.step(0.25, g, ex).tobytes()
                except ValueError as err:
                    got = str(err)
                try:
                    want = measured.step(0.25, g).tobytes()
                except ValueError as err:
                    want = str(err)
                assert got == want
        assert cached.predict().tobytes() == measured.predict().tobytes()
        if hasattr(cached, "beta"):
            assert cached.grad_norm_warnings == measured.grad_norm_warnings == 2


class TestOracleInputConversion:
    """w is converted only when it is not a float64 ndarray, and every other
    input still is."""

    @pytest.mark.parametrize("fn", [hinge_eval_grad, absolute_eval_grad])
    @pytest.mark.parametrize("w,convert", [
        ([0.1, -0.3], lambda w: w.tolist()),
        ([2.0, -1.0], lambda w: w.astype(np.int64)),
        ([0.1, -0.3], lambda w: w.astype(np.float32)),
    ], ids=["list", "int", "float32"])
    def test_converted_iterates_give_the_result_of_their_float64_values(self, fn, w,
                                                                       convert):
        ex = LabeledExample(np.array([0.6, -0.8]), -1.0)
        w = convert(np.array(w))
        got, want = fn(w, ex), fn(np.asarray(w, dtype=np.float64), ex)
        assert got[0] == want[0] and got[1] is want[1]

    @pytest.mark.parametrize("fn", [hinge_eval_grad, absolute_eval_grad])
    @pytest.mark.parametrize("w", [[0.1, 0.2, 0.3], np.zeros(3, dtype=np.float32)])
    def test_dimension_mismatch_still_raises(self, fn, w):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fn(w, LabeledExample(np.array([0.6, -0.8]), 1.0))


def test_subgradient_inequality_fuzz():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        d = rng.integers(1, 6)
        x = unit(rng.normal(size=d)) * rng.uniform(0.1, 1.0)
        w, w2 = rng.normal(size=d) * 3, rng.normal(size=d) * 3
        for fn, y in ((hinge_eval_grad, float(rng.choice([-1.0, 1.0]))),
                      (absolute_eval_grad, float(rng.normal() * 5))):
            ex = LabeledExample(x, y)
            loss, grad = fn(w, ex)
            loss2, _ = fn(w2, ex)
            assert loss2 >= loss + grad @ (w2 - w) - 1e-12


def test_gradient_norm_bounded_by_feature_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = unit(rng.normal(size=4))
        w = rng.normal(size=4) * 2
        for fn, y in ((hinge_eval_grad, 1.0), (absolute_eval_grad, 0.3)):
            _, grad = fn(w, LabeledExample(x, y))
            assert np.linalg.norm(grad) <= np.linalg.norm(x) + 1e-12 <= 1 + 2e-12


def test_infimum_is_zero_at_scaled_feature():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.normal(size=3)
        y = float(rng.choice([-1.0, 1.0]))
        w_star = y * x / (x @ x)
        assert hinge_eval_grad(w_star, LabeledExample(x, y))[0] <= 1e-12
        y_reg = float(rng.normal() * 4)
        w_star = y_reg * x / (x @ x)
        loss, _ = absolute_eval_grad(w_star, LabeledExample(x, y_reg))
        assert loss <= 1e-12


def test_mean_loss_matches_pointwise():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    w = rng.normal(size=4)
    y_clf = rng.choice([-1.0, 1.0], size=50)
    y_reg = rng.normal(size=50)
    hinge = np.mean([hinge_eval_grad(w, LabeledExample(X[i], y_clf[i]))[0]
                     for i in range(50)])
    absd = np.mean([absolute_eval_grad(w, LabeledExample(X[i], y_reg[i]))[0]
                    for i in range(50)])
    assert mean_loss("hinge", w, X, y_clf) == pytest.approx(hinge, rel=1e-12)
    assert mean_loss("absolute", w, X, y_reg) == pytest.approx(absd, rel=1e-12)


@pytest.mark.parametrize("n", [1, 7, 150, 1000])
def test_mean_loss_is_bit_identical_to_np_mean(n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 5))
    w = rng.normal(size=5)
    y_clf = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    y_reg = rng.normal(size=n) * 1e3
    p = X @ w
    assert mean_loss("hinge", w, X, y_clf) == float(np.mean(np.maximum(0.0, 1.0 - y_clf * p)))
    assert mean_loss("absolute", w, X, y_reg) == float(np.mean(np.abs(p - y_reg)))


def test_mean_loss_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        mean_loss("absolute", np.zeros(2), np.zeros((0, 2)), np.zeros(0))


def test_eval_grad_fn_lookup():
    assert eval_grad_fn("hinge") is hinge_eval_grad
    assert eval_grad_fn("absolute") is absolute_eval_grad
    with pytest.raises(ValueError):
        eval_grad_fn("logistic")
