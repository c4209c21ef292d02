import numpy as np
import pytest

from implicitcoin.losses import (LabeledExample, absolute_eval_grad,
                                 eval_grad_fn, hinge_eval_grad, mean_loss)


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
