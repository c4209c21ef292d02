import numpy as np
import pytest

from implicitcoin.losses import LabeledExample, absolute_eval_grad, hinge_eval_grad
from implicitcoin.truncated import (TruncatedModel, linear_residual, make_pair,
                                    model_eval)


def model_1d(anchor=0.0, grad=-1.0, loss=10.0):
    return TruncatedModel(anchor=np.array([anchor]), grad=np.array([grad]),
                          loss_at_anchor=loss)


class TestModelEval:
    def test_value_at_anchor(self):
        m = model_1d(loss=3.5)
        assert model_eval(m, np.array([0.0])) == 3.5

    def test_clamped_on_flat_part(self):
        assert model_eval(model_1d(), np.array([20.0])) == 0.0

    def test_linear_part(self):
        assert model_eval(model_1d(), np.array([4.0])) == 6.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            model_eval(model_1d(), np.zeros(2))

    def test_rejects_negative_anchor_loss(self):
        with pytest.raises(ValueError, match=">= 0"):
            TruncatedModel(anchor=np.zeros(1), grad=np.ones(1), loss_at_anchor=-1.0)


class TestLinearResidual:
    def test_at_anchor(self):
        assert linear_residual(model_1d(loss=7.0), np.array([0.0])) == 7.0

    def test_corner_by_construction(self):
        assert linear_residual(model_1d(), np.array([10.0])) == 0.0

    def test_hand_evaluation(self):
        r = linear_residual(model_1d(), np.array([1.0 / 3.0]))
        assert r == pytest.approx(29.0 / 3.0, abs=1e-12)


class TestMakePair:
    def test_identity_at_one(self):
        g = np.array([0.3, -0.7])
        pair = make_pair(g, 1.0)
        np.testing.assert_array_equal(pair.g_plus, g)

    def test_zero(self):
        pair = make_pair(np.array([0.3, -0.7]), 0.0)
        np.testing.assert_array_equal(pair.g_plus, np.zeros(2))

    def test_scalar_multiply(self):
        pair = make_pair(np.array([0.6, -0.8]), 0.5)
        np.testing.assert_allclose(pair.g_plus, [0.3, -0.4], atol=1e-15)

    def test_rejects_h_outside_unit(self):
        for h in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                make_pair(np.ones(1), h)


def test_model_lower_bounds_generating_loss():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d = rng.integers(1, 5)
        x = rng.normal(size=d)
        x /= np.linalg.norm(x)
        for fn, y in ((hinge_eval_grad, 1.0), (absolute_eval_grad, float(rng.normal() * 3))):
            ex = LabeledExample(x, y)
            anchor = rng.normal(size=d) * 2
            loss, grad = fn(anchor, ex)
            m = TruncatedModel(anchor=anchor, grad=grad, loss_at_anchor=loss)
            for _ in range(50):
                w = rng.normal(size=d) * 5
                true_loss, _ = fn(w, ex)
                val = model_eval(m, w)
                assert val <= true_loss + 1e-12
                assert val >= 0.0
                assert val == max(linear_residual(m, w), 0.0)
