import numpy as np
import pytest

from implicitcoin.baselines import (ALGORITHMS, AProx, Cocob,
                                    ImportanceAwareSgd, KtCoin, Sgd,
                                    is_parameter_free, make_algorithm)
from implicitcoin.losses import LabeledExample, absolute_eval_grad, hinge_eval_grad
from implicitcoin.truncated import TruncatedModel, linear_residual


class TestSgd:
    def test_zero_gradient_is_noop(self):
        s = Sgd(2, eta0=1.0)
        w = s.step(0.0, np.zeros(2))
        np.testing.assert_array_equal(w, np.zeros(2))

    def test_a_step_whose_g_g_underflows_still_moves(self):
        # g.g is 0.0, but w - eta g is not w
        w = Sgd(2, eta0=1.0).step(0.5, np.array([-1e-200, 0.0]))
        np.testing.assert_array_equal(w, [1e-200, 0.0])

    def test_one_explicit_step(self):
        s = Sgd(2, eta0=1.0)
        w = s.step(1.0, np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_sqrt_decay_halves_step_at_k4(self):
        s = Sgd(1, eta0=1.0)
        steps = []
        for _ in range(4):
            before = s.w.copy()
            after = s.step(1.0, np.array([-1.0]))
            steps.append(float(after[0] - before[0]))
        assert steps[3] == pytest.approx(steps[0] / 2.0)

    def test_rejects_bad_eta0(self):
        with pytest.raises(ValueError, match="positive"):
            Sgd(1, eta0=0.0)


class TestAProx:
    def test_matches_sgd_when_cap_inactive(self):
        a, s = AProx(1, eta0=0.5), Sgd(1, eta0=0.5)
        wa = a.step(100.0, np.array([-1.0]))  # cap 100 >> eta
        ws = s.step(100.0, np.array([-1.0]))
        np.testing.assert_array_equal(wa, ws)

    def test_lands_exactly_on_corner_with_large_eta(self):
        a = AProx(1, eta0=100.0)
        w = a.step(10.0, np.array([-1.0]))
        assert w[0] == 10.0

    def test_zero_gradient_noop(self):
        a = AProx(1, eta0=3.0)
        assert a.step(5.0, np.zeros(1))[0] == 0.0

    def test_never_overshoots_fuzz(self):
        rng = np.random.default_rng(61)
        a = AProx(3, eta0=50.0)
        w = a.predict()
        for _ in range(2000):
            g = rng.normal(size=3)
            g *= rng.uniform(0.0, 1.0) / np.linalg.norm(g)
            loss = rng.uniform(0.0, 2.0)
            w_next = a.step(loss, g)
            m = TruncatedModel(anchor=w, grad=g, loss_at_anchor=loss)
            assert linear_residual(m, w_next) >= -1e-12
            w = w_next


@pytest.mark.parametrize("cls", [Sgd, AProx])
class TestStepInputConversion:
    """g is converted only when it is not a float64 ndarray, and every other
    input still is."""

    @pytest.mark.parametrize("rows,convert", [
        ([[0.1, -0.3], [0.6, 0.7]], lambda g: g.tolist()),
        ([[1.0, 0.0], [0.0, -1.0]], lambda g: g.astype(np.int64)),
        ([[0.1, -0.3], [0.6, 0.7]], lambda g: g.astype(np.float32)),
    ], ids=["list", "int", "float32"])
    def test_converted_gradients_give_the_step_of_their_float64_values(self, cls, rows,
                                                                       convert):
        ref, other = cls(2, 0.3), cls(2, 0.3)
        for row in rows:
            g = convert(np.array(row))
            w_ref = ref.step(0.2, np.asarray(g, dtype=np.float64))
            assert other.step(0.2, g).tobytes() == w_ref.tobytes()

    @pytest.mark.parametrize("g", [[0.1, 0.2, 0.3], np.ones(3, dtype=np.float32)])
    def test_shape_mismatch_still_raises(self, cls, g):
        with pytest.raises(ValueError):
            cls(2, 0.3).step(0.2, g)


class TestImportanceAware:
    """`iwa` is the AProx step under its own registry name."""

    def test_is_the_aprox_step(self):
        assert issubclass(ImportanceAwareSgd, AProx)
        assert ImportanceAwareSgd.step is AProx.step

    def test_inactive_hinge_is_noop(self):
        ex = LabeledExample(np.array([1.0, 0.0]), 1.0)
        iwa = make_algorithm("iwa", 2, eta0=5.0)
        iwa.w = np.array([2.0, 0.0])
        loss, g = hinge_eval_grad(iwa.w, ex)
        w = iwa.step(loss, g, ex)
        np.testing.assert_array_equal(w, [2.0, 0.0])

    def test_lands_on_corner_with_large_eta(self):
        ex = LabeledExample(np.array([1.0]), 10.0)
        iwa = make_algorithm("iwa", 1, eta0=1000.0)
        loss, g = absolute_eval_grad(iwa.w, ex)
        assert iwa.step(loss, g, ex)[0] == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("eta", [1e-3, 1e-4])
    def test_matches_sgd_to_first_order(self, eta):
        # below the corner cap the closed form is exactly the gradient step
        ex = LabeledExample(np.array([1.0]), 10.0)
        iwa = make_algorithm("iwa", 1, eta0=eta)
        sgd = Sgd(1, eta0=eta)
        loss, g = absolute_eval_grad(np.zeros(1), ex)
        diff = abs(iwa.step(loss, g, ex)[0] - sgd.step(loss, g)[0])
        assert diff <= 10.0 * eta * eta

    @pytest.mark.parametrize("kind,target", [("hinge", 1.0), ("absolute", 2.5)])
    def test_coincides_with_aprox_fuzz(self, kind, target):
        rng = np.random.default_rng(67)
        fn = hinge_eval_grad if kind == "hinge" else absolute_eval_grad
        iwa = make_algorithm("iwa", 3, eta0=2.0)
        apx = AProx(3, eta0=2.0)
        for _ in range(500):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x) * rng.uniform(1.0, 4.0)
            ex = LabeledExample(x, target if kind == "hinge" else float(rng.normal()))
            loss_i, g_i = fn(iwa.w, ex)
            loss_a, g_a = fn(apx.w, ex)
            wi = iwa.step(loss_i, g_i, ex)
            wa = apx.step(loss_a, g_a, ex)
            np.testing.assert_allclose(wi, wa, atol=1e-10)


class TestKtCoin:
    def test_first_prediction_is_zero(self):
        assert np.all(KtCoin(3).predict() == 0.0)

    def test_hand_trace_single_round(self):
        k = KtCoin(1)
        w = k.step(1.0, np.array([-1.0]))
        assert k.wealth == 1.0
        assert w[0] == pytest.approx(0.5)

    def test_alternating_coins_stay_bounded(self):
        k = KtCoin(1)
        w = k.predict()
        for t in range(200):
            w = k.step(1.0, np.array([1.0 if t % 2 == 0 else -1.0]))
        assert abs(w[0]) < 0.5

    def test_wealth_positive_on_unit_coins(self):
        rng = np.random.default_rng(71)
        k = KtCoin(2)
        for _ in range(2000):
            g = rng.normal(size=2)
            g /= max(1.0, np.linalg.norm(g))
            k.step(0.0, g)
            assert k.wealth > 0.0

    def test_zero_gradient_noop(self):
        k = KtCoin(1)
        k.step(1.0, np.array([-1.0]))
        w_before = k.predict()
        w_after = k.step(1.0, np.zeros(1))
        np.testing.assert_array_equal(w_after, w_before)
        assert k.wealth == 1.0
        assert k.k == 2  # the round still counts


class TestCocob:
    def test_first_prediction_zero_and_zero_grad_noop(self):
        c = Cocob(2)
        np.testing.assert_array_equal(c.predict(), np.zeros(2))
        w = c.step(1.0, np.zeros(2))
        np.testing.assert_array_equal(w, np.zeros(2))

    def test_constant_coin_gives_increasing_iterates(self):
        c = Cocob(1)
        prev = 0.0
        for _ in range(20):
            w = float(c.step(1.0, np.array([-1.0]))[0])
            assert w > prev
            prev = w


class TestRegistry:
    def test_names(self):
        assert ALGORITHMS == ("sgd", "aprox", "iwa", "coin", "cocob",
                              "implicit-coin", "cw-implicit-coin")

    def test_parameter_free_flags(self):
        assert is_parameter_free("coin") and is_parameter_free("cocob")
        assert is_parameter_free("implicit-coin") and is_parameter_free("cw-implicit-coin")
        assert not any(map(is_parameter_free, ("sgd", "aprox", "iwa")))
        with pytest.raises(ValueError):
            is_parameter_free("code")

    def test_parameter_free_rejects_eta0(self):
        for name in ("coin", "cocob", "implicit-coin", "cw-implicit-coin"):
            with pytest.raises(ValueError, match="parameter-free"):
                make_algorithm(name, 2, eta0=0.1)

    def test_tuned_requires_eta0(self):
        for name in ("sgd", "aprox", "iwa"):
            with pytest.raises(ValueError, match="eta0"):
                make_algorithm(name, 2)

    def test_factory_round_trip(self):
        for name in ALGORITHMS:
            eta0 = None if is_parameter_free(name) else 0.5
            algo = make_algorithm(name, 3, eta0=eta0)
            assert algo.predict().shape == (3,)
            # the example is a third positional argument that every step accepts
            w = algo.step(0.5, np.array([0.6, 0.0, -0.8]), None)
            assert w.shape == (3,) and np.all(np.isfinite(w))


BASELINES = ("sgd", "aprox", "iwa", "coin", "cocob")


def make_baseline(name, dim):
    return make_algorithm(name, dim, eta0=None if is_parameter_free(name) else 0.5)


class TestInputChecks:
    @pytest.mark.parametrize("name", BASELINES)
    @pytest.mark.parametrize("loss,g", [
        (np.nan, [0.6, -0.8]), (np.inf, [0.6, -0.8]), (-1e-3, [0.6, -0.8]),
        (0.5, [np.nan, 0.0]), (0.5, [0.6, np.inf]), (0.5, [-np.inf, 0.0]),
        (0.5, [0.6]), (0.5, [0.6, -0.8, 0.1]), (0.5, [[0.6], [-0.8]]),
    ])
    def test_bad_round_rejected_before_any_state_changes(self, name, loss, g):
        # the last three are gradients of another shape than the iterate's
        algo = make_baseline(name, 2)
        algo.step(0.5, np.array([0.3, 0.4]))
        before = {k: np.copy(v) for k, v in vars(algo).items()}
        with pytest.raises(ValueError, match="loss value|gradient"):
            algo.step(loss, np.array(g))
        assert vars(algo).keys() == before.keys()
        for k, v in vars(algo).items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)


@pytest.mark.parametrize("cls", [Sgd, AProx, ImportanceAwareSgd, KtCoin, Cocob])
def test_each_class_binds_its_own_step(cls):
    # per-class wrappers, such as the benchmark's tracer, patch a class's own
    # step: one inherited from a patched class would be wrapped twice
    assert "step" in vars(cls)


class TestReturnedIterates:
    @pytest.mark.parametrize("name", BASELINES)
    def test_returned_iterates_are_never_written(self, name):
        algo = make_baseline(name, 3)
        rng = np.random.default_rng(41)
        returned, snapshots = [], []
        for i in range(300):
            g = rng.normal(size=3)
            g *= rng.uniform(0.0, 1.0) / np.linalg.norm(g)
            if i % 7 == 0:
                g[:] = 0.0
            w = algo.step(rng.uniform(0.0, 2.0), g)
            returned.append(w)
            snapshots.append(w.copy())
        for w, snap in zip(returned, snapshots):
            np.testing.assert_array_equal(w, snap)
