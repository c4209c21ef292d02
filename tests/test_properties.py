"""Property tests: the paper's per-round invariants on arbitrary finite streams,
and for the uncapped baselines finite output and a clean rejection of bad
input, a gradient of the wrong shape included.

Every stream has losses >= 0 and gradients inside the learner's unit ball
(Euclidean, or max-entry for the coordinate-wise learner). Examples are
derandomized, so every run checks the same streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitcoin.baselines import make_algorithm
from implicitcoin.learners import (BETA_RADIUS, CoordinateImplicitCoin, ImplicitCoin,
                                   ProjectedImplicitCoin)

RESIDUAL_TOL = 1e-8   # the diagnostics' no-overshoot tolerance
BALL_SLACK = 1e-12

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)

losses = st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 1e3))


@st.composite
def streams(draw, max_norm):
    """(dim, [(loss, g), ...]) with g scaled into the unit ball of max_norm.

    Gradients are drawn from a pool of at most three, so coins repeat and the
    betting fractions reach the ball boundary.
    """
    dim = draw(st.integers(1, 5))
    coord = st.floats(-1.0, 1.0, allow_subnormal=False)
    pool = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                         min_size=1, max_size=3))
    rounds = draw(st.lists(st.tuples(losses, st.integers(0, len(pool) - 1)),
                           min_size=1, max_size=60))
    out = []
    for loss, i in rounds:
        g = np.array(pool[i])
        nrm = max_norm(g)
        out.append((loss, g / nrm if nrm > 1.0 else g))
    return dim, out


def l2(v):
    return float(np.linalg.norm(v))


def linf(v):
    return float(np.max(np.abs(v)))


def check_betting_stream(cls, norm, stream):
    dim, rounds = stream
    learner = cls(dim)
    w = learner.predict()
    for loss, g in rounds:
        w_next = learner.step(loss, g)
        assert loss + float(g @ (w_next - w)) >= -RESIDUAL_TOL
        assert norm(learner.beta) <= BETA_RADIUS + BALL_SLACK
        assert np.all(np.asarray(learner.wealth) > 0.0)
        w = w_next


@SETTINGS
@given(streams(l2))
def test_projected_invariants(stream):
    check_betting_stream(ProjectedImplicitCoin, l2, stream)


@SETTINGS
@given(streams(l2))
def test_closed_form_invariants(stream):
    check_betting_stream(ImplicitCoin, l2, stream)


@SETTINGS
@given(streams(linf))
def test_coordinate_invariants(stream):
    check_betting_stream(CoordinateImplicitCoin, linf, stream)


@SETTINGS
@given(st.sampled_from(["aprox", "iwa"]), st.floats(1e-4, 1e2), streams(l2))
def test_capped_steps_never_overshoot(name, eta0, stream):
    dim, rounds = stream
    learner = make_algorithm(name, dim, eta0=eta0)
    w = learner.predict()
    for loss, g in rounds:
        w_next = learner.step(loss, g)
        assert loss + float(g @ (w_next - w)) >= -RESIDUAL_TOL
        w = w_next


@SETTINGS
@given(st.sampled_from(["sgd", "coin", "cocob"]), st.floats(1e-4, 1e2), streams(l2),
       st.sampled_from(["nan-loss", "inf-loss", "negative-loss", "nan-grad", "inf-grad",
                        "wrong-shape"]))
def test_uncapped_steps_stay_finite_and_reject_without_state_change(name, eta0, stream, bad):
    dim, rounds = stream
    learner = make_algorithm(name, dim, eta0=eta0 if name == "sgd" else None)
    for loss, g in rounds:
        w_next = learner.step(loss, g)
        assert w_next.shape == (dim,) and np.all(np.isfinite(w_next))
    state = {k: np.copy(v) for k, v in vars(learner).items()}
    loss, g = rounds[-1]
    kind, what = bad.split("-")
    if what == "loss":
        loss = {"nan": np.nan, "inf": np.inf, "negative": -1.0}[kind]
    elif what == "shape":  # one entry more than the iterate has
        g = np.append(g, 0.5)
    else:
        g = g.copy()
        g[-1] = np.nan if kind == "nan" else np.inf
    with pytest.raises(ValueError):
        learner.step(loss, g)
    assert vars(learner).keys() == state.keys()
    for k, v in vars(learner).items():
        np.testing.assert_array_equal(v, state[k])
