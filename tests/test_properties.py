"""Property tests: the paper's per-round invariants on arbitrary finite streams,
for the uncapped baselines finite output and a clean rejection of bad
input, a gradient of the wrong shape included, and the corner solve on
Horner cubics with one sign change in [0, 1].

Every stream has losses >= 0 and gradients inside the learner's unit ball
(Euclidean, or max-entry for the coordinate-wise learner). Examples are
derandomized, so every run checks the same streams.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from implicitcoin import learners
from implicitcoin.baselines import make_algorithm
from implicitcoin.learners import (BETA_RADIUS, CORNER_WIDTH_ULPS, CoordinateImplicitCoin,
                                   ImplicitCoin, ProjectedImplicitCoin, solve_corner)

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


@st.composite
def corner_cubics(draw):
    """Horner coefficients (c0, c1, c2, c3) of k (r - h) q(h), q > 0 on [0, 1]
    (q's Bernstein weights are positive), so the cubic falls through its one
    root r in [0, 1]. Roots come near 0 (down to c0 among the subnormals, and
    r = 0, an exact root at 0) and near 1 as well as anywhere between."""
    where = draw(st.sampled_from(["anywhere", "near 0", "subnormal c0", "near 1"]))
    if where == "anywhere":
        r = draw(st.floats(0.0, 1.0, exclude_max=True))
    elif where == "near 1":
        r = 1.0 - 2.0 ** -draw(st.integers(1, 50))
    else:  # k r a lands among the subnormals for the second kind
        r = 2.0 ** -draw(st.integers(1, 1000) if where == "near 0" else st.integers(1025, 1074))
    m0, m1, m2 = (draw(st.floats(0.25, 4.0)) for _ in range(3))
    k = 1.0 if where == "subnormal c0" else draw(st.sampled_from([1e-6, 1.0, 1e6]))
    a, b, c = m0, 2.0 * (m1 - m0), m0 - 2.0 * m1 + m2  # q = a + b h + c h^2
    return k * r * a, k * (r * b - a), k * (r * c - b), -k * c


def bisect_to_float_resolution(f, zero_moves_lo):
    """Root of f on [0, 1], halved until no float lies between the ends; an
    exact zero moves lo (the last zero of a run) or hi (the first)."""
    lo, hi = 0.0, 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        lo, hi = (mid, hi) if fmid > 0.0 or (zero_moves_lo and fmid == 0.0) else (lo, mid)
    return 0.5 * (lo + hi)


@settings(SETTINGS, max_examples=200)
@given(corner_cubics(), st.booleans())
def test_corner_solve_on_horner_cubics(coeffs, sloped):
    # the bracket is closed to CORNER_WIDTH_ULPS ulps or lo holds an exact
    # root, h is a full-bracket bisection's (between the first and the last
    # zero of a run of exact zeros), every point is evaluated once and
    # neither end, and the finish is one rootsolve.bisect call
    c0, c1, c2, c3 = coeffs
    f1 = ((c3 + c2) + c1) + c0
    assume(f1 < 0.0)
    seen, calls = [], []

    def value(h):
        return ((c3 * h + c2) * h + c1) * h + c0

    def fd(h):
        seen.append(h)
        return value(h), (3.0 * c3 * h + 2.0 * c2) * h + c1

    bisect = learners.rootsolve.bisect

    def counting(f, lo, hi, tol):
        calls.append((f, lo, hi))
        return bisect(f, lo, hi, tol)

    with mock.patch.object(learners.rootsolve, "bisect", counting):
        h, evals = solve_corner(fd, c0, f1, c1 if sloped else None)
    [(f, lo, hi)] = calls
    assert evals == len(seen) == len(set(seen))
    assert 0.0 not in seen and 1.0 not in seen
    assert value(lo) >= 0.0 > value(hi) and f(lo) == value(lo)
    assert hi - lo <= CORNER_WIDTH_ULPS * math.ulp(hi) or value(lo) == 0.0
    first, last = (bisect_to_float_resolution(value, False),
                   bisect_to_float_resolution(value, True))
    assert first - CORNER_WIDTH_ULPS * math.ulp(first) <= h
    assert h <= last + CORNER_WIDTH_ULPS * math.ulp(last)
