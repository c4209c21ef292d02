import math

import numpy as np
import pytest

from implicitcoin import rootsolve
from implicitcoin.rootsolve import bisect, narrow_bracket, roots_in_unit


def brute_roots(coeffs, lo, hi, grid=10001):
    """Dense grid plus bisection refinement; independent of the closed forms."""
    xs = np.linspace(lo, hi, grid)
    vals = np.polyval(coeffs, xs)
    roots = []
    if vals[0] == 0.0:
        roots.append(lo)
    for i in range(len(xs) - 1):
        a, b = vals[i], vals[i + 1]
        if b == 0.0:
            roots.append(xs[i + 1])
        elif (a > 0) != (b > 0) and a != 0.0:
            left, right = xs[i], xs[i + 1]
            fl = a
            for _ in range(80):
                mid = 0.5 * (left + right)
                fm = np.polyval(coeffs, mid)
                if (fm > 0) == (fl > 0):
                    left, fl = mid, fm
                else:
                    right = mid
            roots.append(0.5 * (left + right))
    out = []
    for r in roots:
        if not out or r - out[-1] > 1e-9:
            out.append(r)
    return out


class TestRootsInUnit:
    def test_quadratic_boundary_root(self):
        assert roots_in_unit([1.0, 0.0, -1.0], 0.0, 1.0) == pytest.approx([1.0])

    def test_constructed_cubic_recovers_interior_roots(self):
        coeffs = np.polymul(np.polymul([1.0, -0.25], [1.0, -0.75]), [1.0, -2.0])
        roots = roots_in_unit(list(coeffs), 0.0, 1.0)
        assert roots == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_linear(self):
        assert roots_in_unit([1.0, -0.5], 0.0, 1.0) == pytest.approx([0.5])

    def test_near_degenerate_leading_falls_through(self):
        # cubic coefficient at float-noise level: effectively h^2 - 0.25
        roots = roots_in_unit([1e-20, 1.0, 0.0, -0.25], 0.0, 1.0)
        assert roots == pytest.approx([0.5], abs=1e-12)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="all-zero"):
            roots_in_unit([0.0, 0.0, 0.0], 0.0, 1.0)

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError, match="degree"):
            roots_in_unit([1.0, 0.0, 0.0, 0.0, -1.0], 0.0, 1.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="lo < hi"):
            roots_in_unit([1.0, 0.0], 1.0, 0.0)

    def test_constant_has_no_roots(self):
        assert roots_in_unit([0.0, 5.0], 0.0, 1.0) == []

    def test_residual_bound_on_returned_roots(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            coeffs = rng.uniform(-10, 10, size=4)
            band = 1e-9 * (1.0 + np.max(np.abs(coeffs)))
            for r in roots_in_unit(coeffs, 0.0, 1.0):
                assert abs(np.polyval(coeffs, r)) <= band

    def test_agrees_with_grid_bisection_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            coeffs = rng.uniform(-10, 10, size=4)
            got = roots_in_unit(coeffs, 0.0, 1.0)
            want = brute_roots(coeffs, 0.0, 1.0)
            assert len(got) == len(want), f"coeffs {coeffs}: {got} vs {want}"
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-7


class TestBisect:
    def test_linear_root(self):
        r = bisect(lambda h: h - 0.3, 0.0, 1.0, 1e-10)
        assert abs(r - 0.3) <= 1e-10

    def test_cosine_fixed_point_vs_iteration_oracle(self):
        x = 0.5
        for _ in range(200):
            x = math.cos(x)
        r = bisect(lambda h: math.cos(h) - h, 0.0, 1.0, 1e-10)
        assert abs(r - x) <= 1e-9
        assert abs(r - 0.7390851332) <= 1e-9

    def test_exact_endpoint_root_short_circuits(self):
        calls = []

        def f(h):
            calls.append(h)
            return h

        assert bisect(f, 0.0, 1.0, 1e-10) == 0.0
        assert calls == [0.0]

    def test_rejects_same_sign_with_diagnostic(self):
        with pytest.raises(ValueError) as err:
            bisect(lambda h: h + 1.0, 0.0, 1.0, 1e-8)
        assert "f(lo)=1.0" in str(err.value) and "f(hi)=2.0" in str(err.value)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="tol"):
            bisect(lambda h: h - 0.5, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("lo,hi,tol", [
        (0.0, 1.0, 1e-10), (0.0, 1.0, 1e-6), (-2.0, 3.0, 1e-8), (0.25, 0.75, 1e-4),
    ])
    def test_evaluation_count_is_exact(self, lo, hi, tol):
        calls = []

        def f(h):
            calls.append(h)
            return h - (lo + 0.613 * (hi - lo))

        r = bisect(f, lo, hi, tol)
        expected = math.ceil(math.log2((hi - lo) / tol))
        assert len(calls) == expected + 2
        assert abs(r - (lo + 0.613 * (hi - lo))) <= tol


def counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def steep_rational(loss, q):
    """Corner-shaped residual: loss - h / (1 + (h - 1) q), root near loss."""
    return lambda h: loss - h / (1.0 + (h - 1.0) * q)


class TestNarrowBracket:
    @pytest.mark.parametrize("f", [
        lambda h: math.cos(h) - h,
        steep_rational(1e-3, 0.5),
        steep_rational(1e-6, -0.49),
        steep_rational(0.5, 0.3),
        lambda h: 1e-9 - h ** 3,
        lambda h: 1.0 if h < 0.3 else -1.0,  # a jump: still a sign change
    ])
    def test_keeps_the_sign_change_with_f_nonnegative_at_lo(self, f):
        lo, hi = narrow_bracket(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
        assert 0.0 <= lo < hi <= 1.0
        assert f(lo) >= 0.0 > f(hi)
        assert hi - lo <= 1e-12 or f(lo) == 0.0

    def test_exact_zero_moves_lo_and_bisect_returns_it(self):
        f, calls = counted(lambda h: 0.5 - h)  # the first secant point is the root
        lo, hi = narrow_bracket(f, 0.0, 1.0, 0.5, -0.5, 1e-12)
        assert (lo, hi) == (0.5, 1.0) and calls == [0.5]
        assert bisect(f, lo, hi, 1e-18) == 0.5

    def test_zero_at_lo_is_not_narrowed(self):
        f, calls = counted(lambda h: -h)
        assert narrow_bracket(f, 0.0, 1.0, 0.0, -1.0, 1e-12) == (0.0, 1.0)
        assert calls == []
        assert bisect(f, 0.0, 1.0, 1e-18) == 0.0

    @pytest.mark.parametrize("f,limit", [
        (lambda h: math.cos(h) - h, 10),
        (steep_rational(1e-3, 0.5), 10),
        (steep_rational(0.5, -0.49), 12),
    ])
    def test_evaluations_stay_bounded(self, f, limit):
        g, calls = counted(f)
        lo, hi = narrow_bracket(g, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
        # a plain bisection needs 40 evaluations for the same width
        assert len(calls) <= limit
        root = bisect(f, lo, hi, 1e-18)
        assert abs(root - bisect(f, 0.0, 1.0, 1e-18)) <= 1e-15

    def test_evaluation_cap_stops_the_narrowing(self, monkeypatch):
        monkeypatch.setattr(rootsolve, "NARROW_MAX_EVALS", 5)
        f, calls = counted(lambda h: 1.0 if h < 0.3 else -1.0)
        lo, hi = narrow_bracket(f, 0.0, 1.0, 1.0, -1.0, 1e-12)
        assert len(calls) == 5 and lo < 0.3 <= hi

    @pytest.mark.parametrize("flo,fhi", [(1.0, 2.0), (-1.0, -2.0), (-1.0, 1.0), (0.0, 0.0)])
    def test_rejects_brackets_without_a_falling_sign_change(self, flo, fhi):
        with pytest.raises(ValueError, match="f\\(lo\\) >= 0 > f\\(hi\\)"):
            narrow_bracket(lambda h: 0.0, 0.0, 1.0, flo, fhi, 1e-12)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="lo < hi"):
            narrow_bracket(lambda h: 0.0, 1.0, 1.0, 1.0, -1.0, 1e-12)
