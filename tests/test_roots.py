"""Real-root isolation on an interval, checked against numpy's companion
matrix solver and constructed factorizations, and the certified nearest-root
Newton path behind ``near``."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eqmo.model import Polynomial
from eqmo import roots
from eqmo.roots import nearest_root
from eqmo.roots import real_roots


def poly_from_roots(roots, scale=1.0):
    coeffs = np.array([scale])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0]))
    return Polynomial(tuple(coeffs))


class TestBasics:
    def test_constant_and_zero(self):
        assert real_roots(Polynomial((3.0,)), -1.0, 1.0) == []
        assert real_roots(Polynomial((0.0,)), -1.0, 1.0) == []

    def test_linear(self):
        assert real_roots(Polynomial((-1.0, 2.0)), -5.0, 5.0) == [0.5]
        assert real_roots(Polynomial((-10.0, 2.0)), -1.0, 1.0) == []

    def test_quadratic_distinct(self):
        p = poly_from_roots([-2.0, 3.0])
        r = real_roots(p, -10.0, 10.0)
        assert r == pytest.approx([-2.0, 3.0], abs=1e-10)

    def test_no_real_roots(self):
        assert real_roots(Polynomial((1.0, 0.0, 1.0)), -10.0, 10.0) == []

    def test_double_root_touch(self):
        # (x - 1)^2: tangent to zero, no sign change
        p = poly_from_roots([1.0, 1.0])
        r = real_roots(p, -5.0, 5.0)
        assert len(r) == 1
        assert r[0] == pytest.approx(1.0, abs=1e-6)

    def test_triple_root(self):
        p = poly_from_roots([0.5, 0.5, 0.5])
        r = real_roots(p, -2.0, 2.0)
        assert len(r) == 1
        assert r[0] == pytest.approx(0.5, abs=1e-5)

    def test_interval_filtering(self):
        p = poly_from_roots([-3.0, 1.0, 4.0])
        assert real_roots(p, 0.0, 2.0) == pytest.approx([1.0], abs=1e-10)

    def test_root_at_endpoint(self):
        p = poly_from_roots([2.0])
        assert real_roots(p, -2.0, 2.0) == pytest.approx([2.0], abs=1e-12)

    def test_scaling_invariance(self):
        p = poly_from_roots([-1.5, 0.25, 2.0], scale=7.3e6)
        q = poly_from_roots([-1.5, 0.25, 2.0], scale=-2.1e-7)
        rp = real_roots(p, -10.0, 10.0)
        rq = real_roots(q, -10.0, 10.0)
        assert rp == pytest.approx([-1.5, 0.25, 2.0], abs=1e-9)
        assert rq == pytest.approx([-1.5, 0.25, 2.0], abs=1e-9)

    def test_stationarity_cubic_oracle(self):
        # 0.3 - 0.08 u - 0.0096 dt u^3 at dt = 1: strictly decreasing, one root
        p = Polynomial((0.3, -0.08, 0.0, -0.0096))
        r = real_roots(p, -100.0, 100.0)
        assert len(r) == 1
        assert abs(p(r[0])) < 1e-12

    def test_septic_precision(self):
        roots = [-2.0, -0.5, 0.0, 0.75, 1.25, 3.0, 5.5]
        p = poly_from_roots(roots)
        found = real_roots(p, -10.0, 10.0)
        assert found == pytest.approx(roots, abs=1e-8)


class TestAgainstNumpyOracle:
    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
                    min_size=2, max_size=7))
    @settings(max_examples=150, deadline=None)
    @example([-0.5, 1 / 3, 1 / 3, 1 / 3, -0.5])  # double root at x = 1
    @example([0.6, 0.06])  # root on the endpoint x = -10
    def test_matches_companion_matrix(self, coeffs):
        p = Polynomial(tuple(coeffs))
        assume(p.degree >= 1)
        assume(abs(p.coeffs[-1]) > 1e-3)  # keep the leading term well scaled
        npr = np.roots(p.coeffs[::-1])
        # a multiple real root comes back from the companion matrix as a
        # near-real complex pair, which the real filter below would drop
        assume(not any(1e-9 <= abs(z.imag) < 1e-4 for z in npr))
        # real_roots searches the closed interval, endpoints included
        real = sorted(float(z.real) for z in npr
                      if abs(z.imag) < 1e-9 and -10.0 <= z.real <= 10.0)
        # only compare when the oracle's roots are well separated and simple
        assume(all(b - a > 1e-4 for a, b in zip(real, real[1:])))
        deriv = p.derivative()
        assume(all(abs(deriv(r)) > 1e-6 for r in real))
        mine = real_roots(p, -10.0, 10.0)
        assert len(mine) == len(real)
        for a, b in zip(mine, real):
            assert abs(a - b) <= 1e-7 * max(1.0, abs(b))

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1,
                    max_size=6, unique=True),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_recovers_constructed_integer_roots(self, roots, scale):
        roots = sorted(roots)
        p = poly_from_roots(roots, scale=scale)
        found = real_roots(p, -7.0, 7.0)
        assert len(found) == len(roots)
        for a, b in zip(found, roots):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_double_root_the_oracle_splits(self):
        # p(1) = p'(1) = 0; np.roots gives 1 +- 1.2e-8 i, real_roots the touch
        p = Polynomial((-0.5, 1 / 3, 1 / 3, 1 / 3, -0.5))
        found = real_roots(p, -10.0, 10.0)
        assert len(found) == 1
        assert abs(found[0] - 1.0) <= 1e-7

    def test_residual_quality(self):
        p = poly_from_roots([-1.1, 0.3, 0.9, 2.2])
        for r in real_roots(p, -5.0, 5.0):
            assert abs(p(r)) < 1e-11


class TestNearestRoot:
    """The certified Newton path: a root it returns is the nearest real root
    of the full isolation; anything it cannot certify is None."""

    def test_well_separated_cubic(self):
        p = poly_from_roots([-1.0, 0.5, 2.0])
        for x0, want in ((1.9, 2.0), (2.3, 2.0), (0.4, 0.5), (-1.2, -1.0)):
            r = nearest_root(p.coeffs, x0)
            assert r is not None
            assert abs(r - want) <= 1e-15 * max(1.0, abs(want))

    def test_matches_full_isolation(self):
        p = Polynomial((0.3, -0.08, 0.0, -0.0096))
        (full,) = real_roots(p, -100.0, 100.0)
        r = nearest_root(p.coeffs, 3.0)
        assert r is not None
        assert abs(r - full) <= 1e-15 * abs(full)

    def test_close_pair_around_start_is_not_certified(self):
        # p' vanishes near 1.0005, between the roots 1 and 1.001: from a start
        # nearer that critical point than either root, the interval reaching
        # a root contains it
        p = poly_from_roots([1.0, 1.001, -2.001])
        for x0 in (1.0004, 1.0005, 1.0006):
            assert nearest_root(p.coeffs, x0) is None
        # from farther out the nearer root is certified
        for x0, want in ((0.9999, 1.0), (1.0001, 1.0), (1.0009, 1.001), (1.0011, 1.001)):
            assert abs(nearest_root(p.coeffs, x0) - want) <= 1e-13

    def test_zero_derivative_at_start(self):
        assert nearest_root((-1.0, 0.0, 1.0), 0.0) is None
        assert nearest_root((3.0, 0.0, 0.0, -2.0), 0.0) is None

    def test_newton_cycle_is_not_trusted(self):
        # x^3 - 2x + 2 from 0: Newton cycles 0 -> 1 -> 0
        assert nearest_root((2.0, -2.0, 0.0, 1.0), 0.0) is None

    def test_non_finite_values(self):
        assert nearest_root((-1.0, math.inf, 1.0), 0.5) is None
        assert nearest_root((math.nan, 0.0, 1.0), 0.5) is None
        assert nearest_root((-1.0, 0.0, 1e308), 1e200) is None

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2,
                    max_size=6, unique=True),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=-7.0, max_value=7.0))
    @settings(max_examples=200, deadline=None)
    def test_certified_root_is_nearest_isolated_root(self, roots, scale, x0):
        p = poly_from_roots(roots, scale=scale)
        r = nearest_root(p.coeffs, x0)
        if r is None:
            return
        isolated = real_roots(p, -7.0, 7.0)
        nearest = min(isolated, key=lambda u: abs(u - x0))
        assert abs(r - nearest) <= 1e-12 * max(1.0, abs(nearest))
        for u in isolated:
            if u != nearest:
                assert abs(u - x0) > abs(r - x0)


class TestNearArgument:
    """``real_roots(..., near=x0)``: the certified :func:`nearest_root` alone,
    or the full isolation when it cannot be certified; the recursion into the
    derivative runs only for the full isolation."""

    @staticmethod
    def call(p, lo, hi, near):
        with mock.patch.object(roots, "real_roots", wraps=roots.real_roots) as inner:
            got = real_roots(p, lo, hi, near=near)
        return got, inner.call_count > 0

    def test_certified_root_alone(self):
        p = poly_from_roots([-1.0, 0.5, 2.0])
        got, isolated = self.call(p, -5.0, 5.0, 1.9)
        assert not isolated
        assert got == [nearest_root(p.coeffs, 1.9)]
        assert len(got) == 1 and abs(got[0] - 2.0) <= 1e-15 * 2.0
        full = min(real_roots(p, -5.0, 5.0), key=lambda u: abs(u - 1.9))
        assert abs(got[0] - full) <= 1e-15 * 2.0

    def test_uncertified_start_isolates_every_root(self):
        p = poly_from_roots([1.0, 1.001, -2.001])
        assert nearest_root(p.coeffs, 1.0005) is None
        got, isolated = self.call(p, -5.0, 5.0, 1.0005)
        assert isolated
        assert got == real_roots(p, -5.0, 5.0)
        assert len(got) == 3

    def test_root_outside_interval_isolates(self):
        # the certified root 2 lies outside [-5, 1]
        p = poly_from_roots([-1.0, 0.5, 2.0])
        got, isolated = self.call(p, -5.0, 1.0, 1.9)
        assert isolated
        assert got == real_roots(p, -5.0, 1.0)
        assert got == pytest.approx([-1.0, 0.5], abs=1e-12)

    def test_degree_one_and_zero_ignore_near(self):
        assert real_roots(Polynomial((-1.0, 2.0)), -5.0, 5.0, near=3.0) == [0.5]
        assert real_roots(Polynomial((1.0,)), -5.0, 5.0, near=3.0) == []
