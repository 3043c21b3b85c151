"""Conditional moment engine: closed forms, Gaussian closure, objective values."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmo.corpus import time_varying
from eqmo.equilibrium import backward_sweep
from eqmo.errors import (
    NegativeVariance,
    OffGridTime,
    OrderMismatch,
    OutOfRange,
    UnsupportedOrder,
    ValidationError,
)
from eqmo.model import (
    MarketScenario,
    ObjectiveSpec,
    ObjectiveTerm,
    StrategyGrid,
    rate_to_horizon,
)
from eqmo.moments import (
    MomentVector,
    conditional_moments,
    gaussian_central_moments,
    moment_grid,
    moments_to_go,
    objective_value,
)


def base_case(grid_n=100):
    s = MarketScenario(r=0.0, theta=0.3, sigma=0.2, T=1.0, x0=1.0,
                       grid_n=grid_n)
    return s, StrategyGrid.constant(s, 3.75)


class TestGaussianCentralMoments:
    def test_known_values(self):
        V = 0.5625
        m = gaussian_central_moments(V, 8)
        assert m[0] == V
        assert m[1] == 0.0
        assert m[2] == 3.0 * V ** 2
        assert m[4] == 15.0 * V ** 3
        assert m[6] == 105.0 * V ** 4

    def test_zero_variance(self):
        assert gaussian_central_moments(0.0, 6) == [0.0] * 5

    def test_errors(self):
        with pytest.raises(NegativeVariance):
            gaussian_central_moments(-0.1, 4)
        with pytest.raises(UnsupportedOrder):
            gaussian_central_moments(1.0, 9)
        with pytest.raises(UnsupportedOrder):
            gaussian_central_moments(1.0, 1)
        with pytest.raises(ValidationError, match="overflow"):
            gaussian_central_moments(1e200, 4)  # 3 V^2 is beyond the float range


class TestMomentsToGo:
    def test_hand_oracle_constant_case(self):
        # m1(0) = 1 + 0.3 * 3.75 = 2.125 ; V(0) = 0.04 * 3.75^2 = 0.5625
        s, u = base_case()
        M, V = moments_to_go(s, u)
        assert abs(M[0] - 1.125) < 1e-12
        assert abs(V[0] - 0.5625) < 1e-12
        assert M[-1] == 0.0 and V[-1] == 0.0

    def test_right_to_left_association_is_canonical(self):
        # bitwise identical to an explicit backward loop (the shared convention)
        rng = np.random.default_rng(3)
        s = MarketScenario(r=rng.uniform(0, 0.1, 21), theta=rng.uniform(0.1, 0.4, 21),
                           sigma=rng.uniform(0.2, 0.5, 21), T=1.0, x0=1.0, grid_n=20)
        u = StrategyGrid(rng.uniform(-1, 2, 21))
        M, V = moments_to_go(s, u)
        R = rate_to_horizon(s)
        M2 = np.zeros(21)
        V2 = np.zeros(21)
        for i in range(19, -1, -1):
            g = math.exp(R[i])
            M2[i] = M2[i + 1] + g * s.theta[i] * u.values[i] * s.dt
            V2[i] = V2[i + 1] + g * g * s.sigma[i] ** 2 * u.values[i] ** 2 * s.dt
        assert np.array_equal(M, M2)
        assert np.array_equal(V, V2)

    def test_equals_backward_loop_where_pow_and_multiply_differ(self):
        # the squares follow libm pow, as the scalar loop's ``** 2`` does; a
        # plain multiply differs from it on about one input in a thousand
        rng = np.random.default_rng(4)
        n = 200
        pool = [v for v in rng.uniform(-3.0, 3.0, 10 ** 6).tolist() if v ** 2 != v * v]
        u_values = np.array(pool[:n + 1])
        assert u_values.size == n + 1
        s = MarketScenario(r=rng.uniform(-0.05, 0.1, n + 1),
                           theta=rng.uniform(-0.2, 0.4, n + 1),
                           sigma=rng.uniform(0.1, 0.5, n + 1), T=2.0, x0=1.0,
                           grid_n=n)
        u = StrategyGrid(u_values)
        M, V = moments_to_go(s, u)
        R = rate_to_horizon(s)
        M2 = np.zeros(n + 1)
        V2 = np.zeros(n + 1)
        for i in range(n - 1, -1, -1):
            g = math.exp(R[i])
            M2[i] = M2[i + 1] + g * s.theta[i] * u.values[i] * s.dt
            V2[i] = V2[i + 1] + g * g * s.sigma[i] ** 2 * u.values[i] ** 2 * s.dt
        assert M.tobytes() == M2.tobytes()
        assert V.tobytes() == V2.tobytes()

    def test_variance_to_go_monotone(self):
        s, u = base_case(30)
        _, V = moments_to_go(s, u)
        assert np.all(np.diff(V) <= 0.0)


class TestConditionalMoments:
    def test_oracle_at_zero(self):
        s, u = base_case()
        mv = conditional_moments(s, u, 0.0, 1.0, 6)
        assert abs(mv.m1 - 2.125) < 1e-12
        assert abs(mv.V - 0.5625) < 1e-12
        assert abs(mv.central[2] - 0.94921875) < 5e-12  # 3 V^2
        assert mv.central[1] == 0.0
        assert mv.cumulant[0] == mv.V
        assert all(k == 0.0 for k in mv.cumulant[1:])  # exact Gaussian closure

    def test_terminal_point_mass(self):
        s, u = base_case()
        mv = conditional_moments(s, u, 1.0, 1.7, 4)
        assert mv.m1 == 1.7
        assert mv.V == 0.0
        assert mv.central == (0.0, 0.0, 0.0)

    def test_discounting_of_initial_wealth(self):
        s = MarketScenario(r=0.05, theta=0.0, sigma=0.2, T=1.0, x0=2.0,
                           grid_n=50)
        u = StrategyGrid.constant(s, 0.0)
        mv = conditional_moments(s, u, 0.0, 2.0, 2)
        assert abs(mv.m1 - 2.0 * np.exp(0.05)) < 1e-12
        assert mv.V == 0.0

    def test_off_grid_time_rejected(self):
        s, u = base_case()
        for t in (0.005, math.nan, math.inf, -math.inf):
            with pytest.raises(OffGridTime):
                conditional_moments(s, u, t, 1.0, 4)

    @given(st.integers(min_value=0, max_value=30), st.floats(0.5, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_mean_decomposition_property(self, i, x):
        # m1(t, x) = x e^{R(t)} + M(t) for every grid time and state
        s, u = base_case(30)
        M, _ = moments_to_go(s, u)
        R = rate_to_horizon(s)
        t = float(s.times[i])
        mv = conditional_moments(s, u, t, x, 2)
        assert abs(mv.m1 - (x * np.exp(R[i]) + M[i])) < 1e-12


class TestMomentGrid:
    def test_every_index_equals_per_row_and_loop_reference(self):
        case = time_varying(200)
        s = case.scenario
        u = backward_sweep(s, case.objective, "explicit").strategy
        grid = moment_grid(s, u)
        R = np.zeros(s.grid_n + 1)
        M = np.zeros(s.grid_n + 1)
        V = np.zeros(s.grid_n + 1)
        for i in range(s.grid_n - 1, -1, -1):
            R[i] = R[i + 1] + s.r[i] * s.dt
            g = math.exp(R[i])
            M[i] = M[i + 1] + g * s.theta[i] * u.values[i] * s.dt
            V[i] = V[i + 1] + g * g * s.sigma[i] ** 2 * u.values[i] ** 2 * s.dt

        def flat(mv):
            return np.array((mv.m1, mv.V) + mv.central + mv.cumulant).tobytes()

        for i, t in enumerate(s.times):
            row = grid.at(i, 1.3, 6)
            assert flat(row) == flat(conditional_moments(s, u, float(t), 1.3, 6))
            v = float(V[i])
            ref = (1.3 * math.exp(R[i]) + M[i], v) \
                + tuple(gaussian_central_moments(v, 6)) + (v, 0.0, 0.0, 0.0, 0.0)
            assert flat(row) == np.array(ref).tobytes(), i


    def test_index_outside_grid_is_typed_error(self):
        s, u = base_case(10)
        grid = moment_grid(s, u)
        for i in (-1, 11):
            with pytest.raises(OutOfRange):
                grid.at(i, 1.0, 4)


class TestMomentVector:
    def test_invariants(self):
        with pytest.raises(NegativeVariance):
            MomentVector(m1=0.0, central=(-1.0,), cumulant=(-1.0,))
        with pytest.raises(Exception):
            MomentVector(m1=0.0, central=(1.0, 0.0), cumulant=(1.0,))
        with pytest.raises(ValidationError, match="equal nonzero lengths"):
            MomentVector(m1=0.0, central=(), cumulant=())

    def test_moment_accessor(self):
        mv = MomentVector(m1=2.0, central=(1.5, 0.5, 4.0), cumulant=(1.5, 0.5, 1.0))
        assert (mv.V, mv.order) == (1.5, 4)  # derived from the central moments
        assert mv.moment(1, "central") == 2.0
        assert mv.moment(4, "central") == 4.0
        assert mv.moment(4, "cumulant") == 1.0


class TestObjectiveValue:
    def test_mv_oracle(self):
        s, u = base_case()
        mv = conditional_moments(s, u, 0.0, 1.0, 2)
        mv_obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0})
        assert abs(objective_value(mv_obj, mv) - 1.5625) < 1e-12

    def test_raw_m4_oracle(self):
        s, u = base_case()
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0, 4: -0.5})
        mv = conditional_moments(s, u, 0.0, 1.0, 4)
        expected = 2.125 - 0.5625 - 0.5 * 0.94921875
        assert abs(objective_value(obj, mv) - expected) < 1e-11

    def test_product_terms(self):
        # m2 * m4 product at V = 1: 1 * 3 = 3
        obj = ObjectiveSpec("central", (ObjectiveTerm(((2, 1), (4, 1)), 2.0),))
        mv = MomentVector(m1=0.0, central=(1.0, 0.0, 3.0), cumulant=(1.0, 0.0, 0.0))
        assert objective_value(obj, mv) == 6.0

    def test_overflow_is_a_typed_error(self):
        mv = MomentVector(m1=1.0, central=(1e200,), cumulant=(1e200,))
        squared = ObjectiveSpec("cumulant", (ObjectiveTerm(((2, 2),), -1.0),))
        with pytest.raises(ValidationError, match="overflows"):
            objective_value(squared, mv)  # float ** int raises OverflowError
        product = ObjectiveSpec("central", (ObjectiveTerm(((1, 1), (2, 1)), 1e300),))
        with pytest.raises(ValidationError, match="overflows"):
            objective_value(product, mv)  # a float product overflows to inf

    def test_order_mismatch(self):
        s, u = base_case()
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0, 6: -0.1})
        mv = conditional_moments(s, u, 0.0, 1.0, 4)
        with pytest.raises(OrderMismatch):
            objective_value(obj, mv)

    def test_cumulant_mode_reads_cumulants(self):
        s, u = base_case()
        obj = ObjectiveSpec.from_weights("cumulant", {1: 1.0, 2: -1.0, 4: -0.8})
        mv = conditional_moments(s, u, 0.0, 1.0, 4)
        # k4 = 0 exactly, so the kurtosis term contributes nothing
        assert objective_value(obj, mv) == objective_value(
            ObjectiveSpec.from_weights("cumulant", {1: 1.0, 2: -1.0}), mv)
