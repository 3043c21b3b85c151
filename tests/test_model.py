"""Core type tests: polynomials, scenarios, objectives, moment transforms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmo.errors import (
    EmptyRiskTerm,
    GridMismatch,
    NonAffineMeanTerm,
    OffGridTime,
    SigmaTooSmall,
    UnsupportedOrder,
    ValidationError,
)
from eqmo.model import (
    MAX_ORDER,
    MarketScenario,
    ObjectiveSpec,
    ObjectiveTerm,
    Polynomial,
    StrategyGrid,
    gaussian_risk_polynomial,
    moments_to_cumulants,
    rate_to_horizon,
    validate_scenario,
)

MV = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0})

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Polynomial


class TestPolynomial:
    def test_canonical_strips_trailing_zeros(self):
        p = Polynomial((1.0, 2.0, 0.0, 0.0))
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = Polynomial((0.0, 0.0))
        assert p.is_zero
        assert p.degree == -1
        assert p(3.0) == 0.0

    def test_call_matches_horner_oracle(self):
        p = Polynomial((1.0, -2.0, 3.0))
        assert p(2.0) == 1.0 - 4.0 + 12.0
        x = np.array([0.0, 1.0, -1.0])
        assert np.array_equal(p(x), np.array([1.0, 2.0, 6.0]))

    def test_derivative(self):
        p = Polynomial((5.0, 1.0, -2.0, 4.0))
        assert p.derivative().coeffs == (1.0, -4.0, 12.0)
        assert Polynomial((7.0,)).derivative().is_zero

    def test_add_mul(self):
        p = Polynomial((1.0, 1.0))
        q = Polynomial((-1.0, 1.0))
        assert (p + q).coeffs == (0.0, 2.0)
        assert (p * q).coeffs == (-1.0, 0.0, 1.0)

    def test_compose(self):
        # (x^2)(2 + 3v) = 4 + 12v + 9v^2
        outer = Polynomial((0.0, 0.0, 1.0))
        inner = Polynomial((2.0, 3.0))
        assert outer.compose(inner).coeffs == (4.0, 12.0, 9.0)

    @given(st.lists(finite_floats, min_size=1, max_size=5),
           st.lists(finite_floats, min_size=1, max_size=3),
           finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_compose_evaluation_property(self, outer, inner, x):
        p, q = Polynomial(tuple(outer)), Polynomial(tuple(inner))
        lhs = p.compose(q)(x)
        rhs = p(q(x))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale

    @given(st.lists(finite_floats, min_size=1, max_size=6),
           st.lists(finite_floats, min_size=1, max_size=6), finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_mul_evaluation_property(self, a, b, x):
        p, q = Polynomial(tuple(a)), Polynomial(tuple(b))
        lhs = (p * q)(x)
        rhs = p(x) * q(x)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


class TestPolynomialScalarPath:
    """A plain float takes a pure-float Horner loop; it must reproduce the
    numpy path bit for bit, signed zeros, infinities and NaN included."""

    @staticmethod
    def bits(x: float) -> bytes:
        return np.float64(x).tobytes()

    def test_matches_array_path_bitwise(self):
        rng = np.random.default_rng(11)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e-320]
        polys = [Polynomial(()), Polynomial((0.0,)), Polynomial((2.5,)),
                 Polynomial((-0.0, 0.0, 1.0))]
        for _ in range(300):
            deg = int(rng.integers(0, 8))
            c = rng.normal(size=deg + 1) * 10.0 ** rng.integers(-3, 4, size=deg + 1)
            c[rng.random(deg + 1) < 0.2] = 0.0
            polys.append(Polynomial(tuple(c)))
        xs = specials + [float(v) for v in rng.normal(size=40) * 10.0]
        with np.errstate(all="ignore"):
            for p in polys:
                for x in xs:
                    got = p(x)
                    assert type(got) is float
                    ref = float(p(np.array(x)))
                    assert self.bits(got) == self.bits(ref) or (
                        math.isnan(got) and math.isnan(ref)), (p.coeffs, x)

    def test_zero_and_constant_polynomials(self):
        assert self.bits(Polynomial(())(math.inf)) == self.bits(0.0)
        assert Polynomial((4.0,))(-3.0) == 4.0
        assert math.isnan(Polynomial((4.0,))(math.nan))

    def test_numpy_scalars_keep_numpy_path(self):
        p = Polynomial((1.0, -2.0, 3.0))
        assert p(np.float64(2.0)) == 9.0
        assert np.array_equal(p(np.array([2.0])), np.array([9.0]))


# ---------------------------------------------------------------------------
# MarketScenario


class TestMarketScenario:
    def test_constant_broadcast(self):
        s = MarketScenario(r=0.0, theta=0.3, sigma=0.2, T=1.0, x0=1.0,
                           grid_n=4)
        assert s.r.shape == (5,)
        assert np.all(s.theta == 0.3)
        for name, value in (("r", 0.0), ("theta", 0.3), ("sigma", 0.2)):
            assert getattr(s, name).tobytes() == np.full(5, value).tobytes()
        assert s.dt == 0.25
        assert np.array_equal(s.times, np.linspace(0.0, 1.0, 5))

    def test_scalar_inputs_broadcast_in_main_constructor(self):
        s = MarketScenario(r=0.01, theta=0.3, sigma=0.2, T=2.0, x0=1.0, grid_n=3)
        assert s.r.shape == (4,)

    def test_array_length_mismatch(self):
        with pytest.raises(GridMismatch):
            MarketScenario(r=np.zeros(3), theta=0.3, sigma=0.2, T=1.0, x0=1.0,
                           grid_n=4)

    def test_invalid_horizon_and_grid(self):
        with pytest.raises(ValidationError):
            MarketScenario(0.0, 0.3, 0.2, T=0.0, x0=1.0, grid_n=4)
        with pytest.raises(ValidationError):
            MarketScenario(0.0, 0.3, 0.2, T=1.0, x0=1.0, grid_n=0)
        # a bool or non-integral count is refused, never truncated
        for grid_n in (2.5, 4.0, True, np.float64(4.0)):
            with pytest.raises(ValidationError, match="grid_n must be an integer"):
                MarketScenario(0.0, 0.3, 0.2, T=1.0, x0=1.0, grid_n=grid_n)

    def test_numpy_integer_grid_n_accepted(self):
        assert MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, np.int64(4)).r.shape == (5,)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            MarketScenario(r=np.array([0.0, np.nan, 0.0]), theta=0.3, sigma=0.2,
                           T=1.0, x0=1.0, grid_n=2)

    def test_arrays_read_only(self):
        s = MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            s.theta[0] = 9.9

    def test_times_built_once_read_only(self):
        s = MarketScenario(0.0, 0.3, 0.2, 3.7, 1.0, 7)
        times = s.times
        assert s.times is times
        assert not times.flags.writeable
        with pytest.raises(ValueError):
            times[1] = 0.5
        assert times.tobytes() == np.linspace(0.0, 3.7, 8).tobytes()

    def test_grid_index(self):
        s = MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, 100)
        assert s.grid_index(0.0) == 0
        assert s.grid_index(0.37) == 37
        assert s.grid_index(1.0) == 100
        with pytest.raises(OffGridTime):
            s.grid_index(0.375)
        with pytest.raises(OffGridTime):
            s.grid_index(1.01)
        # so is a time whose t / dt cannot be rounded to an int
        for t in (math.nan, math.inf, -math.inf, 1e308):
            with pytest.raises(OffGridTime):
                s.grid_index(t)


class TestRateIntegration:
    def test_constant_rate_closed_form(self):
        s = MarketScenario(r=0.05, theta=0.3, sigma=0.2, T=1.0, x0=1.0,
                           grid_n=100)
        R = rate_to_horizon(s)
        # left-constant integral of a constant rate is exact
        assert abs(R[0] - 0.05) < 1e-15
        assert R[-1] == 0.0

    def test_piecewise_rate_hand_oracle(self):
        # r = 0.1 on [0, 0.5), 0.3 on [0.5, 1): R(0) = 0.05 + 0.15 = 0.2
        r = np.array([0.1, 0.1, 0.3, 0.3, 0.0])
        s = MarketScenario(r=r, theta=0.3, sigma=0.2, T=1.0, x0=1.0, grid_n=4)
        R = rate_to_horizon(s)
        assert abs(R[0] - 0.2) < 1e-15
        assert abs(R[2] - 0.15) < 1e-15

    def test_rate_to_horizon_equals_backward_loop_bitwise(self):
        rng = np.random.default_rng(8)
        r = rng.normal(0.0, 0.05, 2001)
        r[rng.random(2001) < 0.05] = -0.0
        r[1999] = -0.0  # the backward loop starts from +0.0: R[1999] is +0.0
        s = MarketScenario(r=r, theta=0.3, sigma=0.2, T=3.0, x0=1.0, grid_n=2000)
        ref = np.zeros(2001)
        for i in range(1999, -1, -1):
            ref[i] = ref[i + 1] + s.r[i] * s.dt
        assert rate_to_horizon(s).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# objectives


class TestObjectiveSpec:
    def test_term_merging_and_sorting(self):
        t = ObjectiveTerm(((4, 1), (2, 1), (2, 1)), -0.5)
        assert t.factors == ((2, 2), (4, 1))
        assert t.degree_in_mean() == 0
        assert t.max_index() == 4

    def test_term_validation(self):
        with pytest.raises(UnsupportedOrder):
            ObjectiveTerm(((9, 1),), 1.0)
        with pytest.raises(UnsupportedOrder):
            ObjectiveTerm(((0, 1),), 1.0)
        with pytest.raises(ValidationError):
            ObjectiveTerm(((2, 0),), 1.0)
        with pytest.raises(ValidationError):
            ObjectiveTerm(((2, 1),), math.inf)
        # an index or exponent is never truncated: (2.5, 1) is not q_2
        for factor in ((2.5, 1), (2.0, 1), (True, 1), (2, 1.5), (2, True)):
            with pytest.raises(ValidationError, match="must be an integer"):
                ObjectiveTerm((factor,), -1.0)

    def test_numpy_integer_factors_accepted(self):
        t = ObjectiveTerm(((np.int64(2), np.int32(1)),), -1.0)
        assert t.factors == ((2, 1),)
        assert type(t.factors[0][0]) is int

    def test_zero_terms_dropped_and_order_derived(self):
        obj = ObjectiveSpec("central", (
            ObjectiveTerm(((1, 1),), 1.0),
            ObjectiveTerm(((3, 1),), 0.0),
            ObjectiveTerm(((4, 1),), -0.5),
        ))
        assert len(obj.terms) == 2
        assert obj.max_order == 4

    def test_order_is_derived_not_accepted(self):
        with pytest.raises(TypeError):
            ObjectiveSpec("central", (ObjectiveTerm(((6, 1),), 1.0),), max_order=4)
        assert ObjectiveSpec("central", (ObjectiveTerm(((6, 1),), 1.0),)).max_order == 6
        # an objective with no terms left still has the order of its variance
        assert ObjectiveSpec("central", (ObjectiveTerm(((1, 1),), 0.0),)).max_order == 2

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            ObjectiveSpec("raw", (ObjectiveTerm(((2, 1),), -1.0),))

    def test_weight_accessors(self):
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0, 4: -0.5})
        assert obj.mean_weight() == 1.0
        assert obj.pure_weight(2) == -1.0
        assert obj.pure_weight(4) == -0.5
        assert obj.pure_weight(3) == 0.0
        assert all(t.degree_in_mean() == 0 for t in obj.risk_terms())


class TestGaussianRiskPolynomial:
    def test_mean_variance(self):
        G = gaussian_risk_polynomial(MV)
        assert G.coeffs == (0.0, -1.0)

    def test_raw_m4_central(self):
        # -m2 - 0.5 m4 -> -V - 1.5 V^2 under Gaussian closure
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0, 4: -0.5})
        G = gaussian_risk_polynomial(obj)
        assert G.coeffs == (0.0, -1.0, -1.5)

    def test_kurtosis_cumulant_is_affine(self):
        # cumulants k4 vanish on the Gaussian family
        obj = ObjectiveSpec.from_weights("cumulant", {1: 1.0, 2: -1.0, 4: -0.8})
        G = gaussian_risk_polynomial(obj)
        assert G.coeffs == (0.0, -1.0)

    def test_odd_central_terms_vanish(self):
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0, 3: 0.7, 5: -0.2})
        G = gaussian_risk_polynomial(obj)
        assert G.coeffs == (0.0, -1.0)

    def test_product_term(self):
        # -0.2 m2 m4 -> -0.2 * 3 V^3
        obj = ObjectiveSpec("central", (
            ObjectiveTerm(((1, 1),), 1.0),
            ObjectiveTerm(((2, 1),), -1.0),
            ObjectiveTerm(((2, 1), (4, 1)), -0.2),
        ))
        G = gaussian_risk_polynomial(obj)
        assert G.coeff(1) == -1.0
        assert G.coeff(3) == -0.2 * 3.0

    def test_high_power_term(self):
        # m2^8 -> V^8: exercises power accumulation beyond base orders
        obj = ObjectiveSpec("central", (
            ObjectiveTerm(((1, 1),), 1.0),
            ObjectiveTerm(((2, 1),), -1.0),
            ObjectiveTerm(((2, 8),), 0.25),
        ))
        G = gaussian_risk_polynomial(obj)
        assert G.coeff(8) == 0.25


# ---------------------------------------------------------------------------
# strategies and validation


class TestStrategyGrid:
    def test_constant_and_scaled(self):
        s = MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, 4)
        u = StrategyGrid.constant(s, 2.0)
        assert np.all(u.values == 2.0)
        assert np.all(u.scaled(1.1).values == 2.2)

    def test_check_grid(self):
        s4 = MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, 4)
        s5 = MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, 5)
        u = StrategyGrid.constant(s4, 1.0)
        u.check_grid(s4)
        with pytest.raises(GridMismatch):
            u.check_grid(s5)

    def test_shape_and_finiteness(self):
        for values in (np.zeros(1), np.zeros((2, 3)), np.float64(1.0)):
            with pytest.raises(GridMismatch):
                StrategyGrid(values)
        with pytest.raises(ValidationError):
            StrategyGrid(np.array([1.0, np.inf]))


class TestValidateScenario:
    def setup_method(self):
        self.s = MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, 10)

    def test_accepts_mv(self):
        assert validate_scenario(self.s, MV) is None

    def test_sigma_floor(self):
        tiny = MarketScenario(0.0, 0.3, 1e-12, 1.0, 1.0, 10)
        with pytest.raises(SigmaTooSmall):
            validate_scenario(tiny, MV)

    def test_nonlinear_mean_rejected(self):
        obj = ObjectiveSpec("central", (
            ObjectiveTerm(((1, 2),), 1.0),
            ObjectiveTerm(((2, 1),), -1.0),
        ))
        with pytest.raises(NonAffineMeanTerm):
            validate_scenario(self.s, obj)

    def test_mean_risk_product_rejected(self):
        obj = ObjectiveSpec("central", (
            ObjectiveTerm(((1, 1), (2, 1)), 1.0),
            ObjectiveTerm(((2, 1),), -1.0),
        ))
        with pytest.raises(NonAffineMeanTerm):
            validate_scenario(self.s, obj)

    def test_missing_variance_term_rejected(self):
        obj = ObjectiveSpec("central", (
            ObjectiveTerm(((1, 1),), 1.0),
            ObjectiveTerm(((4, 1),), -0.5),
        ))
        with pytest.raises(EmptyRiskTerm):
            validate_scenario(self.s, obj)

    def test_variance_inside_product_is_enough(self):
        obj = ObjectiveSpec("central", (
            ObjectiveTerm(((1, 1),), 1.0),
            ObjectiveTerm(((2, 1), (4, 1)), -0.2),
        ))
        validate_scenario(self.s, obj)


# ---------------------------------------------------------------------------
# moment <-> cumulant transforms


def cumulants_to_moments(cumulants) -> list[float]:
    """The inverse of moments_to_cumulants, orders 2..8: the round-trip oracle."""
    k2, k3, k4, k5, k6, k7, k8 = (list(cumulants) + [0.0] * 7)[:7]
    m = [
        k2,
        k3,
        k4 + 3.0 * k2 ** 2,
        k5 + 10.0 * k3 * k2,
        k6 + 15.0 * k4 * k2 + 10.0 * k3 ** 2 + 15.0 * k2 ** 3,
        k7 + 21.0 * k5 * k2 + 35.0 * k4 * k3 + 105.0 * k3 * k2 ** 2,
        k8 + 28.0 * k6 * k2 + 56.0 * k5 * k3 + 35.0 * k4 ** 2
        + 210.0 * k4 * k2 ** 2 + 280.0 * k3 ** 2 * k2 + 105.0 * k2 ** 4,
    ]
    return m[: len(cumulants)]


class TestMomentCumulantTransforms:
    def test_gaussian_known_values(self):
        # N(mu, V): m = [V, 0, 3V^2, 0, 15V^3, 0, 105V^4] -> k = [V, 0, ..., 0]
        V = 0.7
        m = [V, 0.0, 3.0 * V ** 2, 0.0, 15.0 * V ** 3, 0.0, 105.0 * V ** 4]
        k = moments_to_cumulants(m)
        assert abs(k[0] - V) < 1e-15
        assert all(abs(x) < 1e-12 for x in k[1:])

    def test_excess_kurtosis_identity(self):
        k = moments_to_cumulants([2.0, 0.5, 13.0])
        assert k[2] == 13.0 - 3.0 * 4.0

    def test_exponential_distribution_oracle(self):
        # Exp(1): cumulants k_n = (n-1)!; central moments via subfactorial-free
        # direct integers: m2..m6 = 1, 2, 9, 44, 265
        k = moments_to_cumulants([1.0, 2.0, 9.0, 44.0, 265.0])
        assert k == pytest.approx([1.0, 2.0, 6.0, 24.0, 120.0], abs=1e-12)
        m = cumulants_to_moments([1.0, 2.0, 6.0, 24.0, 120.0])
        assert m == pytest.approx([1.0, 2.0, 9.0, 44.0, 265.0], abs=1e-12)

    def test_order_bounds(self):
        with pytest.raises(UnsupportedOrder, match=r"^order 1 outside \[2, 8\]$"):
            moments_to_cumulants([])
        with pytest.raises(UnsupportedOrder, match=r"^order 9 outside \[2, 8\]$"):
            moments_to_cumulants([1.0] * 8)

    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                    min_size=1, max_size=7))
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, k):
        m = cumulants_to_moments(k)
        back = moments_to_cumulants(m)
        for a, b in zip(k, back):
            assert abs(a - b) <= 1e-7 * max(1.0, abs(a))

    def test_partial_orders(self):
        assert moments_to_cumulants([1.5]) == [1.5]
        assert cumulants_to_moments([1.5, 0.3]) == [1.5, 0.3]
        # order 4 only sees m2..m4
        assert moments_to_cumulants([1.0, 0.0, 3.0]) == [1.0, 0.0, 0.0]

    def test_overflow_is_typed(self):
        with pytest.raises(ValidationError, match="overflow"):
            moments_to_cumulants([1e200, 0.0, 1e200])  # m4 - 3 m2^2
        with pytest.raises(ValidationError, match="overflow"):
            moments_to_cumulants([1e110, 0.0, 0.0, 0.0, 0.0])  # 30 m2^3 in k6
        # m2^4 overflows only in k8, which order 2 does not return
        assert moments_to_cumulants([1e100]) == [1e100]

    def test_max_order_constant(self):
        assert MAX_ORDER == 8
