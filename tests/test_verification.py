"""Spike-gain certification and the finite-deviation oracle cross-check."""
import warnings

import numpy as np
import pytest

import eqmo.equilibrium
import eqmo.model
from eqmo.corpus import (
    kurtosis_cumulant,
    mv_base,
    mv_discounted,
    random_curved_corpus,
    raw_m4,
    theta_zero,
)
from eqmo.equilibrium import backward_sweep, mv_closed_form, phi_profile
from eqmo.errors import EpsNotOnGrid, EqmoError, OffGridTime, OutOfRange, ValidationError
from eqmo.model import StrategyGrid
from eqmo.moments import conditional_moments, objective_value
from eqmo.verify import equilibrium_report, finite_eps_check


class TestEquilibriumReport:
    def test_mv_passes_exactly(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        report = equilibrium_report(case.scenario, case.objective, u)
        assert report.passed
        assert report.max_phi == 0.0
        assert report.witness is None
        assert report.per_t_max.shape == (case.scenario.grid_n + 1,)

    def test_scaled_strategy_fails_with_witness(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0).scaled(1.1)
        report = equilibrium_report(case.scenario, case.objective, u)
        assert not report.passed
        t, v, phi = report.witness
        assert phi == report.max_phi > 0.0
        # scaling by 1+e makes a = -2 b u* e at every t; the vertex gain is
        # independent of t here: a^2/(4|b|) = 0.04 * (3.75 * 0.1)^2
        assert phi == pytest.approx(0.04 * 0.375 ** 2, rel=1e-12)
        assert v == pytest.approx(-0.375, rel=1e-12)

    def test_downscaled_strategy_also_fails(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0).scaled(0.9)
        report = equilibrium_report(case.scenario, case.objective, u)
        assert not report.passed

    def test_theta_zero_scaling_invariance(self):
        # with no risk premium every scaled zero strategy stays an equilibrium:
        # this is the boundary case the necessity property must exclude
        case = theta_zero()
        u = backward_sweep(case.scenario, case.objective, "explicit").strategy
        report = equilibrium_report(case.scenario, case.objective, u.scaled(1.1))
        assert report.passed

    def test_tolerance_is_respected(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0).scaled(1.0 + 1e-7)
        tight = equilibrium_report(case.scenario, case.objective, u,
                                   tolerance=1e-16)
        loose = equilibrium_report(case.scenario, case.objective, u,
                                   tolerance=1e-3)
        assert not tight.passed
        assert loose.passed

    @pytest.mark.parametrize("tolerance", [np.nan, -1e-8, np.inf])
    def test_bad_tolerance_is_refused(self, tolerance):
        # max Phi >= 0, so a negative tolerance would fail every strategy
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        with pytest.raises(ValidationError, match="tolerance"):
            equilibrium_report(case.scenario, case.objective, u, tolerance=tolerance)

    def test_raw_m4_swept_strategy_passes_at_1e8(self):
        case = raw_m4(grid_n=100)
        sweep = backward_sweep(case.scenario, case.objective, "implicit")
        report = equilibrium_report(case.scenario, case.objective,
                                    sweep.strategy, tolerance=1e-8)
        assert report.passed


class TestFiniteEpsCheck:
    def test_slope_matches_phi_for_mv(self):
        case = mv_base()
        u = StrategyGrid.constant(case.scenario, 4.0)
        dt = case.scenario.dt
        a, b = phi_profile(case.scenario, case.objective, u)
        i = case.scenario.grid_index(0.5)
        for v in (-0.25, 0.1, 1.0):
            for k in (1, 2, 4):
                slope = finite_eps_check(case.scenario, case.objective, u,
                                         0.5, v, [k * dt])[0]
                assert abs(slope - (b[i] * v + a[i]) * v) < 1e-10

    def test_equilibrium_strategy_has_nonpositive_slopes(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        dt = case.scenario.dt
        slopes = finite_eps_check(case.scenario, case.objective, u, 0.25, 0.5,
                                  [dt, 2 * dt, 8 * dt])
        assert all(s <= 1e-12 for s in slopes)

    def test_discounted_case_smallest_eps(self):
        # with r != 0 the spike response is exact only at the one-step width
        case = mv_discounted()
        u = mv_closed_form(case.scenario, 1.0)
        dt = case.scenario.dt
        a, b = phi_profile(case.scenario, case.objective, u)
        i = case.scenario.grid_index(0.5)
        slope = finite_eps_check(case.scenario, case.objective, u, 0.5, 0.3,
                                 [dt])[0]
        assert abs(slope - (b[i] * 0.3 + a[i]) * 0.3) < 1e-10

    def test_eps_must_sit_on_grid(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        with pytest.raises(EpsNotOnGrid):
            finite_eps_check(case.scenario, case.objective, u, 0.5, 0.1,
                             [case.scenario.dt * 1.5])
        with pytest.raises(EpsNotOnGrid):
            finite_eps_check(case.scenario, case.objective, u, 0.5, 0.1, [0.0])
        for eps in (np.nan, np.inf, -np.inf):
            with pytest.raises(EpsNotOnGrid):
                finite_eps_check(case.scenario, case.objective, u, 0.5, 0.1, [eps])

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_off_grid(self, t):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        with pytest.raises(OffGridTime):
            finite_eps_check(case.scenario, case.objective, u, t, 0.1,
                             [case.scenario.dt])

    def test_window_must_fit_horizon(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        with pytest.raises(OutOfRange):
            finite_eps_check(case.scenario, case.objective, u, 0.99, 0.1,
                             [case.scenario.dt * 2])

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
    def test_non_finite_deviation_is_refused(self, v):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        dt = case.scenario.dt
        with pytest.raises(ValidationError, match="strategy values must be finite"):
            finite_eps_check(case.scenario, case.objective, u, 0.5, v, [dt, 2 * dt])
        # no window, no perturbed strategy: nothing to refuse
        assert finite_eps_check(case.scenario, case.objective, u, 0.5, v, []) == []

    @pytest.mark.parametrize("make, v", [(mv_base, 1e200), (raw_m4, 1e200), (raw_m4, 1e150),
                                         (raw_m4, 1e160)])
    def test_huge_deviation_is_a_typed_error(self, make, v):
        # at 1e200 and 1e160 (u + v)^2 overflows to inf in the variance
        # increment; at 1e150 the variance stays finite and raw_m4's 3 V^2
        # overflows instead. No numpy warning comes first: under -W error it
        # would surface as an untyped exception.
        case = make()
        u = mv_closed_form(case.scenario, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EqmoError):
                finite_eps_check(case.scenario, case.objective, u, 0.5, v,
                                 [case.scenario.dt])

    def test_huge_finite_deviation_gives_a_finite_slope(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        slope = finite_eps_check(case.scenario, case.objective, u, 0.5, 1e150,
                                 [case.scenario.dt])[0]
        assert np.isfinite(slope) and slope < 0.0

    def test_quadratic_shape_in_v(self):
        # slopes averaged over eps behave as a concave parabola with max at 0
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        dt = case.scenario.dt
        vs = np.array([-1.0, -0.5, 0.5, 1.0])
        slopes = [finite_eps_check(case.scenario, case.objective, u, 0.5, v,
                                   [dt])[0] for v in vs]
        assert slopes[0] < slopes[1] < 0.0
        assert slopes[3] < slopes[2] < 0.0
        assert abs(slopes[0] - slopes[3]) < 1e-12  # symmetric at equilibrium


class TestOracleOnCurvedObjectives:
    """On a curved risk part the one-step slope misses Phi by O(eps) along
    eps = dt -> 0; at a fixed dt the miss is affine in eps = k dt."""

    CASES = {
        "raw_m4": lambda n: raw_m4(grid_n=n),
        "curved_0": lambda n: random_curved_corpus(count=1, grid_n=n)[0],
    }
    VS = (-0.5, 0.25, 1.0)

    @staticmethod
    def gaps(case, ks, v):
        s = case.scenario
        u = backward_sweep(s, case.objective, "implicit").strategy
        i = s.grid_n // 4
        t = float(s.times[i])
        a, b = phi_profile(s, case.objective, u)
        phi = (b[i] * v + a[i]) * v
        slopes = finite_eps_check(s, case.objective, u, t, v, [k * s.dt for k in ks])
        return [slope - phi for slope in slopes]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_step_gap_halves_with_dt(self, name):
        for v in self.VS:
            gaps = [abs(self.gaps(self.CASES[name](n), [1], v)[0])
                    for n in (200, 400, 800)]
            assert gaps[0] > 1e-6, (v, gaps)  # curvature shows: not round-off
            for coarse, fine in zip(gaps, gaps[1:]):
                assert 0.45 < fine / coarse < 0.55, (v, gaps)

    def test_gap_is_affine_in_eps_at_fixed_dt(self):
        gaps = self.gaps(self.CASES["raw_m4"](400), [1, 2, 4, 8], 1.0)
        per_k = [(b - a) / (kb - ka) for a, b, ka, kb
                 in zip(gaps, gaps[1:], (1, 2, 4), (2, 4, 8))]
        assert all(d < 0.0 for d in per_k)
        assert max(per_k) / min(per_k) > 0.95, per_k


def literal_slopes(scenario, objective, strategy, t, v, ks):
    """The oracle as its definition reads: a perturbed StrategyGrid per window
    (v added on steps [i0, i0 + k)) and whole-grid conditional moments for it
    and for the base."""
    i0 = scenario.grid_index(t)
    n = objective.max_order
    base = objective_value(objective, conditional_moments(scenario, strategy, t, scenario.x0, n))
    slopes = []
    for k in ks:
        values = strategy.values.copy()
        values[i0:i0 + k] += v
        pert = StrategyGrid(values)
        J = objective_value(objective, conditional_moments(scenario, pert, t, scenario.x0, n))
        slopes.append((J - base) / (k * scenario.dt))
    return slopes


class TestOracleMatchesLiteralPerturbation:
    """finite_eps_check sums each window onto the base's suffix accumulation;
    its slopes must be bitwise those of the literal perturbed strategy."""

    WIDTHS = (1, 2, 4, 8)
    VS = (-0.5, 0.25, 1.0, 3.0)

    def assert_bitwise(self, case, strategy):
        s = case.scenario
        n = s.grid_n
        # t = 0, an interior time, a window of width 8 ending at T, t_{N-1}
        for i in (0, n // 3, n - max(self.WIDTHS), n - 1):
            t = float(s.times[i])
            ks = [k for k in self.WIDTHS if i + k <= n]
            for v in self.VS:
                got = finite_eps_check(s, case.objective, strategy, t, v,
                                       [k * s.dt for k in ks])
                assert got == literal_slopes(s, case.objective, strategy, t, v, ks), (i, v)

    def test_random_curved_corpus(self):
        # central m4, m6 and the product term m2^2, on time-varying markets;
        # a seeded rough strategy, since some cases have no swept equilibrium
        rng = np.random.default_rng(5)
        for case in random_curved_corpus(count=12):
            u = StrategyGrid(rng.uniform(-2.0, 6.0, case.scenario.grid_n + 1))
            self.assert_bitwise(case, u)

    def test_kurtosis_cumulant(self):
        case = kurtosis_cumulant()
        self.assert_bitwise(case, backward_sweep(case.scenario, case.objective,
                                                 "implicit").strategy)

    def test_discounted_market(self):
        case = mv_discounted()
        assert np.any(case.scenario.r != 0.0)
        self.assert_bitwise(case, mv_closed_form(case.scenario, 1.0).scaled(1.1))

    def test_one_growth_factor_pass_per_call(self, monkeypatch):
        # one whole-grid e^R pass per scenario object, cached on it: every
        # oracle call, base and windows alike, and the sweep read that cache
        calls = []
        real = eqmo.model.growth_factors

        def counted(R):
            calls.append(len(R))
            return real(R)

        for module in (eqmo.model, eqmo.equilibrium):
            monkeypatch.setattr(module, "growth_factors", counted)
        case = mv_discounted()
        s = case.scenario
        u = mv_closed_form(s, 1.0)
        assert calls == [s.grid_n + 1]  # e^{-R}, which the cache does not hold
        for t in (0.25, 0.5, 0.75):
            slopes = finite_eps_check(s, case.objective, u, t, 0.5,
                                      [k * s.dt for k in (1, 2, 4, 8, 16)])
            assert len(slopes) == 5
        backward_sweep(s, case.objective, "explicit")
        assert calls == [s.grid_n + 1] * 2
        fresh = mv_discounted().scenario
        finite_eps_check(fresh, case.objective, u, 0.25, 0.5, [s.dt])
        assert calls == [s.grid_n + 1] * 3
