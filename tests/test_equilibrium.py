"""Backward sweep, per-step stationarity, and perturbation-gain quadratics."""
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmo import equilibrium, roots
from eqmo.corpus import (
    mv_base,
    mv_discounted,
    named_corpus,
    random_affine_corpus,
    random_curved_corpus,
    raw_m4,
    theta_zero,
    time_varying,
)
from eqmo.equilibrium import (
    _compose_linear,
    _stationarity_coeffs,
    _stationary_root,
    backward_sweep,
    mv_closed_form,
    phi_polynomial,
    phi_profile,
    stationarity_solve_step,
)
from eqmo.errors import (
    AmbiguousRoot,
    EmptyRiskTerm,
    NoRealRoot,
    NoSecondOrderTerm,
    SolverError,
    ValidationError,
)
from eqmo.model import (
    MarketScenario,
    ObjectiveSpec,
    Polynomial,
    StrategyGrid,
    gaussian_risk_polynomial,
    mean_variance_objective,
    rate_to_horizon,
)
from eqmo.moments import moments_to_go
from eqmo.roots import _nearest_root as nearest_root
from eqmo.scenario_io import parse_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def full_isolation():
    """Patch out the certified Newton path: every implicit step isolates all roots."""
    return mock.patch.object(roots, "_nearest_root", lambda *a, **k: None)


def step_calls():
    """``real_roots`` at its ``eqmo.equilibrium`` binding, spied on: the
    context value's ``call_count`` counts root-finder calls of the steps."""
    return mock.patch.object(equilibrium, "real_roots", wraps=equilibrium.real_roots)


def isolations():
    """``real_roots`` in ``eqmo.roots``, spied on: the isolation of a
    polynomial of degree >= 2 recurses into its derivative through this
    binding, so a ``call_count`` of 0 means no step isolated every root."""
    return mock.patch.object(roots, "real_roots", wraps=roots.real_roots)


class TestPhiPolynomial:
    def test_mv_equilibrium_profile(self):
        case = mv_base()
        u = StrategyGrid.constant(case.scenario, 3.75)
        phi = phi_polynomial(case.scenario, case.objective, u, 0.5)
        # 0.3 v - 0.04 (7.5 v + v^2) = -0.04 v^2 exactly up to float eps
        assert phi.coeff(0) == 0.0
        assert abs(phi.coeff(1)) < 1e-15
        assert abs(phi.coeff(2) + 0.04) < 1e-15

    def test_perturbed_control_profile(self):
        case = mv_base()
        u = StrategyGrid.constant(case.scenario, 4.0)
        phi = phi_polynomial(case.scenario, case.objective, u, 0.0)
        # 0.3 v - 0.04 (8 v + v^2)
        assert abs(phi.coeff(1) + 0.02) < 1e-15
        assert abs(phi.coeff(2) + 0.04) < 1e-15
        assert phi(0.0) == 0.0

    def test_mean_only_objective_is_linear_gain(self):
        s = mv_base().scenario
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0})
        # discounting off, theta constant: linear coefficient theta e^R at u = u*
        # for a pure-mean check use the profile's algebra directly at b = 0
        a, b = phi_profile(s, obj, StrategyGrid.constant(s, 3.75))
        assert np.allclose(b, -0.04, atol=1e-15)
        assert np.allclose(a, 0.0, atol=1e-14)


class TestStationarityStep:
    def setup_method(self):
        self.s = mv_base().scenario
        self.obj = mean_variance_objective()

    def test_mv_closed_form_value(self):
        u = stationarity_solve_step(self.s, self.obj, 0.3, 0.5, 0.0,
                                    "explicit")
        assert abs(u - 3.75) < 1e-12

    def test_raw_m4_terminal(self):
        case = raw_m4()
        u = stationarity_solve_step(case.scenario, case.objective, 0.0,
                                    case.scenario.T, 0.0, "implicit")
        assert abs(u - 3.75) < 1e-12

    def test_odd_only_weights_no_second_order(self):
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 3: 0.5})
        with pytest.raises(NoSecondOrderTerm):
            stationarity_solve_step(self.s, obj, 0.1, 0.5, 0.0, "explicit")
        with pytest.raises(NoSecondOrderTerm):
            stationarity_solve_step(self.s, obj, 0.1, 0.5, 0.0, "implicit")

    def test_risk_seeking_objective_has_no_maximizer_branch(self):
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: 1.0})
        with pytest.raises(AmbiguousRoot) as exc_info:
            stationarity_solve_step(self.s, obj, 0.1, 0.5, 0.0, "implicit")
        assert exc_info.value.candidates

    def test_theta_zero_shortcut(self):
        case = theta_zero()
        u = stationarity_solve_step(case.scenario, case.objective, 0.2,
                                    0.5, 1.0, "implicit")
        assert u == 0.0

    def test_schemes_agree_for_mv(self):
        # D is constant for MV, so substitution changes nothing
        ue = stationarity_solve_step(self.s, self.obj, 0.3, 0.5, 0.0,
                                     "explicit")
        ui = stationarity_solve_step(self.s, self.obj, 0.3, 0.5, 0.0,
                                     "implicit")
        assert abs(ue - ui) < 1e-12

    def test_standalone_errors_carry_step(self):
        # t = 0.5 is grid index 50 of the 100-step mv_base grid
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: 1.0})
        with pytest.raises(AmbiguousRoot) as exc_info:
            stationarity_solve_step(self.s, obj, 0.1, 0.5, 0.0, "implicit")
        assert exc_info.value.step == 50
        assert exc_info.value.candidates
        odd = ObjectiveSpec.from_weights("central", {1: 1.0, 3: 0.5})
        with pytest.raises(NoSecondOrderTerm) as exc_info:
            stationarity_solve_step(self.s, odd, 0.1, 0.5, 0.0, "explicit")
        assert exc_info.value.step == 50

    def test_scheme_validation(self):
        with pytest.raises(ValidationError):
            stationarity_solve_step(self.s, self.obj, 0.0, 0.5, 0.0, "rk4")


class TestFloatStationarityCoefficients:
    """The implicit step builds its coefficients from plain floats; they must
    equal the Polynomial-object construction bit for bit."""

    @staticmethod
    def reference(w1, Dpoly, V_plus, theta, g, s, dt):
        Dw = Dpoly.compose(Polynomial((V_plus, dt * s)))
        coeffs = [0.0] * (2 * max(Dw.degree, 0) + 2)
        coeffs[0] = w1 * g * theta
        for j, c in enumerate(Dw.coeffs):
            coeffs[2 * j + 1] += 2.0 * s * c
        return Polynomial(tuple(coeffs)).coeffs

    def test_compose_linear_matches_polynomial_compose(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            deg = int(rng.integers(0, 6))
            outer = rng.normal(size=deg + 1) * 10.0 ** rng.integers(-4, 4, size=deg + 1)
            outer[rng.random(deg + 1) < 0.25] = 0.0
            outer = Polynomial(tuple(outer))
            a0, a1 = (float(v) for v in rng.normal(size=2))
            for inner in ((a0, a1), (0.0, a1), (-0.0, a1), (a0, 0.0), (0.0, 0.0)):
                ref = outer.compose(Polynomial(inner)).coeffs
                got = tuple(_compose_linear(outer.coeffs, *inner))
                assert np.array(got).tobytes() == np.array(ref).tobytes()

    def test_stationarity_coeffs_match_compose_reference(self):
        rng = np.random.default_rng(22)
        cases = [case.objective for case in random_curved_corpus(count=20)]
        cases += [raw_m4().objective, mean_variance_objective()]
        for objective in cases:
            Dpoly = gaussian_risk_polynomial(objective).derivative()
            w1 = objective.mean_weight()
            for _ in range(20):
                V_plus = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
                theta, g, sigma = (float(v) for v in rng.uniform(0.05, 1.2, 3))
                s = g * g * sigma ** 2
                dt = float(rng.choice([1e-4, 0.01, 0.25]))
                got = Polynomial(_stationarity_coeffs(w1, Dpoly, V_plus, theta, g, s, dt))
                ref = self.reference(w1, Dpoly, V_plus, theta, g, s, dt)
                assert np.array(got.coeffs).tobytes() == np.array(ref).tobytes()


class TestBackwardSweep:
    def test_mv_constant(self):
        case = mv_base()
        sweep = backward_sweep(case.scenario, case.objective, "explicit")
        assert np.max(np.abs(sweep.strategy.values - 3.75)) < 1e-12
        assert np.max(sweep.residuals) < 1e-14
        assert np.all(sweep.D == -1.0)
        assert sweep.variance_to_go[-1] == 0.0

    def test_mv_matches_closed_form_bitwise_without_rates(self):
        case = mv_base()
        sweep = backward_sweep(case.scenario, case.objective, "explicit")
        closed = mv_closed_form(case.scenario, 1.0)
        assert np.array_equal(sweep.strategy.values, closed.values)

    def test_discounted_closed_form(self):
        case = mv_discounted()
        sweep = backward_sweep(case.scenario, case.objective, "explicit")
        t = case.scenario.times
        expected = 3.75 * np.exp(-0.05 * (1.0 - t))
        assert np.max(np.abs(sweep.strategy.values - expected)) < 1e-10

    def test_raw_m4_self_consistency(self):
        case = raw_m4(grid_n=50)
        sweep = backward_sweep(case.scenario, case.objective, "implicit")
        u, V = sweep.strategy.values, sweep.variance_to_go
        assert np.max(np.abs(u * (1.0 + 3.0 * V) - 3.75)) < 1e-8
        assert u[-1] == pytest.approx(3.75, abs=1e-12)
        assert np.all(sweep.D <= 0.0)
        assert np.all(np.diff(u) > 0.0)  # u grows toward T as V shrinks

    def test_time_varying_residuals(self):
        case = time_varying()
        sweep = backward_sweep(case.scenario, case.objective, "implicit")
        assert np.max(sweep.residuals) < 1e-10

    def test_solver_error_annotated_with_step(self):
        case = mv_base(grid_n=10)
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: 1.0})
        with pytest.raises(EmptyRiskTerm):
            # validation precedes the sweep when no variance weight exists
            backward_sweep(case.scenario,
                           ObjectiveSpec.from_weights("central", {1: 1.0, 4: -1.0}),
                           "implicit")
        with pytest.raises(AmbiguousRoot) as exc_info:
            backward_sweep(case.scenario, obj, "implicit")
        assert exc_info.value.step == case.scenario.grid_n - 1
        assert "step" in str(exc_info.value)

    def test_all_named_corpus_cases_produce_valid_reports(self):
        from eqmo.verify import equilibrium_report

        for case in named_corpus():
            sweep = backward_sweep(case.scenario, case.objective, "implicit")
            report = equilibrium_report(case.scenario, case.objective,
                                        sweep.strategy)
            assert report.passed, case.name


class TestMvClosedForm:
    def test_oracle(self):
        s = mv_base().scenario
        u = mv_closed_form(s, 1.0)
        assert np.max(np.abs(u.values - 3.75)) < 1e-12

    def test_gamma_validation(self):
        s = mv_base().scenario
        with pytest.raises(ValidationError):
            mv_closed_form(s, 0.0)
        with pytest.raises(ValidationError):
            mv_closed_form(s, -1.0)

    def test_theta_zero(self):
        case = theta_zero()
        assert np.all(mv_closed_form(case.scenario, 2.0).values == 0.0)

    def test_discount_factor(self):
        s = mv_discounted().scenario
        u = mv_closed_form(s, 1.0)
        R = rate_to_horizon(s)
        assert np.allclose(u.values, 3.75 * np.exp(-R), rtol=0.0, atol=1e-12)


class TestRandomizedCorpusProperties:
    def test_sweep_matches_closed_form_on_affine_corpus(self):
        for case in random_affine_corpus(seed=20240811, count=10):
            sweep = backward_sweep(case.scenario, case.objective, "implicit")
            w1 = case.objective.mean_weight()
            w2 = case.objective.pure_weight(2)
            closed = mv_closed_form(case.scenario, -w2 / w1)
            scale = float(np.max(np.abs(closed.values))) or 1.0
            err = np.max(np.abs(sweep.strategy.values - closed.values))
            assert err < 1e-11 * max(1.0, scale), case.name

    @given(st.floats(min_value=0.05, max_value=0.5),
           st.floats(min_value=0.1, max_value=0.6),
           st.floats(min_value=0.0, max_value=0.1),
           st.floats(min_value=0.25, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_mv_property_random_constants(self, theta, sigma, r, gamma2):
        s = MarketScenario.constant(r=r, theta=theta, sigma=sigma, T=1.0,
                                    x0=1.0, grid_n=16)
        obj = mean_variance_objective(gamma2)
        sweep = backward_sweep(s, obj, "explicit")
        closed = mv_closed_form(s, gamma2)
        scale = max(1.0, float(np.max(np.abs(closed.values))))
        assert np.max(np.abs(sweep.strategy.values - closed.values)) < 1e-11 * scale

    # Case 58 of seed 7 sits near a fold of the stationarity polynomial: its
    # implicit max |u| grows like dt^(-1/2) as the grid doubles while max D
    # rises toward 0, so its gap grows instead of halving.
    @pytest.mark.parametrize("seed, not_halving",
                             [(20261017, set()), (7, {"random_curved_58"})])
    def test_curved_gap_to_explicit_shrinks_like_dt(self, seed, not_halving):
        # the schemes differ by evaluating D at V(t_{i+1}) or at V(t_i), an
        # O(dt) change per step: on common grid times the gap shrinks at each
        # doubling of the grid and halves at the finest one, on every case of
        # the corpus that has an equilibrium and no fold (a few seed-7 cases
        # shrink faster than that from 40 to 80 steps, before the O(dt) term
        # dominates)
        grids = (40, 80, 160)
        corpora = [random_curved_corpus(seed=seed, grid_n=n) for n in grids]
        checked = 0
        failing = {}
        for members in zip(*corpora):
            gaps = []
            try:
                for n, case in zip(grids, members):
                    explicit = backward_sweep(case.scenario, case.objective, "explicit")
                    implicit = backward_sweep(case.scenario, case.objective, "implicit")
                    step = n // grids[0]
                    gap = explicit.strategy.values[::step] - implicit.strategy.values[::step]
                    gaps.append(float(np.max(np.abs(gap))))
            except (AmbiguousRoot, NoRealRoot):
                continue
            ratios = [fine / coarse for coarse, fine in zip(gaps, gaps[1:])]
            if not (max(ratios) < 0.6 and ratios[-1] > 0.4):
                failing[members[0].name] = gaps
            checked += 1
        assert set(failing) == not_halving, failing
        assert checked >= 50

    def test_curved_corpus_passes_or_fails_typed(self):
        # curved risk parts on time-varying markets: every implicit sweep is
        # certified by the Phi scan with round-off residuals, or it stops at
        # a named step with a typed error; it never returns a wrong strategy
        from eqmo.verify import equilibrium_report

        cases = random_curved_corpus(seed=20261017, count=60)
        passed = 0
        for case in cases:
            try:
                sweep = backward_sweep(case.scenario, case.objective, "implicit")
            except (AmbiguousRoot, NoRealRoot) as e:
                assert e.step is not None, case.name
                assert 0 <= e.step <= case.scenario.grid_n, case.name
                continue
            report = equilibrium_report(case.scenario, case.objective,
                                        sweep.strategy, tolerance=1e-8)
            assert report.passed, (case.name, report.max_phi)
            assert np.max(sweep.residuals) <= 1e-9, case.name
            passed += 1
        assert passed >= 0.9 * len(cases)


class TestCertifiedNewtonStep:
    """The implicit step tries a certified Newton root from u[i+1] before it
    isolates every root; the outcome must be that of the full isolation."""

    @staticmethod
    def outcome(case):
        try:
            sweep = backward_sweep(case.scenario, case.objective, "implicit")
        except SolverError as e:
            return type(e), e.step
        return sweep.strategy.values

    def test_matches_full_isolation_on_curved_and_named_corpora(self):
        cases = (random_curved_corpus(seed=20261017) + random_curved_corpus(seed=7)
                 + named_corpus())
        failed = 0
        for case in cases:
            fast = self.outcome(case)
            with full_isolation():
                full = self.outcome(case)
            if isinstance(full, tuple) or isinstance(fast, tuple):
                assert fast == full, case.name
                failed += 1
                continue
            rel = np.abs(fast - full) / np.maximum(1.0, np.abs(full))
            assert np.max(rel) <= 1e-14, (case.name, float(np.max(rel)))
        assert 0 < failed < 0.1 * len(cases)

    @pytest.mark.parametrize("name", ["raw_m4", "mvsk"])
    def test_benchmark_sweeps_never_isolate(self, name):
        bundle = parse_scenario(os.path.join(SCENARIOS, f"{name}.scn"), grid_n=5000)
        with step_calls() as calls, isolations() as isolate:
            sweep = backward_sweep(bundle.scenario, bundle.objective, "implicit")
        assert calls.call_count == bundle.scenario.grid_n  # one per implicit step
        assert isolate.call_count == 0
        assert np.max(sweep.residuals) < 1e-12

    def test_degree_one_keeps_closed_form(self):
        case = mv_discounted()
        with step_calls() as calls:
            sweep = backward_sweep(case.scenario, case.objective, "implicit")
        with full_isolation():
            full = backward_sweep(case.scenario, case.objective, "implicit")
        assert calls.call_count == case.scenario.grid_n
        assert sweep.strategy.values.tobytes() == full.strategy.values.tobytes()

    # With g = sigma = dt = 1, V_plus = 0, w1 = 1 and D(V) = d0 + d1 V, the
    # stationarity polynomial is theta + 2 d0 u + 2 d1 u^3; positive roots lie
    # on the maximizer branch (theta > 0 forces D < 0 there).
    @staticmethod
    def step(d0, d1, theta, prev_value):
        return _stationary_root(1.0, Polynomial((d0, d1)), 0.0, theta, 1.0, 1.0,
                                1.0, prev_value, "implicit", False)

    @staticmethod
    def cubic(zeros):
        a, b, c = zeros  # monic (u - a)(u - b)(u - c) with a + b + c = 0
        assert a + b + c == 0.0
        return (a * b + b * c + c * a) / 2.0, 0.5, -a * b * c

    def check_falls_back(self, d0, d1, theta, prev_value):
        with isolations() as isolate:
            got = self.step(d0, d1, theta, prev_value)
        with full_isolation():
            want = self.step(d0, d1, theta, prev_value)
        assert isolate.call_count > 0
        assert got == want
        return got

    def test_close_roots_around_prev_value_fall_back(self):
        d0, d1, theta = self.cubic((1.0, 1.001, -2.001))
        coeffs = _stationarity_coeffs(1.0, Polynomial((d0, d1)), 0.0, theta, 1.0, 1.0, 1.0)
        assert nearest_root(coeffs, 1.0004) is None
        u = self.check_falls_back(d0, d1, theta, 1.0004)
        assert abs(u - 1.0) < 1e-9

    def test_zero_derivative_at_prev_value_falls_back(self):
        # D(V) = -V: theta - 2 u^3 has p'(0) = 0 exactly
        coeffs = _stationarity_coeffs(1.0, Polynomial((0.0, -1.0)), 0.0, 2.0, 1.0, 1.0, 1.0)
        assert nearest_root(coeffs, 0.0) is None
        u = self.check_falls_back(0.0, -1.0, 2.0, 0.0)
        assert abs(u - 1.0) < 1e-12

    def test_inadmissible_certified_root_falls_back(self):
        # Newton from -2.9 certifies the root -3, where D(9) = 2 > 0; the
        # nearest root on the maximizer branch is 1
        d0, d1, theta = self.cubic((1.0, 2.0, -3.0))
        coeffs = _stationarity_coeffs(1.0, Polynomial((d0, d1)), 0.0, theta, 1.0, 1.0, 1.0)
        assert abs(nearest_root(coeffs, -2.9) + 3.0) < 1e-12
        u = self.check_falls_back(d0, d1, theta, -2.9)
        assert abs(u - 1.0) < 1e-12

    def test_standalone_step_on_curved_objective(self):
        case = raw_m4()
        with isolations() as isolate:
            u = stationarity_solve_step(case.scenario, case.objective, 0.2,
                                        0.5, 3.0, "implicit")
        with full_isolation():
            full = stationarity_solve_step(case.scenario, case.objective, 0.2,
                                           0.5, 3.0, "implicit")
        assert isolate.call_count == 0
        assert abs(u - full) <= 1e-15 * abs(full)
        # no maximizer branch: the error still names grid index 50
        seeking = ObjectiveSpec.from_weights("central", {1: 1.0, 2: 1.0, 4: 0.5})
        with pytest.raises(AmbiguousRoot) as exc_info:
            stationarity_solve_step(case.scenario, seeking, 0.1, 0.5, 3.0,
                                    "implicit")
        assert exc_info.value.step == 50
        assert exc_info.value.candidates


class TestGrowthFactors:
    """Every e^{+-R} comes from libm's math.exp, bit for bit."""

    @staticmethod
    def libm(x):
        return np.array([math.exp(v) for v in x.tolist()])

    def setup_method(self):
        self.case = time_varying()
        self.R = rate_to_horizon(self.case.scenario)
        # the sites are only pinned if np.exp would move some of these values
        assert np.any(np.exp(self.R) != self.libm(self.R))
        assert np.any(np.exp(-self.R) != self.libm(-self.R))

    def test_phi_profile(self):
        s, obj = self.case.scenario, self.case.objective
        u = backward_sweep(s, obj, "implicit").strategy
        a, b = phi_profile(s, obj, u)
        g = self.libm(self.R)
        D = gaussian_risk_polynomial(obj).derivative()(moments_to_go(s, u)[1])
        b_ref = D * g * g * s.sigma ** 2
        a_ref = obj.mean_weight() * g * s.theta + 2.0 * b_ref * u.values
        assert a.tobytes() == a_ref.tobytes()
        assert b.tobytes() == b_ref.tobytes()

    def test_mv_closed_form(self):
        s = self.case.scenario
        u = mv_closed_form(s, 0.8)
        ref = s.theta * self.libm(-self.R) / (2.0 * 0.8 * s.sigma ** 2)
        assert u.values.tobytes() == ref.tobytes()

    def test_sweep_residuals(self):
        s, obj = self.case.scenario, self.case.objective
        for scheme in ("explicit", "implicit"):
            sweep = backward_sweep(s, obj, scheme)
            g = self.libm(self.R)
            ref = np.abs(obj.mean_weight() * g * s.theta
                         + 2.0 * sweep.D * g * g * s.sigma ** 2 * sweep.strategy.values)
            assert sweep.residuals.tobytes() == ref.tobytes()

    def test_moments_to_go(self):
        s = self.case.scenario
        u = mv_closed_form(s, 0.8)
        M, _ = moments_to_go(s, u)
        n = s.grid_n
        inc = self.libm(self.R[:n]) * s.theta[:n] * u.values[:n] * s.dt
        ref = np.zeros(n + 1)
        for i in range(n - 1, -1, -1):
            ref[i] = ref[i + 1] + inc[i]
        assert M.tobytes() == ref.tobytes()

    def test_flow_implied_u(self):
        from eqmo.bsde import mv_flow_residual

        s = self.case.scenario
        diag = mv_flow_residual(s, 0.8, paths=2000, seed=3)
        n = s.grid_n
        ref = diag.means.z_mean[:n] * self.libm(-self.R[:n]) / s.sigma[:n]
        assert diag.implied_u.tobytes() == ref.tobytes()
