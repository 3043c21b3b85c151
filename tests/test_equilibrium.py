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
    phi_profile,
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
    ObjectiveTerm,
    Polynomial,
    StrategyGrid,
    gaussian_risk_polynomial,
    rate_to_horizon,
)
from eqmo.moments import conditional_moments, moments_to_go
from eqmo.roots import nearest_root
from eqmo.scenario_io import parse_scenario
from eqmo.verify import finite_eps_check

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
MV = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0})
SEEKING = ObjectiveSpec.from_weights("central", {1: 1.0, 2: 1.0})  # D = +1


def full_isolation():
    """Patch out the certified Newton path: every implicit step isolates all roots."""
    return mock.patch.object(roots, "nearest_root", lambda *a, **k: None)


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
        a, b = phi_profile(case.scenario, case.objective, u)
        i = case.scenario.grid_index(0.5)
        # 0.3 v - 0.04 (7.5 v + v^2) = -0.04 v^2 exactly up to float eps
        assert abs(a[i]) < 1e-15
        assert abs(b[i] + 0.04) < 1e-15

    def test_perturbed_control_profile(self):
        case = mv_base()
        u = StrategyGrid.constant(case.scenario, 4.0)
        a, b = phi_profile(case.scenario, case.objective, u)
        # 0.3 v - 0.04 (8 v + v^2)
        assert abs(a[0] + 0.02) < 1e-15
        assert abs(b[0] + 0.04) < 1e-15

    def test_mean_only_objective_is_linear_gain(self):
        s = mv_base().scenario
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0})
        # discounting off, theta constant: linear coefficient theta e^R at u = u*
        # for a pure-mean check use the profile's algebra directly at b = 0
        a, b = phi_profile(s, obj, StrategyGrid.constant(s, 3.75))
        assert np.allclose(b, -0.04, atol=1e-15)
        assert np.allclose(a, 0.0, atol=1e-14)


def stationary_root(objective, V_plus, scheme, prev_value=0.0, terminal=False,
                    theta=0.3):
    """One step on the mv_base market (sigma 0.2, r = 0, dt 0.01)."""
    return _stationary_root(objective.mean_weight(),
                            gaussian_risk_polynomial(objective).derivative(), V_plus,
                            theta, 0.2, 1.0, 0.01, prev_value, scheme, terminal)


class TestStationarityStep:
    def test_mv_closed_form_value(self):
        u = stationary_root(MV, 0.3, "explicit")
        assert abs(u - 3.75) < 1e-12

    def test_raw_m4_terminal(self):
        u = stationary_root(raw_m4().objective, 0.0, "implicit", terminal=True)
        assert abs(u - 3.75) < 1e-12

    def test_odd_only_weights_no_second_order(self):
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 3: 0.5})
        with pytest.raises(NoSecondOrderTerm):
            stationary_root(obj, 0.1, "explicit")
        with pytest.raises(NoSecondOrderTerm):
            stationary_root(obj, 0.1, "implicit")

    def test_risk_seeking_objective_has_no_maximizer_branch(self):
        for scheme in ("explicit", "implicit"):
            with pytest.raises(AmbiguousRoot) as exc_info:
                stationary_root(SEEKING, 0.1, scheme)
            assert exc_info.value.candidates, scheme

    def test_non_finite_coefficients_are_refused(self):
        # g = 1e200 squares past the float range: s = g^2 sigma^2 = inf; the
        # step's Polynomial refuses the coefficients, at every degree
        for objective in (MV, raw_m4().objective):
            with pytest.raises(ValidationError, match="coefficients must be finite"):
                _stationary_root(1.0, gaussian_risk_polynomial(objective).derivative(), 0.1,
                                 0.3, 0.2, 1e200, 0.01, 3.0, "implicit", False)

    def test_theta_zero_shortcut(self):
        u = stationary_root(theta_zero().objective, 0.2, "implicit", prev_value=1.0,
                            theta=0.0)
        assert u == 0.0

    def test_schemes_agree_for_mv(self):
        # D is constant for MV, so substitution changes nothing
        ue = stationary_root(MV, 0.3, "explicit")
        ui = stationary_root(MV, 0.3, "implicit")
        assert abs(ue - ui) < 1e-12

    def test_standalone_errors_carry_step(self):
        # the sweep tags each error with its step; both objectives stop at the
        # terminal step T, where D(0) = +1 and D = 0 respectively
        s = mv_base().scenario
        m2_m3 = ObjectiveSpec("central", (ObjectiveTerm(((1, 1),), 1.0),
                                          ObjectiveTerm(((2, 1), (3, 1)), -1.0)))
        for scheme in ("explicit", "implicit"):
            with pytest.raises(AmbiguousRoot) as exc_info:
                backward_sweep(s, SEEKING, scheme)
            assert exc_info.value.step == s.grid_n
            (root,) = exc_info.value.candidates  # the minimizer u = -theta / (2 sigma^2)
            assert abs(root + 3.75) < 1e-12
            assert str(exc_info.value).startswith(f"step {s.grid_n} (t = 1): ")
            with pytest.raises(NoSecondOrderTerm) as exc_info:
                backward_sweep(s, m2_m3, scheme)  # passes validate_scenario
            assert exc_info.value.step == s.grid_n

    def test_scheme_validation(self):
        with pytest.raises(ValidationError):
            backward_sweep(mv_base().scenario, MV, "rk4")


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
        cases += [raw_m4().objective, MV]
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
        # D(0) = +1: the terminal step's root is a minimizer
        assert exc_info.value.step == case.scenario.grid_n
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
        s = MarketScenario(r=r, theta=theta, sigma=sigma, T=1.0,
                           x0=1.0, grid_n=16)
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -gamma2})
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
        # curved risk parts on time-varying markets: every sweep stops at a
        # named step with a typed error or stays on the maximizer branch
        # (D <= 0); an implicit one is also certified by the Phi scan with
        # round-off residuals. Explicit sweeps keep O(dt) residuals on curved
        # objectives by design, so the scan does not certify them; they stop
        # (case: step) where D frozen at V(t_{i+1}) turns positive, making
        # the step's root a minimizer.
        from eqmo.verify import equilibrium_report

        explicit_stops = {20261017: {5: 27, 42: 24, 58: 30},
                          7: {10: 6, 24: 20, 26: 26, 49: 8}}
        for seed in (20261017, 7):
            cases = random_curved_corpus(seed=seed, count=60)
            for scheme in ("explicit", "implicit"):
                passed = 0
                stops = {}
                for j, case in enumerate(cases):
                    try:
                        sweep = backward_sweep(case.scenario, case.objective, scheme)
                    except (AmbiguousRoot, NoRealRoot) as e:
                        assert e.step is not None, case.name
                        assert 0 <= e.step <= case.scenario.grid_n, case.name
                        stops[j] = e.step
                        continue
                    assert np.max(sweep.D) <= 0.0, (scheme, case.name)
                    if scheme == "implicit":
                        report = equilibrium_report(case.scenario, case.objective,
                                                    sweep.strategy, tolerance=1e-8)
                        assert report.passed, (case.name, report.max_phi)
                        assert np.max(sweep.residuals) <= 1e-9, case.name
                    passed += 1
                assert passed >= 0.9 * len(cases), (seed, scheme)
                if scheme == "explicit":
                    assert stops == explicit_stops[seed]


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
        s = case.scenario
        with step_calls() as calls, isolations() as isolate:
            sweep = backward_sweep(s, case.objective, "implicit")
        assert calls.call_count == s.grid_n and isolate.call_count == 0
        # -c0 / c1 of w1 g theta + 2 s D u with D = -1 (w1 = 1, w2 = -1)
        g = s.growth.tolist()
        want = [-(g[i] * s.theta[i]) / (2.0 * (g[i] * g[i] * s.sigma[i] ** 2) * -1.0)
                for i in range(s.grid_n)]
        assert sweep.strategy.values[:-1].tobytes() == np.array(want).tobytes()

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
            u = stationary_root(case.objective, 0.2, "implicit", prev_value=3.0)
        with full_isolation():
            full = stationary_root(case.objective, 0.2, "implicit", prev_value=3.0)
        assert isolate.call_count == 0
        assert abs(u - full) <= 1e-15 * abs(full)
        # no maximizer branch: the step lists its roots, the sweep names its
        # terminal step, where D(0) = +1
        seeking = ObjectiveSpec.from_weights("central", {1: 1.0, 2: 1.0, 4: 0.5})
        with pytest.raises(AmbiguousRoot) as exc_info:
            stationary_root(seeking, 0.1, "implicit", prev_value=3.0)
        assert exc_info.value.candidates
        with pytest.raises(AmbiguousRoot) as exc_info:
            backward_sweep(case.scenario, seeking, "implicit")
        assert exc_info.value.step == case.scenario.grid_n
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

    def test_overflow_anywhere_refuses_every_suffix(self):
        # r = 2000 on the first half of [0, 1]: R_0 = 1000 overflows e^R,
        # while R = 0 from t = 0.5 on; the cached e^R spans the whole grid,
        # so the moments at t = 0.8 are refused too
        n = 10
        s = MarketScenario(r=np.where(np.arange(n + 1) < n // 2, 2000.0, 0.0),
                           theta=0.3, sigma=0.2, T=1.0, x0=1.0, grid_n=n)
        u = StrategyGrid(np.full(n + 1, 0.5))
        assert rate_to_horizon(s)[n // 2:].max() == 0.0
        for call in (lambda: conditional_moments(s, u, 0.8, 1.0, 2),
                     lambda: finite_eps_check(s, MV, u, 0.8, 0.5, [s.dt])):
            with pytest.raises(ValidationError, match=r"growth factor exp\(1000\) of R overflows"):
                call()

    def test_flow_implied_u(self):
        from eqmo.bsde import mv_flow_residual

        s = self.case.scenario
        diag = mv_flow_residual(s, 0.8, paths=2000, seed=3, strategy=mv_closed_form(s, 0.8))
        n = s.grid_n
        ref = diag.means.z_mean[:n] * self.libm(-self.R[:n]) / s.sigma[:n]
        assert diag.implied_u.tobytes() == ref.tobytes()
