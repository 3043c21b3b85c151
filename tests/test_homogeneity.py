"""Numeric homogeneity check against its algebraic predicate."""
import numpy as np
import pytest

from eqmo.corpus import (
    cross_term_objective,
    kurtosis_cumulant,
    mv_base,
    mvsk_central,
    named_corpus,
    random_affine_corpus,
    raw_m4,
    skew_cumulant,
)
from eqmo.equilibrium import (
    backward_sweep,
    default_v_grid,
    mv_closed_form,
    mv_gamma2,
    phi_profile,
    scan_phi_max,
)
from eqmo.errors import EmptyVGrid, UnsupportedObjectiveClass
from eqmo.model import ObjectiveSpec, StrategyGrid
from eqmo.verify import homogeneity_check_numeric, homogeneity_predicate


class TestPredicate:
    def test_mv_holds(self):
        mv = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0})
        assert homogeneity_predicate(mv) is True

    def test_cumulant_kurtosis_holds(self):
        assert homogeneity_predicate(kurtosis_cumulant().objective) is True

    def test_cumulant_skew_holds(self):
        assert homogeneity_predicate(skew_cumulant().objective) is True

    def test_raw_m4_fails(self):
        assert homogeneity_predicate(raw_m4().objective) is False

    def test_mvsk_central_fails(self):
        assert homogeneity_predicate(mvsk_central().objective) is False

    def test_variance_product_fails(self):
        # m2 * m4 products curve G even when each factor alone might not
        assert homogeneity_predicate(cross_term_objective()) is False

    def test_odd_central_moments_are_invisible(self):
        obj = ObjectiveSpec.from_weights("central", {1: 1.0, 2: -1.0, 5: 0.3})
        assert homogeneity_predicate(obj) is True

    def test_class_gate(self):
        with pytest.raises(UnsupportedObjectiveClass):
            homogeneity_predicate(ObjectiveSpec.from_weights("central",
                                                             {1: 1.0, 2: 1.0}))
        with pytest.raises(UnsupportedObjectiveClass):
            homogeneity_predicate(ObjectiveSpec.from_weights("central",
                                                             {1: -1.0, 2: -1.0}))


class TestNumericCheck:
    def test_mv_holds_with_zero_max(self):
        case = mv_base()
        verdict = homogeneity_check_numeric(case.scenario, case.objective)
        assert verdict.passed
        assert verdict.max_phi == 0.0
        assert verdict.witness is None
        assert mv_gamma2(case.objective) == 1.0

    def test_cumulant_kurtosis_identical_to_mv(self):
        case = kurtosis_cumulant()
        verdict = homogeneity_check_numeric(case.scenario, case.objective)
        assert verdict.passed
        assert verdict.max_phi == 0.0

    def test_raw_m4_fails_with_positive_witness(self):
        case = raw_m4()
        verdict = homogeneity_check_numeric(case.scenario, case.objective)
        assert not verdict.passed
        t, v, phi = verdict.witness
        assert phi > 0.0
        assert phi == verdict.max_phi
        assert v < 0.0  # gain comes from shrinking the risky position
        # witness value is reproducible through the quadratic itself
        u = mv_closed_form(case.scenario, mv_gamma2(case.objective))
        a, b = phi_profile(case.scenario, case.objective, u)
        i = case.scenario.grid_index(t)
        assert abs((b[i] * v + a[i]) * v - phi) < 1e-12

    def test_raw_m4_witness_magnitude_oracle(self):
        # under the MV strategy, V(t) = 0.5625 (1 - t) and
        # Phi(t, v) = -0.9 V v - (0.04 + 0.12 V) v^2, maximized at t = 0:
        # a^2 / (4 |b|) with a = -0.50625, b = -0.1075
        case = raw_m4(grid_n=400)
        verdict = homogeneity_check_numeric(case.scenario, case.objective)
        V0 = 0.5625
        a = 0.9 * V0
        b = 0.04 + 0.12 * V0
        assert verdict.max_phi == pytest.approx(a * a / (4.0 * b), rel=1e-10)
        assert verdict.witness[0] == 0.0
        assert verdict.witness[1] == pytest.approx(-a / (2.0 * b), rel=1e-10)

    def test_sweep_equals_mv_bitwise_for_cumulant_objective(self):
        case = kurtosis_cumulant()
        mv_case = mv_base()
        a = backward_sweep(case.scenario, case.objective, "explicit")
        b = backward_sweep(mv_case.scenario, mv_case.objective, "explicit")
        assert np.array_equal(a.strategy.values, b.strategy.values)

    def test_numeric_agrees_with_predicate_on_corpora(self):
        cases = list(named_corpus()) + list(random_affine_corpus(count=6, seed=7))
        checked = 0
        for case in cases:
            try:
                pred = homogeneity_predicate(case.objective)
            except UnsupportedObjectiveClass:
                continue
            if np.all(case.scenario.theta == 0.0):
                continue  # no risk premium: every strategy trivially holds
            verdict = homogeneity_check_numeric(case.scenario, case.objective)
            assert verdict.passed == pred, case.name
            checked += 1
        assert checked >= 8


class TestScanAndGrid:
    def test_default_v_grid_shape(self):
        case = mv_base()
        grid = default_v_grid(mv_closed_form(case.scenario, 1.0))
        assert grid.size == 41
        assert 0.0 in grid
        assert np.all(np.diff(grid) > 0.0)
        assert grid.max() == pytest.approx(37.5)

    def test_empty_v_grid(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        with pytest.raises(EmptyVGrid):
            scan_phi_max(case.scenario, case.objective, u, np.array([]))

    def test_scan_includes_continuous_vertex(self):
        # coarse v-grid misses the interior max; the vertex must still win
        case = raw_m4()
        u = mv_closed_form(case.scenario, 1.0)
        coarse = np.array([-100.0, 100.0])
        max_phi, witness, per_t = scan_phi_max(case.scenario, case.objective,
                                               u, coarse)
        assert max_phi > 0.0
        assert abs(witness[1]) < 100.0  # interior vertex, not a grid point
        assert per_t.shape == (case.scenario.grid_n + 1,)

    def test_scaled_strategy_fails_even_when_homogeneity_holds(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0).scaled(1.1)
        max_phi, witness, _ = scan_phi_max(case.scenario, case.objective, u,
                                           default_v_grid(u))
        assert max_phi > 0.0


class TestStrategyGridEdge:
    def test_zero_strategy_grid_fallback(self):
        case = mv_base()
        u = StrategyGrid.constant(case.scenario, 0.0)
        grid = default_v_grid(u)
        assert grid.size == 41 and grid.max() > 0.0
