"""Numeric homogeneity check against its algebraic predicate."""
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from eqmo import equilibrium
from eqmo.corpus import (
    cross_term_objective,
    kurtosis_cumulant,
    mv_base,
    mvsk_central,
    named_corpus,
    random_affine_corpus,
    random_curved_corpus,
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
from eqmo.errors import EmptyVGrid, SolverError, UnsupportedObjectiveClass, ValidationError
from eqmo.model import ObjectiveSpec, StrategyGrid
from eqmo.scenario_io import parse_scenario
from eqmo.verify import homogeneity_check_numeric, homogeneity_predicate

MVSK = os.path.join(os.path.dirname(__file__), "..", "scenarios", "mvsk.scn")
U_SCALES = (0.0, -1.0, 0.5, 1.0, 1.1, 2.0, 3.0, 5.0)


def log_v_grid(strategy):
    """The 41-value deviation grid the matrix scan read: 20 log-spaced values
    a side over [-10 |u|_max, 10 |u|_max] down to 1e-4 of that, plus 0."""
    scale = 10.0 * float(np.max(np.abs(strategy.values))) or 10.0
    side = scale * np.logspace(-4.0, 0.0, 20)
    return np.concatenate([-side[::-1], [0.0], side])


def matrix_scan(a, b, v_grid):
    """Reference (per_t_max, per_t_arg): Phi at every (time, deviation) pair,
    row maxima with argmax's first-maximum rule, then the vertex where b < 0
    beats its row; a non-finite maximum is a ValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        phis = a[:, None] * v_grid[None, :] + b[:, None] * v_grid[None, :] ** 2
        per_t_max = phis.max(axis=1)
        per_t_arg = v_grid[np.argmax(phis, axis=1)]
        concave = b < 0.0
        v_star = np.where(concave, -a / np.where(concave, 2.0 * b, 1.0), 0.0)
        phi_star = np.where(concave, -(a * a) / np.where(concave, 4.0 * b, 1.0), -np.inf)
    better = concave & (phi_star > per_t_max)
    per_t_max = np.where(better, phi_star, per_t_max)
    if not np.isfinite(per_t_max).all():
        raise ValidationError("Phi overflows on the deviation grid")
    return per_t_max, np.where(better, v_star, per_t_arg)


def assert_scan_matches_matrix(scenario, objective, strategy, v_grid, ref_grid):
    a, b = equilibrium.phi_profile(scenario, objective, strategy)
    ref_max, ref_arg = matrix_scan(a, b, ref_grid)
    max_phi, witness, per_t = scan_phi_max(scenario, objective, strategy, v_grid)
    assert per_t.tobytes() == ref_max.tobytes()  # bitwise, signed zeros too
    i = int(np.argmax(ref_max))
    expected = (float(scenario.times[i]), float(ref_arg[i]), float(ref_max[i]))
    assert np.array(witness).tobytes() == np.array(expected).tobytes()
    assert np.float64(max_phi).tobytes() == ref_max[i].tobytes()
    return int(np.count_nonzero(b >= 0.0))


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

    @pytest.mark.parametrize("tolerance", [np.nan, -1e-8, np.inf])
    def test_bad_tolerance_is_refused(self, tolerance):
        case = mv_base()
        with pytest.raises(ValidationError, match="tolerance"):
            homogeneity_check_numeric(case.scenario, case.objective, tolerance=tolerance)

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
        # the two ends the scan reads; 0 lies inside, so max Phi >= Phi(0) = 0
        assert grid.size == 2
        assert grid.min() < 0.0 < grid.max()
        assert grid.max() == pytest.approx(37.5)

    def test_empty_v_grid(self):
        case = mv_base()
        u = mv_closed_form(case.scenario, 1.0)
        with pytest.raises(EmptyVGrid):
            scan_phi_max(case.scenario, case.objective, u, np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_v_grid(self, bad):
        # concave rows never read the ends, so a NaN would otherwise pass
        case = raw_m4()
        u = mv_closed_form(case.scenario, 1.0)
        with pytest.raises(ValidationError, match="deviation grid must be finite"):
            scan_phi_max(case.scenario, case.objective, u, np.array([-1.0, bad, 1.0]))

    def test_closed_form_is_the_matrix_scan_bitwise_on_corpora(self):
        # the default range and the 41-value grid it replaced give the
        # matrix scan's own bits at every time, over every case that sweeps
        cases = (named_corpus() + random_affine_corpus() + random_curved_corpus(seed=20261017)
                 + random_curved_corpus(seed=7))
        checked = convex_rows = 0
        for case in cases:
            try:
                swept = backward_sweep(case.scenario, case.objective, "implicit").strategy
            except SolverError:
                continue
            for scale in U_SCALES:
                u = swept.scaled(scale)
                ref_grid = log_v_grid(u)
                for v_grid in (default_v_grid(u), ref_grid):
                    convex_rows += assert_scan_matches_matrix(case.scenario, case.objective,
                                                              u, v_grid, ref_grid)
                checked += 1
        assert checked == 1048
        assert convex_rows > 0

    def test_closed_form_is_the_matrix_scan_bitwise_on_synthetic_rows(self):
        # random rows of every sign, exact zeros, and a row that is not
        # concave whose high end overflows to nan: the matrix scan refuses it
        case = mv_base(grid_n=4000)
        u = mv_closed_form(case.scenario, 1.0)
        rng = np.random.default_rng(20261020)
        n = case.scenario.grid_n + 1
        for _ in range(5):
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
            b = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
            a[rng.random(n) < 0.05] = 0.0
            b[rng.random(n) < 0.05] = 0.0
            for v_grid in (np.array([-2.0, 0.0, 3.0]), np.linspace(-1.0, 0.5, 7)):
                with mock.patch.object(equilibrium, "phi_profile", lambda *args: (a, b)):
                    assert_scan_matches_matrix(case.scenario, case.objective, u, v_grid,
                                               v_grid)
        a[:] = -1e300
        b[:] = 1e300
        with pytest.raises(ValidationError):
            matrix_scan(a, b, np.array([-1e-10, 1e10]))
        with mock.patch.object(equilibrium, "phi_profile", lambda *args: (a, b)):
            with pytest.raises(ValidationError, match="Phi overflows"):
                scan_phi_max(case.scenario, case.objective, u, np.array([-1e-10, 1e10]))

    def test_scan_memory_does_not_grow_with_the_v_grid(self):
        # no (times x deviations) matrix: at grid_n 5000 and 41 deviations
        # the traced peak stays within 16 float64 per grid time
        bundle = parse_scenario(MVSK, grid_n=5000)
        s, obj = bundle.scenario, bundle.objective
        u = backward_sweep(s, obj, bundle.numerics["scheme"]).strategy
        v_grid = log_v_grid(u)
        tracemalloc.start()
        try:
            scan_phi_max(s, obj, u, v_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * (s.grid_n + 1)

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
        assert grid.size == 2 and grid.max() > 0.0
