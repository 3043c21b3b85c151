"""Regression Monte Carlo BSDE solver: manufactured solutions, flows, systems."""
import ast
import math
import os
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from eqmo import bsde
from eqmo.bsde import (
    BsdeGrid,
    DriverSpec,
    FactorModel,
    FactorPaths,
    brownian_factor,
    mv_flow_residual,
    simulate_factors,
    solve_bsde,
    solve_flow_diagonal,
    solve_recurrent_system,
    wealth_factor_paths,
)
from eqmo.corpus import mv_base
from eqmo.scenario_io import parse_scenario
from eqmo.equilibrium import mv_closed_form
from eqmo.errors import (
    CyclicDependency,
    RegressionSingular,
    ValidationError,
    ZTruncationSaturated,
)
from eqmo.model import MarketScenario

T = 1.0
SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def grid_times(n):
    return np.linspace(0.0, T, n + 1)


def two_point_paths():
    """Two dates whose state row takes two values, over a constant start."""
    state = np.vstack([np.zeros(64),
                       np.repeat([1.0, 2.0], 32),
                       np.repeat([1.0, 2.0], 32)])
    dW = np.vstack([np.full(64, 0.1), np.full(64, 0.1)])
    return FactorPaths(times=grid_times(2), state=state, dW=dW)


def frozen_state_model(theta0=0.1):
    return FactorModel(kappa=1.0, theta_bar=theta0, eta=0.0, theta0=theta0)


ZERO_DRIVER = lambda t, state, y, z: 0.0


class TestFactorModel:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FactorModel(eta=-0.1)
        for field in ("kappa", "theta_bar", "eta", "theta0"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValidationError, match=f"^{field} must be finite"):
                    FactorModel(**{field: value})

    def test_default_model_holds_state_at_zero(self):
        # every field defaults to 0: no drift, no noise, started at 0
        fp = simulate_factors(FactorModel(), T, 10, 50, 1)
        assert np.all(fp.state == 0.0)
        assert fp.dW.shape == (10, 50)

    def test_ou_exact_moments(self):
        # theta_T | theta_0 is Gaussian with known mean and variance
        model = FactorModel(kappa=2.0, theta_bar=0.3, eta=0.4, theta0=0.1)
        fp = simulate_factors(model, T, 64, 60_000, 3)
        mean = 0.3 + (0.1 - 0.3) * math.exp(-2.0)
        var = 0.4 ** 2 * (1.0 - math.exp(-4.0)) / 4.0
        xT = fp.state[-1]
        assert abs(np.mean(xT) - mean) < 4.0 * math.sqrt(var / 60_000)
        assert abs(np.var(xT) - var) < 4.0 * var * math.sqrt(2.0 / 60_000)

    def test_kappa_zero_limit_is_brownian(self):
        model = FactorModel(kappa=0.0, theta_bar=0.0, eta=1.0, theta0=0.0)
        fp = simulate_factors(model, T, 32, 40_000, 5)
        v = np.var(fp.state[-1])
        assert abs(v - T) < 4.0 * T * math.sqrt(2.0 / 40_000)

    def test_eta_zero_decays_deterministically(self):
        model = FactorModel(kappa=1.0, theta_bar=0.5, eta=0.0, theta0=0.1)
        fp = simulate_factors(model, T, 16, 8, 2)
        expected = 0.5 + (0.1 - 0.5) * np.exp(-fp.times)
        assert np.allclose(fp.state[:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("kappa, match", [(-1e3, "factor paths overflow"),
                                              (-1e5, "OU decay")])
    def test_explosive_factor_is_one_typed_error(self, kappa, match):
        # kappa = -1e3 grows e^20 a step, past the float range by step 36;
        # at -1e5 the per-step decay factor itself overflows
        model = FactorModel(kappa=kappa, theta_bar=0.3, eta=0.2, theta0=0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                simulate_factors(model, T, 50, 64, 1)

    def test_brownian_factor_helper(self):
        m = brownian_factor()
        assert (m.kappa, m.eta, m.theta0) == (0.0, 1.0, 0.0)

    def test_determinism_across_worker_counts(self):
        fp1 = simulate_factors(brownian_factor(), T, 8, 8192, 9)
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": "5"}):
            fp2 = simulate_factors(brownian_factor(), T, 8, 8192, 9)
        assert np.array_equal(fp1.state, fp2.state)
        assert np.array_equal(fp1.dW, fp2.dW)


class TestFactorGrid:
    # the grid is (T, grid_n), refused as MarketScenario refuses it
    @pytest.mark.parametrize("T_end, n", [
        (0.0, 4), (-1.0, 4), (np.nan, 4), (np.inf, 4),
        (1.0, 0), (1.0, -3), (1.0, 2.5), (1.0, True),
    ], ids=["T_zero", "T_negative", "T_nan", "T_inf",
            "grid_n_zero", "grid_n_negative", "grid_n_fraction", "grid_n_bool"])
    def test_grids_that_a_scenario_refuses_are_refused(self, T_end, n):
        with pytest.raises(ValidationError, match="^(T|grid_n) must"):
            simulate_factors(brownian_factor(), T_end, n, 8, 1)

    def test_convergence_study_on_a_zero_step_grid_is_refused(self):
        with pytest.raises(ValidationError, match="grid_n must be >= 1"):
            bsde.convergence_study(100, 2, 1, grids=(0,))

    @pytest.mark.parametrize("T_end", [1e-3, 0.5, 1.0, 2.0, 3.7, 250.0])
    @pytest.mark.parametrize("n", [1, 7, 100, 20_000])
    def test_scenario_grids_pass(self, T_end, n):
        times = MarketScenario(0.0, 0.3, 0.2, T_end, 1.0, n).times
        fp = simulate_factors(brownian_factor(), T_end, n, 2, 1)
        assert fp.state.shape == (n + 1, 2)
        assert np.array_equal(fp.times, times)
        assert fp.dt == times[1] - times[0]


class TestRouteIndependence:
    def test_bsde_imports_nothing_from_the_other_routes(self):
        # route 3 must check the strategy it is handed, never build one
        # from the sweep's or the verifier's module
        with open(bsde.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        sources = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                package = "eqmo." if node.level else ""
                base = (package + (node.module or "")).rstrip(".")
                sources.add(base)
                sources.update(f"{base}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                sources.update(alias.name for alias in node.names)
        assert "eqmo.model" in sources  # the walk sees relative imports
        banned = [s for s in sources
                  for route in ("eqmo.equilibrium", "eqmo.verify")
                  if s == route or s.startswith(route + ".")]
        assert banned == []


class TestDriverSpec:
    def test_z_bound_validation(self):
        for bound in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            with pytest.raises(ValidationError, match="z_bound"):
                DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: 0.0, z_bound=bound)

    def test_negative_dependency_rejected(self):
        with pytest.raises(ValidationError):
            DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: 0.0,
                       depends_on=(-1,))

    @pytest.mark.parametrize("index", [1.5, 1.0, True, np.float64(1.0)])
    def test_dependency_index_must_be_an_integer(self, index):
        # an index is never truncated: 1.5 is not grid 1
        with pytest.raises(ValidationError, match="depends_on index must be an integer"):
            DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: 0.0,
                       depends_on=(index,))

    def test_numpy_integer_dependency_accepted(self):
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: 0.0,
                          depends_on=(np.int64(1),))
        assert spec.depends_on == (1,)
        assert type(spec.depends_on[0]) is int


class TestManufacturedSolutions:
    def test_wt_squared(self):
        # f = 0, xi = W_T^2 -> Y_t = W_t^2 + (T - t), Z_t = 2 W_t
        fp = simulate_factors(brownian_factor(), T, 25, 20_000, 7)
        spec = DriverSpec(driver=ZERO_DRIVER,
                          terminal=lambda f, s: f.state[-1] ** 2)
        grid = solve_bsde(spec, fp)
        assert abs(grid.y0_mean - T) < 0.05 * T
        exact = fp.state ** 2 + (T - fp.times)[:, None]
        assert np.sqrt(np.mean((grid.Y - exact) ** 2)) < 0.05
        z_exact = 2.0 * fp.state[:25]
        assert np.sqrt(np.mean((grid.Z[:25] - z_exact) ** 2)) < 0.2

    def test_linear_driver_exponential_growth(self):
        # f = 0.05 y, xi = 1, frozen state: Y_0 = e^{0.05 T} up to O(dt)
        fp = simulate_factors(frozen_state_model(), T, 50, 500, 3)
        spec = DriverSpec(driver=lambda t, s, y, z: 0.05 * y,
                          terminal=lambda f, s: np.ones(f.paths))
        grid = solve_bsde(spec, fp)
        assert abs(grid.y0_mean - math.exp(0.05)) < 5e-3
        # frozen state: conditioning is averaging, rows are constant
        assert np.ptp(grid.Y[0]) == 0.0

    def test_frozen_state_matches_backward_euler_exactly(self):
        # nonlinear in y: f = -0.3 y + sin(t); explicit recursion is the oracle
        n = 40
        fp = simulate_factors(frozen_state_model(), T, n, 256, 11)
        spec = DriverSpec(driver=lambda t, s, y, z: -0.3 * y + math.sin(t),
                          terminal=lambda f, s: np.full(f.paths, 2.0))
        grid = solve_bsde(spec, fp)
        dt = T / n
        y = 2.0
        for i in range(n - 1, -1, -1):
            y = y + (-0.3 * y + math.sin(i * dt)) * dt
        assert abs(grid.y0_mean - y) < 1e-12

    def test_time_argument_passed_to_driver(self):
        seen = []

        def driver(t, state, y, z):
            seen.append(t)
            return 0.0

        fp = simulate_factors(frozen_state_model(), T, 4, 64, 1)
        solve_bsde(DriverSpec(driver=driver, terminal=lambda f, s: np.zeros(f.paths)), fp)
        assert seen == [0.75, 0.5, 0.25, 0.0]

    def test_z_of_brownian_terminal(self):
        # xi = W_T: Y_t = W_t, Z_t = 1
        fp = simulate_factors(brownian_factor(), T, 20, 30_000, 13)
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1])
        grid = solve_bsde(spec, fp)
        assert abs(grid.y0_mean) < 0.02
        assert np.mean(grid.Z[:20]) == pytest.approx(1.0, abs=0.02)


class TestSolverOptions:
    def test_start_index_bounds(self):
        fp = simulate_factors(brownian_factor(), T, 8, 512, 1)
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1])
        with pytest.raises(ValidationError):
            solve_bsde(spec, fp, start_index=9)
        grid = solve_bsde(spec, fp, start_index=8)
        assert np.array_equal(grid.Y[8], fp.state[-1])
        assert np.all(grid.Y[:8] == 0.0)

    def test_start_index_and_deps_are_keyword_only(self):
        # a stale third positional argument, once the basis degree, must not
        # silently become a start index
        fp = simulate_factors(brownian_factor(), T, 4, 64, 1)
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1])
        with pytest.raises(TypeError):
            solve_bsde(spec, fp, 3)

    def test_regression_singular_on_degenerate_state(self):
        # two-point state at date 1 cannot support a cubic basis; the error
        # names that date, for a single solve and for an s-dependent flow
        fp = two_point_paths()
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1])
        with pytest.raises(RegressionSingular) as single:
            solve_bsde(spec, fp)

        def family(s):
            return DriverSpec(driver=ZERO_DRIVER,
                              terminal=lambda f, idx: f.state[-1] + idx)

        with pytest.raises(RegressionSingular) as flow:
            solve_flow_diagonal(family, fp)
        for exc in (single.value, flow.value):
            assert exc.step == 1
            assert "step 1" in str(exc)

    def test_quadratic_growth_truncation_warns_when_saturated(self):
        fp = simulate_factors(brownian_factor(), T, 10, 4000, 17)

        def spec(z_bound):
            return DriverSpec(driver=lambda t, s, y, z: 0.1 * z ** 2,
                              terminal=lambda f, s: f.state[-1] ** 2, z_bound=z_bound)

        with pytest.warns(ZTruncationSaturated):
            grid = solve_bsde(spec(0.05), fp)
        assert grid.z_saturation > 0.01
        # a generous bound leaves the estimate untouched
        quiet = solve_bsde(spec(50.0), fp)
        assert quiet.z_saturation == 0.0

    def test_y_dependent_driver_step_is_explicit(self):
        # f = -0.3 y on a frozen state: the driver reads the continuation,
        # so each step multiplies by (1 - 0.3 dt)
        n = 10
        fp = simulate_factors(frozen_state_model(), T, n, 256, 17)
        spec = DriverSpec(driver=lambda t, s, y, z: -0.3 * y,
                          terminal=lambda f, s: np.ones(f.paths))
        grid = solve_bsde(spec, fp)
        assert grid.y0_mean == pytest.approx((1.0 - 0.3 * T / n) ** n, abs=1e-14)

    @pytest.mark.parametrize("start_index", [0, 3])
    def test_driver_returning_its_own_y_argument(self, start_index):
        # the step adds f dt into the live row in place: a driver that returns
        # the row itself must see the same step, and the same Y_0 sample, as
        # one that returns a copy
        fp = simulate_factors(brownian_factor(), T, 8, 500, 23)

        def terminal(f, s):
            return np.sin(f.state[-1])

        alias = solve_bsde(DriverSpec(driver=lambda t, st, y, z: y, terminal=terminal),
                           fp, start_index=start_index)
        copy = solve_bsde(DriverSpec(driver=lambda t, st, y, z: 1.0 * y,
                                     terminal=terminal), fp, start_index=start_index)
        assert np.array_equal(alias.Y, copy.Y)
        assert alias.y0_mean == copy.y0_mean
        assert alias.y0_se == copy.y0_se

    def test_terminal_must_be_finite(self):
        fp = simulate_factors(brownian_factor(), T, 4, 64, 1)
        spec = DriverSpec(driver=ZERO_DRIVER,
                          terminal=lambda f, s: np.full(f.paths, np.nan))
        with pytest.raises(ValidationError):
            solve_bsde(spec, fp)


class TestFlows:
    def test_flow_member_zero_matches_standalone(self):
        fp = simulate_factors(brownian_factor(), T, 12, 4000, 19)
        spec = DriverSpec(driver=ZERO_DRIVER,
                          terminal=lambda f, s: f.state[-1] ** 2)
        standalone = solve_bsde(spec, fp)
        diag = solve_flow_diagonal(lambda s: spec, fp)
        assert diag.y_values[0] == standalone.y0_mean
        assert np.array_equal(diag.y_paths[0], standalone.Y[0])

    def test_diagonal_of_flow_tracks_remaining_time(self):
        # member s with terminal W_T^2 has diagonal mean W_s^2-avg + (T - s)
        fp = simulate_factors(brownian_factor(), T, 20, 30_000, 23)
        spec = DriverSpec(driver=ZERO_DRIVER,
                          terminal=lambda f, s: f.state[-1] ** 2)
        diag = solve_flow_diagonal(lambda s: spec, fp)
        expected = np.mean(fp.state ** 2, axis=1) + (T - fp.times)
        assert np.max(np.abs(diag.y_values - expected)) < 0.05

    def test_flow_index_reaches_terminal(self):
        # family uses s to pick its terminal payoff scale
        fp = simulate_factors(frozen_state_model(), T, 4, 64, 1)

        def family(s):
            return DriverSpec(driver=ZERO_DRIVER,
                              terminal=lambda f, idx: np.full(f.paths, float(idx)))

        diag = solve_flow_diagonal(family, fp)
        assert np.array_equal(diag.y_values, np.arange(5.0))


def per_member_diagonal(family, fp):
    """Reference flow diagonal: one standalone solve per member s on [s, T]."""
    n = fp.grid_n
    y_paths = np.zeros((n + 1, fp.paths))
    z_values = np.zeros(n + 1)
    for s in range(n + 1):
        grid = solve_bsde(family(s), fp, start_index=s)
        y_paths[s] = grid.Y[s]
        if s < n:
            z_values[s] = np.mean(grid.Z[s])
    return np.mean(y_paths, axis=1), z_values, y_paths


def assert_matches_per_member(diag, ref):
    y_values, z_values, y_paths = ref
    for got, want in ((diag.y_values, y_values), (diag.z_values, z_values),
                      (diag.y_paths, y_paths)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestBatchedFlow:
    def test_s_dependent_terminal_linear_driver(self):
        fp = simulate_factors(brownian_factor(), T, 12, 3000, 37)

        def family(s):
            return DriverSpec(driver=lambda t, st, y, z: -0.3 * y + 0.1 * z,
                              terminal=lambda f, idx: f.state[-1] ** 2 + 0.1 * idx)

        assert_matches_per_member(solve_flow_diagonal(family, fp),
                                  per_member_diagonal(family, fp))

    def test_quadratic_truncation_warns_once_per_flow(self):
        fp = simulate_factors(brownian_factor(), T, 10, 2000, 41)

        def family(s):
            return DriverSpec(driver=lambda t, st, y, z: 0.1 * z ** 2 - 0.2 * y,
                              terminal=lambda f, idx: f.state[-1] ** 2 * (1.0 + 0.05 * idx),
                              z_bound=0.05)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            diag = solve_flow_diagonal(family, fp)
        saturation = [w for w in caught if issubclass(w.category, ZTruncationSaturated)]
        assert len(saturation) == 1  # one warning per flow, over all members
        with pytest.warns(ZTruncationSaturated):
            ref = per_member_diagonal(family, fp)
        assert_matches_per_member(diag, ref)

    def test_saturation_warning_points_at_the_caller(self):
        # the single solve and the flow warn from the one date loop, whose
        # stacklevel names the caller of the public solver
        fp = simulate_factors(brownian_factor(), T, 6, 1000, 41)

        def family(s):
            return DriverSpec(driver=lambda t, st, y, z: 0.1 * z ** 2,
                              terminal=lambda f, idx: f.state[-1] ** 2 * (1.0 + 0.05 * idx),
                              z_bound=0.05)

        for solve in (lambda: solve_bsde(family(0), fp),
                      lambda: solve_flow_diagonal(family, fp)):
            with pytest.warns(ZTruncationSaturated) as caught:
                solve()
            assert [w.filename for w in caught] == [__file__]

    def test_flow_members_take_no_dependency_grids(self):
        fp = simulate_factors(brownian_factor(), T, 8, 2000, 43)

        def family(s):
            return DriverSpec(driver=lambda t, st, y, z, deps: deps[0][0] - 0.5 * deps[0][1],
                              terminal=lambda f, idx: np.full(f.paths, float(idx)),
                              depends_on=(0,))

        with pytest.raises(ValidationError):
            solve_flow_diagonal(family, fp)

    def test_identical_members_take_one_solve(self):
        fp = simulate_factors(brownian_factor(), T, 6, 500, 47)
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1] ** 2)
        with mock.patch.object(bsde, "_solve_one", wraps=bsde._solve_one) as solver:
            solve_flow_diagonal(lambda s: spec, fp)
        assert solver.call_count == 1
        specs, rows = solver.call_args.args[:2]
        assert specs == [spec] and rows.shape == (1, 500)  # member 0: one row on [0, T]

    def test_shared_spec_with_index_terminal_is_not_single_solve(self):
        n = 6
        fp = simulate_factors(frozen_state_model(), T, n, 64, 1)
        spec = DriverSpec(driver=ZERO_DRIVER,
                          terminal=lambda f, idx: np.full(f.paths, float(idx)))
        with mock.patch.object(bsde, "_solve_one", wraps=bsde._solve_one) as solver:
            diag = solve_flow_diagonal(lambda s: spec, fp)
        assert solver.call_count == 1
        specs, rows = solver.call_args.args[:2]
        assert specs == [spec] * (n + 1) and rows.shape == (n + 1, 64)  # every member
        assert np.array_equal(diag.y_values, np.arange(n + 1.0))

    def test_peak_memory_is_y_plus_one_z_buffer(self):
        # the batched fit writes C into the live rows of Y and Z into one
        # buffer: no (members x paths) temporary beyond those two
        n, paths, degree = 20, 20_000, bsde.BASIS_DEGREE
        fp = simulate_factors(brownian_factor(), T, n, paths, 71)

        def family(s):
            return DriverSpec(driver=lambda t, st, y, z: -0.3 * y + 0.1 * z,
                              terminal=lambda f, idx: f.state[-1] ** 2 + 0.1 * idx)

        tracemalloc.start()
        try:
            solve_flow_diagonal(family, fp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        y_bytes, z_bytes = 8 * (n + 1) * paths, 8 * n * paths
        assert peak < y_bytes + z_bytes + 2 * 8 * (degree + 1) * paths

    @pytest.mark.parametrize("n", [20, 80])
    def test_means_solve_memory_does_not_grow_with_dates(self, n):
        # the means route keeps one Y row and one Z buffer, never a grid:
        # its traced peak is a few rows beside the date's basis at any n
        paths, degree = 20_000, bsde.BASIS_DEGREE
        fp = simulate_factors(brownian_factor(), T, n, paths, 73)
        spec = DriverSpec(driver=lambda t, st, y, z: -0.3 * y + 0.1 * z,
                          terminal=lambda f, s: f.state[-1] ** 2)
        tracemalloc.start()
        try:
            bsde.solve_bsde_means(spec, fp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * (degree + 1) * paths

    @pytest.mark.parametrize("n", [20, 80])
    def test_mv_flow_residual_holds_state_dw_and_a_few_rows(self, n):
        # the flow's diagonal means come from one means solve: beside the
        # wealth paths and their increments (2n + 1 rows) only a few buffers
        paths = 20_000
        scenario = mv_base(grid_n=n).scenario
        tracemalloc.start()
        try:
            mv_flow_residual(scenario, 1.0, paths, 73, strategy=mv_closed_form(scenario, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (2 * n + 1 + 16) * 8 * paths

    def test_non_finite_member_terminal_rejected(self):
        fp = simulate_factors(brownian_factor(), T, 6, 64, 1)

        def family(s):
            value = np.nan if s == 3 else 1.0
            return DriverSpec(driver=ZERO_DRIVER,
                              terminal=lambda f, idx: np.full(f.paths, value))

        with pytest.raises(ValidationError):
            solve_flow_diagonal(family, fp)


def scenario_paths(name, seed, workers, paths=9000):
    """The scenario's factor paths (the zero state of ``FactorModel()`` when
    it has no factor), drawn on ``workers`` threads."""
    bundle = parse_scenario(os.path.join(SCENARIOS, f"{name}.scn"))
    with mock.patch.dict(os.environ, {"EQMO_WORKERS": workers}):
        fp = simulate_factors(bundle.factor or FactorModel(), bundle.scenario.T,
                              bundle.scenario.grid_n, paths, seed)
    return fp


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestReducerRoute:
    """Every reduction of the one backward loop equals the same reduction of
    the full grids that ``solve_bsde`` fills, bit for bit."""

    SPECS = {
        "cli": bsde.TERMINAL_STATE,
        "yz": DriverSpec(driver=lambda t, st, y, z: -0.3 * y + 0.1 * z,
                         terminal=lambda f, s: np.cos(f.state[-1]) + f.state[-1] ** 2),
    }

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    @pytest.mark.parametrize("workers", ["1", "3"])
    @pytest.mark.parametrize("seed", [5, 2026])
    @pytest.mark.parametrize("name", ["ou_factor", "mv_base"])
    def test_means_and_flow_equal_full_grid_reductions(self, name, seed, workers,
                                                       spec_name):
        fp = scenario_paths(name, seed, workers)
        spec = self.SPECS[spec_name]
        n = fp.grid_n
        grid = solve_bsde(spec, fp)
        means = bsde.solve_bsde_means(spec, fp)
        assert np.array_equal(bits(means.y_mean[:n]), bits(np.mean(grid.Y[:n], axis=1)))
        assert np.array_equal(bits(means.z_mean[:n]), bits(np.mean(grid.Z[:n], axis=1)))
        assert (means.y_mean[0], means.y0_se) == (grid.y0_mean, grid.y0_se)

        diag = solve_flow_diagonal(lambda s: spec, fp)
        z_ref = np.zeros(n + 1)
        z_ref[:n] = [float(np.mean(row)) for row in grid.Z[:n]]
        assert np.array_equal(bits(diag.y_paths), bits(grid.Y))
        assert np.array_equal(bits(diag.z_values), bits(z_ref))

    @staticmethod
    def full_grid_study(paths, reps, seed, grids):
        """The W_T^2 study on full ``solve_bsde`` grids, as it was computed
        before the row-by-row error buffers."""
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1] ** 2)
        rows = []
        for grid_n in grids:
            times = grid_times(grid_n)
            y_mses, z_mses, y0s = [], [], []
            for rep in range(reps):
                fp = simulate_factors(brownian_factor(), T, grid_n, paths,
                                      seed + 7919 * grid_n + rep)
                grid = solve_bsde(spec, fp)
                err = np.square(fp.state)
                err += (1.0 - times)[:, None]
                np.subtract(grid.Y, err, out=err)
                y_mses.append(float(np.mean(np.square(err, out=err))))
                z_err = np.multiply(fp.state[:grid_n], 2.0, out=err[:grid_n])
                np.subtract(grid.Z[:grid_n], z_err, out=z_err)
                z_mses.append(float(np.mean(np.square(z_err, out=z_err))))
                y0s.append(grid.y0_mean)
            rows.append((float(np.mean(y_mses)),
                         float(np.std(y_mses, ddof=1) / math.sqrt(reps)),
                         float(np.mean(z_mses)), float(np.mean(y0s)) - 1.0))
        return rows

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_convergence_rows_keep_their_bits(self, workers):
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": workers}):
            rows = [(r.y_mse, r.y_mse_se, r.z_mse, r.y0_bias)
                    for r in bsde.convergence_study(5000, 2, 5, grids=(4, 7))]
            assert rows == self.full_grid_study(5000, 2, 5, (4, 7))
        # recorded from the full-grid study on the SFC64 stream (numpy 2.4,
        # x86_64 OpenBLAS); the tolerance covers only another BLAS kernel's
        # last-bit rounding
        recorded = [
            (0.001929724712517095, 0.0009072893221330493, 0.013590278147421107,
             0.02538585583967201),
            (0.002516404500322127, 0.002178802833986459, 0.019935556372747576,
             0.00992057916418565),
        ]
        for got, want in zip(rows, recorded):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestRegressionBasis:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_basis_equals_vander_bitwise(self, degree):
        fp = simulate_factors(brownian_factor(), T, 4, 1000, 53)
        state = fp.state[2]
        x = (state - np.mean(state)) / np.std(state)
        B = bsde._Regression(state, fp.dW[2], degree).B
        expected = np.vander(x, degree + 1, increasing=True)
        assert B.shape == expected.T.shape  # basis-major: one row per power
        assert np.array_equal(B.T.view(np.uint64), expected.view(np.uint64))

    def test_constant_state_row_is_intercept_only(self):
        B = bsde._Regression(np.full(100, 0.37), np.full(100, 0.1), 3).B
        assert B.shape == (1, 100)
        assert np.all(B == 1.0)

    def test_spread_whose_squares_underflow_is_singular(self):
        # the row varies, but x^2 rounds to 0 for every deviation, so it has
        # no standardized basis
        with pytest.raises(RegressionSingular) as exc:
            bsde._Regression(np.repeat([0.0, 1e-170], 50), np.full(100, 0.1), 3, step=4)
        assert exc.value.step == 4

    @pytest.mark.parametrize("degree", [1, 3])
    def test_coefficient_fit_matches_formed_target(self, degree):
        # C and the Z fit from power-sum Grams and coefficients are the fits
        # of the rows and of the formed centered target on B B'
        fp = simulate_factors(brownian_factor(), T, 4, 3000, 61)
        reg = bsde._Regression(fp.state[2], fp.dW[2], degree)
        rows = np.vstack([fp.state[3] ** 2, np.cos(fp.state[3]), fp.state[3]])
        C, Z = np.empty_like(rows), np.empty_like(rows)
        bsde._fit_date(reg, rows, fp.dt, C, Z)

        def fit(target):
            return (target @ reg.B.T) @ np.linalg.inv(reg.B @ reg.B.T) @ reg.B

        np.testing.assert_allclose(C, fit(rows), rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(Z, fit((rows - C) * fp.dW[2] / fp.dt),
                                   rtol=1e-9, atol=1e-9)
        # one row at a time writes the same values; C may alias the rows
        for k in range(len(rows)):
            c, z = np.empty(fp.paths), np.empty(fp.paths)
            bsde._fit_date(reg, rows[k], fp.dt, c, z)
            np.testing.assert_allclose(c, C[k], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(z, Z[k], rtol=1e-12, atol=1e-12)
        live = rows.copy()
        bsde._fit_date(reg, live, fp.dt, live, Z)
        assert np.array_equal(live, C)


class TestRecurrentSystems:
    def test_cycle_detection(self):
        spec0 = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: np.ones(f.paths),
                           depends_on=(1,))
        spec1 = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: np.ones(f.paths))
        fp = simulate_factors(frozen_state_model(), T, 4, 64, 1)
        with pytest.raises(CyclicDependency):
            solve_recurrent_system([spec0, spec1], fp)

    def test_cycle_in_late_spec_raised_before_any_regression(self):
        # spec 2 reads itself: the check covers every spec before the solves
        built = []

        class Counted(bsde._Regression):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        ok = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1])
        bad = DriverSpec(driver=lambda t, st, y, z, deps: deps[0][0],
                         terminal=lambda f, s: f.state[-1], depends_on=(2,))
        fp = simulate_factors(brownian_factor(), T, 4, 64, 1)
        with mock.patch.object(bsde, "_Regression", Counted):
            with pytest.raises(CyclicDependency, match="spec 2"):
                solve_recurrent_system([ok, ok, bad], fp)
        assert built == []

    def test_self_reference_rejected(self):
        spec0 = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: np.ones(f.paths),
                           depends_on=(0,))
        fp = simulate_factors(frozen_state_model(), T, 4, 64, 1)
        with pytest.raises(CyclicDependency):
            solve_recurrent_system([spec0], fp)

    def test_integrated_constant_chain(self):
        # Y1 = 1; Y2 integrates Y1 -> Y2_0 = T exactly on the discrete grid
        s1 = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: np.ones(f.paths))
        s2 = DriverSpec(driver=lambda t, st, y, z, deps: deps[0][0],
                        terminal=lambda f, s: np.zeros(f.paths), depends_on=(0,))
        fp = simulate_factors(frozen_state_model(), T, 32, 256, 5)
        g1, g2 = solve_recurrent_system([s1, s2], fp)
        assert g1.y0_mean == pytest.approx(1.0, abs=1e-14)
        assert g2.y0_mean == pytest.approx(T, abs=1e-12)

    def test_dependency_grids_are_aligned_in_time(self):
        # driver sees dep Y at the same index: integrating s -> T gives T - t
        s1 = DriverSpec(driver=lambda t, st, y, z: 1.0,
                        terminal=lambda f, s: np.zeros(f.paths))
        fp = simulate_factors(frozen_state_model(), T, 16, 64, 5)
        g1 = solve_recurrent_system([s1], fp)[0]
        assert np.allclose(g1.Y[:, 0], T - fp.times, atol=1e-12)

    def test_missing_dependency_feed(self):
        dep = DriverSpec(driver=lambda t, st, y, z, deps: deps[0][0],
                         terminal=lambda f, s: np.zeros(f.paths), depends_on=(0,))
        fp = simulate_factors(frozen_state_model(), T, 4, 64, 1)
        with pytest.raises(ValidationError):
            solve_bsde(dep, fp)

    def test_members_equal_standalone_solves_bitwise(self):
        # each member of one shared date loop is its own solve_bsde, fed the
        # earlier members' grids as deps
        fp = simulate_factors(brownian_factor(), T, 10, 1500, 61)
        specs = [
            DriverSpec(driver=lambda t, st, y, z: 0.1 * z ** 2 - 0.2 * y,
                       terminal=lambda f, s: f.state[-1] ** 2, z_bound=0.5),
            DriverSpec(driver=lambda t, st, y, z, deps: deps[0][0] - 0.3 * deps[0][1] - 0.1 * y,
                       terminal=lambda f, s: f.state[-1],
                       depends_on=(0,)),
            DriverSpec(driver=lambda t, st, y, z, deps: 0.05 * z ** 2 + deps[1][0] * deps[0][1],
                       terminal=lambda f, s: np.cos(f.state[-1]),
                       z_bound=0.5, depends_on=(1, 0)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZTruncationSaturated)
            system = solve_recurrent_system(specs, fp)
            for k, spec in enumerate(specs):
                alone = solve_bsde(spec, fp, deps=system[:k])
                got = system[k]
                for a, b in ((got.Y, alone.Y), (got.Z, alone.Z)):
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
                assert (got.y0_mean, got.y0_se, got.z_saturation) == \
                    (alone.y0_mean, alone.y0_se, alone.z_saturation)
        assert system[0].z_saturation > 0.0 and system[2].z_saturation > 0.0

    def test_one_regression_alive_at_a_time(self):
        live = weakref.WeakSet()
        peak = []

        class Counted(bsde._Regression):
            def __init__(self, *args):
                super().__init__(*args)
                live.add(self)
                peak.append(len(live))

        fp = simulate_factors(brownian_factor(), T, 8, 500, 67)
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1] ** 2)
        with mock.patch.object(bsde, "_Regression", Counted):
            solve_bsde(spec, fp)
            solve_recurrent_system([spec, spec], fp)
        assert len(peak) == 24 and max(peak) == 1

    def test_missing_dependency_message_names_spec_and_supply(self):
        fp = simulate_factors(frozen_state_model(), T, 4, 64, 1)
        base = solve_bsde(DriverSpec(driver=ZERO_DRIVER,
                                     terminal=lambda f, s: np.ones(f.paths)), fp)
        dep = DriverSpec(driver=lambda t, st, y, z, deps: deps[1][0],
                         terminal=lambda f, s: np.zeros(f.paths), depends_on=(0, 1))
        with pytest.raises(ValidationError, match=r"spec 0 depends on grids \[1\] "
                                                  r"but only 1 dependency grids"):
            solve_bsde(dep, fp, deps=[base])
        with pytest.raises(ValidationError, match=r"spec 3 depends on grids \[0, 1\] "
                                                  r"but only 0 dependency grids"):
            solve_flow_diagonal(lambda s: dep if s == 3 else
                                DriverSpec(driver=ZERO_DRIVER,
                                           terminal=lambda f, idx: np.ones(f.paths)), fp)


class TestConvergenceStudy:
    def test_rows_and_closed_form(self):
        rows = bsde.convergence_study(4000, 2, 5, grids=(10, 20))
        assert [r.grid_n for r in rows] == [10, 20]
        for r in rows:
            assert 0.0 < r.y_mse < 0.05 and 0.0 < r.z_mse < 0.5
            assert r.y_mse_se > 0.0 and abs(r.y0_bias) < 0.1

    def test_needs_two_replications(self):
        with pytest.raises(ValidationError):
            bsde.convergence_study(100, 1, 5)

    def test_top_seed_wraps_replicate_seeds(self):
        # replicate seeds derived from the study seed wrap into [0, 2**63)
        rows = bsde.convergence_study(100, 2, 2 ** 63 - 1, grids=(2, 3))
        assert [r.grid_n for r in rows] == [2, 3]


class TestWealthFlow:
    def test_mv_flow_residual_small_at_equilibrium(self):
        case = mv_base(grid_n=20)
        diag = mv_flow_residual(case.scenario, 1.0, paths=30_000, seed=29,
                                strategy=mv_closed_form(case.scenario, 1.0))
        assert diag.residual_rms < 5e-3
        assert np.max(np.abs(diag.implied_u - 3.75)) < 0.1

    def test_large_wealth_keeps_its_spread(self):
        # at x0 = 1e12 the date-1 spread (about 0.08) is tiny against the
        # mean but not zero, so that date regresses on the full basis
        scenario = MarketScenario(0.0, 0.3, 0.2, 1.0, 1e12, 100)
        diag = mv_flow_residual(scenario, 1.0, paths=2000, seed=42,
                                strategy=mv_closed_form(scenario, 1.0))
        assert diag.residual_max < 0.05

    def test_flow_residual_detects_wrong_strategy(self):
        case = mv_base(grid_n=20)
        wrong = mv_closed_form(case.scenario, 1.0).scaled(1.5)
        diag = mv_flow_residual(case.scenario, 1.0, paths=30_000, seed=29,
                                strategy=wrong)
        # theta - 2 gamma2 sigma^2 e^R u = 0.3 - 0.08 * 5.625 = -0.15
        assert diag.residual_rms > 0.1

    def test_wealth_factor_paths_shapes(self):
        case = mv_base(grid_n=10)
        u = mv_closed_form(case.scenario, 1.0)
        fp = wealth_factor_paths(case.scenario, u, 128, 3)
        assert fp.state.shape == (11, 128)
        assert fp.dW.shape == (10, 128)
        assert np.all(fp.state[0] == case.scenario.x0)


class TestBsdeGridContract:
    def test_shapes_and_standard_error(self):
        fp = simulate_factors(brownian_factor(), T, 6, 1024, 31)
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1])
        grid = solve_bsde(spec, fp)
        assert isinstance(grid, BsdeGrid)
        assert grid.Y.shape == (7, 1024)
        assert grid.Z.shape == (7, 1024)
        assert np.all(grid.Z[-1] == 0.0)  # terminal row has no increment
        assert grid.y0_se > 0.0

    def test_solver_determinism(self):
        fp = simulate_factors(brownian_factor(), T, 6, 2048, 31)
        spec = DriverSpec(driver=ZERO_DRIVER, terminal=lambda f, s: f.state[-1])
        a = solve_bsde(spec, fp)
        b = solve_bsde(spec, fp)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.Z, b.Z)
