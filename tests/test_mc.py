"""Monte Carlo wealth simulation against the analytic moment engine."""
import os
from unittest import mock

import numpy as np
import pytest

from eqmo.errors import TooFewPaths, ValidationError
from eqmo.model import MarketScenario, StrategyGrid
from eqmo.moments import (
    conditional_moments,
    mc_conditional_moments,
    simulate_terminal_wealth,
    simulate_wealth_paths,
)
from eqmo.sampling import BLOCK, _pool_size, blocked_normals, worker_count


def case(grid_n=40):
    s = MarketScenario.constant(r=0.03, theta=0.3, sigma=0.25, T=1.0, x0=1.0,
                                grid_n=grid_n)
    return s, StrategyGrid.constant(s, 2.0)


class TestBlockedNormals:
    def test_deterministic(self):
        a = blocked_normals(9, 5000, 3)
        b = blocked_normals(9, 5000, 3)
        assert np.array_equal(a, b)

    def test_worker_count_invariance(self):
        base = blocked_normals(9, 10000, 2)
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": "4"}):
            multi = blocked_normals(9, 10000, 2)
        assert np.array_equal(base, multi)

    def test_block_extension_is_prefix_stable(self):
        # adding paths must not change earlier draws (per-block substreams)
        small = blocked_normals(9, 4096, 2)
        large = blocked_normals(9, 8192, 2)
        assert np.array_equal(small, large[:4096])

    def test_seed_sensitivity(self):
        assert not np.array_equal(blocked_normals(1, 1000, 1),
                                  blocked_normals(2, 1000, 1))


class TestWorkerCount:
    @pytest.mark.parametrize("raw", ["two", "", "1.5", "0", "-3"])
    def test_invalid_values_are_typed_errors(self, raw):
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": raw}):
            with pytest.raises(ValidationError):
                worker_count()
            with pytest.raises(ValidationError):
                blocked_normals(9, 10, 1)

    def test_pool_is_capped_at_block_count(self):
        # the computed pool size, checked without starting any thread
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": str(10 ** 9)}):
            assert worker_count() == 10 ** 9
            assert _pool_size(3) == 3
            assert _pool_size(1) == 1
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": "2"}):
            assert _pool_size(7) == 2

    def test_single_block_with_huge_worker_count_runs_serially(self):
        base = blocked_normals(9, BLOCK, 2)
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": str(10 ** 9)}):
            assert np.array_equal(blocked_normals(9, BLOCK, 2), base)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2 ** 63, 2 ** 64 - 1, 1.0, True])
    def test_out_of_range_or_non_integer_seed_is_typed_error(self, seed):
        with pytest.raises(ValidationError):
            blocked_normals(seed, 10, 1)

    @pytest.mark.parametrize("seed", [0, 9, 2 ** 32, 2 ** 63 - 1])
    def test_in_range_streams_are_the_block_substreams(self, seed):
        got = blocked_normals(seed, BLOCK + 5, 2)
        for block, (lo, hi) in enumerate(((0, BLOCK), (BLOCK, BLOCK + 5))):
            rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
            assert np.array_equal(got[lo:hi], rng.standard_normal((hi - lo, 2)))

    def test_numpy_integer_seed_matches_int(self):
        assert np.array_equal(blocked_normals(np.int64(9), 100, 2),
                              blocked_normals(9, 100, 2))


class TestWealthSimulation:
    def test_zero_volatility_strategy_is_deterministic(self):
        s, _ = case()
        u = StrategyGrid.constant(s, 0.0)
        x = simulate_terminal_wealth(s, u, 0.0, 1.0, 500, 11)
        assert np.allclose(x, np.exp(0.03), atol=1e-12)

    def test_paths_terminal_row_matches_terminal_sampler(self):
        s, u = case()
        X, dW = simulate_wealth_paths(s, u, 2000, 13)
        xT = simulate_terminal_wealth(s, u, 0.0, s.x0, 2000, 13)
        assert np.array_equal(X[-1], xT)
        assert X.shape == (s.grid_n + 1, 2000)
        assert dW.shape == (s.grid_n, 2000)

    def test_increments_recover_paths(self):
        # X_{i+1} = e^{r dt} (X_i + theta u dt + sigma u dW): replay by hand
        s, u = case(10)
        X, dW = simulate_wealth_paths(s, u, 64, 5)
        dt = s.dt
        x = np.full(64, s.x0)
        for i in range(10):
            x = np.exp(s.r[i] * dt) * (
                x + s.theta[i] * u.values[i] * dt + s.sigma[i] * u.values[i] * dW[i]
            )
        assert np.allclose(x, X[-1], rtol=0.0, atol=1e-14)


class TestMcConditionalMoments:
    def test_agrees_with_analytic_within_4_se(self):
        s, u = case()
        analytic = conditional_moments(s, u, 0.0, s.x0, 6)
        est = mc_conditional_moments(s, u, 0.0, s.x0, 6, paths=40_000, seed=123)
        exact = [analytic.m1] + list(analytic.central)
        sampled = [est.moments.m1] + list(est.moments.central)
        for a, b, se in zip(exact, sampled, est.standard_errors):
            assert abs(b - a) <= 4.0 * se

    def test_batch_structure(self):
        s, u = case()
        est = mc_conditional_moments(s, u, 0.0, s.x0, 4, paths=5000, seed=1)
        assert est.paths == 5000
        assert len(est.standard_errors) == 4  # m1 + m2..m4
        assert all(se > 0.0 for se in est.standard_errors)

    def test_too_few_paths(self):
        s, u = case()
        with pytest.raises(TooFewPaths):
            mc_conditional_moments(s, u, 0.0, s.x0, 4, paths=999, seed=1)

    def test_deterministic_across_worker_counts(self):
        s, u = case()
        base = mc_conditional_moments(s, u, 0.0, s.x0, 4, paths=8192, seed=77)
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": "3"}):
            multi = mc_conditional_moments(s, u, 0.0, s.x0, 4, paths=8192, seed=77)
        assert base.moments == multi.moments
        assert base.standard_errors == multi.standard_errors

    def test_interior_start_time(self):
        s, u = case()
        t = float(s.times[20])
        analytic = conditional_moments(s, u, t, 1.3, 4)
        est = mc_conditional_moments(s, u, t, 1.3, 4, paths=30_000, seed=21)
        assert abs(est.moments.m1 - analytic.m1) <= 4.0 * est.standard_errors[0]
        assert abs(est.moments.V - analytic.V) <= 4.0 * est.standard_errors[1]
