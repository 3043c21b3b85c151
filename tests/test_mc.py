"""Monte Carlo wealth simulation against the analytic moment engine."""
import functools
import hashlib
import json
import math
import os
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from eqmo.bsde import brownian_factor, simulate_factors, wealth_factor_paths
from eqmo.cli import RunConfig, main
from eqmo.corpus import mv_discounted, random_curved_corpus, time_varying
from eqmo.errors import OffGridTime, TooFewPaths, ValidationError
from eqmo.model import MAX_GRID_N, MarketScenario, StrategyGrid, _check_grid
from eqmo.moments import (
    conditional_moments,
    mc_conditional_moments,
    simulate_terminal_wealth,
)
from eqmo.sampling import (
    BLOCK,
    CHUNK_BYTES,
    MAX_CELLS,
    MAX_PATHS,
    _pool_size,
    check_paths,
    worker_count,
)
from eqmo.sampling import for_each_block, time_major_normals


def case(grid_n=40):
    s = MarketScenario(r=0.03, theta=0.3, sigma=0.25, T=1.0, x0=1.0,
                       grid_n=grid_n)
    return s, StrategyGrid.constant(s, 2.0)


def block_normals(seed, b, rows, cols):
    """Block b of the documented stream drawn whole: numpy's ziggurat on an
    SFC64 bit generator seeded with SeedSequence((seed, b)), in C order.
    Written out here, not taken from eqmo.sampling, so that it pins the
    stream."""
    bits = np.random.SFC64(np.random.SeedSequence((seed, b)))
    return np.random.Generator(bits).standard_normal((rows, cols))


def stream_blocks(seed, paths, cols):
    """Yield (lo, hi, block) for each BLOCK-row block of the normal stream."""
    for b, lo in enumerate(range(0, paths, BLOCK)):
        hi = min(lo + BLOCK, paths)
        yield lo, hi, block_normals(seed, b, hi - lo, cols)


def stream(seed, paths, cols):
    """The (paths, cols) normal stream built whole, the reference of every
    sampler."""
    return np.concatenate([block for _, _, block in stream_blocks(seed, paths, cols)])


def ignore(lo, hi, Z):
    pass


class TestBlockedNormals:
    def test_deterministic(self):
        a = time_major_normals(9, 5000, 3)
        b = time_major_normals(9, 5000, 3)
        assert np.array_equal(a, b)

    def test_worker_count_invariance(self):
        base = time_major_normals(9, 10000, 2)
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": "4"}):
            multi = time_major_normals(9, 10000, 2)
        assert np.array_equal(base, multi)

    def test_block_extension_is_prefix_stable(self):
        # adding paths must not change earlier draws (per-block substreams)
        small = time_major_normals(9, 4096, 2)
        large = time_major_normals(9, 8192, 2)
        assert np.array_equal(small, large[:, :4096])

    def test_seed_sensitivity(self):
        assert not np.array_equal(time_major_normals(1, 1000, 1),
                                  time_major_normals(2, 1000, 1))


class TestWorkerCount:
    @pytest.mark.parametrize("raw", ["two", "", "1.5", "0", "-3"])
    def test_invalid_values_are_typed_errors(self, raw):
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": raw}):
            with pytest.raises(ValidationError):
                worker_count()
            with pytest.raises(ValidationError):
                for_each_block(9, 10, 1, ignore)
            with pytest.raises(ValidationError):
                time_major_normals(9, 10, 1)

    def test_pool_is_capped_at_block_count(self):
        # the computed pool size, checked without starting any thread
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": str(10 ** 9)}):
            assert worker_count() == 10 ** 9
            assert _pool_size(3) == 3
            assert _pool_size(1) == 1
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": "2"}):
            assert _pool_size(7) == 2

    def test_single_block_with_huge_worker_count_runs_serially(self):
        base = time_major_normals(9, BLOCK, 2)
        with mock.patch.dict(os.environ, {"EQMO_WORKERS": str(10 ** 9)}):
            assert np.array_equal(time_major_normals(9, BLOCK, 2), base)


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2 ** 63, 2 ** 64 - 1, 1.0, True])
    def test_out_of_range_or_non_integer_seed_is_typed_error(self, seed):
        with pytest.raises(ValidationError):
            for_each_block(seed, 10, 1, ignore)
        with pytest.raises(ValidationError):
            time_major_normals(seed, 10, 1)

    @pytest.mark.parametrize("seed", [0, 9, 2 ** 32, 2 ** 63 - 1])
    def test_in_range_streams_are_the_block_substreams(self, seed):
        seen = []

        def visit(lo, hi, Z):
            assert np.array_equal(Z, block_normals(seed, lo // BLOCK, hi - lo, 2))
            seen.append((lo, hi))

        for_each_block(seed, BLOCK + 5, 2, visit)
        assert seen == [(0, BLOCK), (BLOCK, BLOCK + 5)]

    def test_numpy_integer_seed_matches_int(self):
        assert np.array_equal(time_major_normals(np.int64(9), 100, 2),
                              time_major_normals(9, 100, 2))


class TestWealthSimulation:
    def test_zero_volatility_strategy_is_deterministic(self):
        s, _ = case()
        u = StrategyGrid.constant(s, 0.0)
        x = simulate_terminal_wealth(s, u, 0.0, 1.0, 500, 11)
        assert np.allclose(x, np.exp(0.03), atol=1e-12)

    def test_paths_terminal_row_matches_terminal_sampler(self):
        # the same normals through the step recursion and the weighted row
        # sum: equal up to the rounding bound of the two evaluation orders
        s, u = case()
        fp = wealth_factor_paths(s, u, 2000, 13)
        xT = simulate_terminal_wealth(s, u, 0.0, s.x0, 2000, 13)
        bound = rounding_bound(s, u, 0, s.x0, 2000, 13)
        assert (np.abs(fp.state[-1] - xT) <= bound).all()
        assert fp.state.shape == (s.grid_n + 1, 2000)
        assert fp.dW.shape == (s.grid_n, 2000)

    def test_increments_recover_paths(self):
        # X_{i+1} = e^{r dt} (X_i + theta u dt + sigma u dW): replay by hand
        s, u = case(10)
        fp = wealth_factor_paths(s, u, 64, 5)
        dt = s.dt
        x = np.full(64, s.x0)
        for i in range(10):
            x = np.exp(s.r[i] * dt) * (
                x + s.theta[i] * u.values[i] * dt + s.sigma[i] * u.values[i] * fp.dW[i]
            )
        assert np.allclose(x, fp.state[-1], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_time_is_off_grid(self, t):
        s, u = case()
        with pytest.raises(OffGridTime):
            simulate_terminal_wealth(s, u, t, 1.0, 500, 11)


class TestMcConditionalMoments:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_time_is_off_grid(self, t):
        s, u = case()
        with pytest.raises(OffGridTime):
            mc_conditional_moments(s, u, t, s.x0, 4, paths=1000, seed=1)

    def test_agrees_with_analytic_within_4_se(self):
        s, u = case()
        analytic = conditional_moments(s, u, 0.0, s.x0, 6)
        est = mc_conditional_moments(s, u, 0.0, s.x0, 6, paths=40_000, seed=123)
        exact = [analytic.m1] + list(analytic.central)
        sampled = [est.moments.m1] + list(est.moments.central)
        for a, b, se in zip(exact, sampled, est.standard_errors):
            assert abs(b - a) <= 4.0 * se

    def test_plug_in_standard_errors_match_gaussian_delta_method(self):
        # X_T is exactly N(m1, V) here, so the exact standard error of the
        # k-th sample moment is sqrt(E[h_k(D)^2] / N), D = X_T - m1, with the
        # delta method's influence polynomial h_1(x) = x and
        # h_k(x) = x^k - mu_k - k mu_{k-1} x, mu_2k = (2k-1)!! V^k. The
        # plug-in se^2 N is to first order the mean of N draws of h_k(D)^2:
        # plugging in sample moments for the mu's and the mean moves it by
        # O(1/N) only, since E[h_k(D)] = E[D h_k(D)] = E[h_k(D) h_k'(D)] = 0
        # for a Gaussian. So it strays from E[h_k^2] by a standard deviation
        # sqrt((E[h_k^4] - E[h_k^2]^2) / N); allow 5 of them.
        s, u = case()
        n, paths = 6, 20_000
        est = mc_conditional_moments(s, u, 0.0, s.x0, n, paths=paths, seed=1)
        assert len(est.standard_errors) == n  # m1 + m2..m6
        assert all(se > 0.0 for se in est.standard_errors)
        V = conditional_moments(s, u, 0.0, s.x0, 2).V
        for k, se in zip(range(1, n + 1), est.standard_errors):
            h = influence_polynomial(k, V)
            v = gaussian_mean(h ** 2, V)
            spread = math.sqrt((gaussian_mean(h ** 4, V) - v * v) / paths)
            assert abs(se * se * paths - v) <= 5.0 * spread, k

    def test_equal_paths_have_zero_moments_and_errors(self):
        # u = 0: every path is x_T, which is then the mean, not the rounded
        # np.mean whose residue gave this case an se near 5e-18
        s = mv_discounted().scenario
        u = StrategyGrid.constant(s, 0.0)
        X = simulate_terminal_wealth(s, u, 0.0, s.x0, 2000, 5)
        est = mc_conditional_moments(s, u, 0.0, s.x0, 6, paths=2000, seed=5)
        assert est.moments.m1 == X[0]
        assert est.moments.central == (0.0,) * 5
        assert est.standard_errors == (0.0,) * 6

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

    def test_moments_match_pow_reference(self):
        # running products d^k = d^{k-1} d in place of libm pow: a product
        # carries k - 1 roundings and pow errs by under one ulp (2u), so an
        # element differs by at most gamma_{k+1} |d|^k; the mean of N of
        # them, summed in any order and divided by N, adds at most
        # gamma_N mean(|d|^k) to each side. Hence
        # |est_k - ref_k| <= (gamma_{k+1} + 2 gamma_N) mean(|d|^k)
        s, u = varying_case(40)
        paths, n = 5000, 6
        est = mc_conditional_moments(s, u, 0.0, s.x0, n, paths=paths, seed=17)
        v = simulate_terminal_wealth(s, u, 0.0, s.x0, paths, 17)
        m1 = float(np.mean(v))
        d = v - m1
        assert est.moments.m1 == m1
        for k, got in zip(range(2, n + 1), est.moments.central):
            ref = float(np.mean(d ** k))
            bound = (gamma(k + 1) + 2.0 * gamma(paths)) * float(np.mean(np.abs(d) ** k))
            assert abs(got - ref) <= bound, k

    def test_interior_start_time(self):
        s, u = case()
        t = float(s.times[20])
        analytic = conditional_moments(s, u, t, 1.3, 4)
        est = mc_conditional_moments(s, u, t, 1.3, 4, paths=30_000, seed=21)
        assert abs(est.moments.m1 - analytic.m1) <= 4.0 * est.standard_errors[0]
        assert abs(est.moments.V - analytic.V) <= 4.0 * est.standard_errors[1]


def gaussian_moment(j, V):
    """E[D^j] for D ~ N(0, V): (j - 1)!! V^{j/2} for even j, 0 for odd."""
    return 0.0 if j % 2 else math.prod(range(j - 1, 0, -2)) * V ** (j // 2)


def gaussian_mean(poly, V):
    """E[poly(D)] for D ~ N(0, V)."""
    return sum(c * gaussian_moment(j, V) for j, c in enumerate(poly.coef))


def influence_polynomial(k, V):
    """The delta method's h_k: the k-th sample central moment of N draws of
    D ~ N(0, V) is mu_k + mean(h_k(D)) to first order."""
    if k == 1:
        return Polynomial([0.0, 1.0])
    return Polynomial([-gaussian_moment(k, V), -k * gaussian_moment(k - 1, V)]
                      + [0.0] * (k - 2) + [1.0])


# ---------------------------------------------------------------------------
# streamed sampling: block-by-block draws against the full-matrix reference

STREAM_PATHS = (1, BLOCK - 1, BLOCK, BLOCK + 5, 3 * BLOCK + 17)


def varying_case(grid_n=12):
    s = time_varying(grid_n).scenario
    return s, StrategyGrid(1.5 + 0.5 * np.sin(3.0 * s.times))


def step_coeffs(s, u, i0):
    """g, a, b of the steps i0..grid_n - 1 of X_{j+1} = g_j (X_j + a_j + b_j z_j)."""
    n = s.grid_n
    g = np.exp(s.r[i0:n] * s.dt)
    a = s.theta[i0:n] * u.values[i0:n] * s.dt
    b = s.sigma[i0:n] * u.values[i0:n] * math.sqrt(s.dt)
    return g, a, b


def compounded(g):
    """G_j = g_j g_{j+1} ... g_{m-1}, multiplied from the last step back."""
    return np.cumprod(g[::-1])[::-1]


def terminal_reference(s, u, i0, x, paths, seed):
    """X_T from the full normal matrix as one weighted row sum per path:
    G_0 x + sum_j G_j a_j + sum_j G_j b_j z_j."""
    g, a, b = step_coeffs(s, u, i0)
    if len(g) == 0:
        return np.full(paths, float(x))
    G = compounded(g)
    Z = stream(seed, paths, len(g))
    return np.sum(Z * (G * b), axis=1) + (float(G[0]) * float(x) + float(np.sum(G * a)))


def recursion_reference(s, u, i0, x, paths, seed):
    """X_T from the full normal matrix, step by step as wealth_factor_paths."""
    g, a, b = step_coeffs(s, u, i0)
    X = np.full(paths, float(x))
    Z = stream(seed, paths, len(g))
    for j in range(len(g)):
        X = g[j] * (X + a[j] + b[j] * Z[:, j])
    return X


U = np.finfo(float).eps / 2  # unit roundoff 2^-53


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error of a value that
    carries k roundings, each fl(p op q) = (p op q)(1 + delta), |delta| <= u."""
    return k * U / (1.0 - k * U)


def rounding_bound(s, u, i0, x, paths, seed):
    """Per-path bound on |row sum - recursion| from the same normals.

    Both evaluate X_T = G_0 x + sum_j G_j a_j + sum_j G_j b_j z_j over m
    steps, G the exact products of the float g; each term reaches the result
    with some number of roundings, so the error is at most gamma of the
    largest count times sum |terms|.
    - The recursion rounds b z, two sums and a product per step, so a term
      passes at most 3 roundings per step: gamma_{3m}.
    - The row sum: G_j carries at most m - 1 (the running product), w = G b
      one, w z one, the sum of m terms m - 1 in any order and adding x_T
      one; the terms of x_T carry at most (m - 1) + 1 + (m - 1) + 1 before
      that last sum: gamma_{2m+1}.
    gamma_{3m} + gamma_{2m+1} <= gamma_{5m+1}. The float sum of |terms|
    below carries at most (m + 1) + (m - 1) + 2 roundings per term, all
    terms nonnegative, so the exact sum is at most it / (1 - gamma_{2m+2}).
    """
    g, a, b = step_coeffs(s, u, i0)
    m = len(g)
    if m == 0:
        return np.zeros(paths)
    G = compounded(g)
    Z = stream(seed, paths, m)
    terms = abs(float(G[0]) * float(x)) + float(np.sum(np.abs(G * a))) \
        + np.sum(np.abs(Z * (G * b)), axis=1)
    return gamma(5 * m + 1) * terms / (1.0 - gamma(2 * m + 2))


def rounding_case(name):
    """A market with r != 0 and a strategy that changes sign or level."""
    if name == "time_varying":
        return varying_case(60)
    if name == "mv_discounted":
        s = mv_discounted(80).scenario
        return s, StrategyGrid(2.0 + np.cos(5.0 * s.times))
    # curved corpus markets under a seeded rough strategy, as the oracle tests
    s = random_curved_corpus(count=3)[int(name[-1])].scenario
    rng = np.random.default_rng(5)
    return s, StrategyGrid(rng.uniform(-2.0, 6.0, s.grid_n + 1))


def assert_streamed_matches_reference(paths_list, seed):
    s, u = varying_case()
    for paths in paths_list:
        for i0 in (0, 5, s.grid_n):
            got = simulate_terminal_wealth(s, u, float(s.times[i0]), 1.25, paths, seed)
            want = terminal_reference(s, u, i0, 1.25, paths, seed)
            assert got.shape == (paths,)
            assert np.array_equal(got, want), (paths, i0)


def run_bounded(fn, timeout=60.0):
    """Run fn on a daemon thread; fail instead of hanging if it never returns."""
    errors = []

    def target():
        try:
            fn()
        except BaseException as exc:  # re-raised on the test thread below
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no result within {timeout} s"
    if errors:
        raise errors[0]


class TestStreamedTerminalWealth:
    def test_bitwise_equal_to_full_matrix_recursion(self):
        assert_streamed_matches_reference(STREAM_PATHS, 31)

    @pytest.mark.parametrize("workers", ["2", "5"])
    def test_bitwise_equal_under_threads(self, workers):
        # 6 * BLOCK + 3 paths give seven blocks, so 5 workers start 5 threads,
        # more than this suite's machines have cores
        paths = 6 * BLOCK + 3

        def compare():
            assert_streamed_matches_reference(STREAM_PATHS + (paths,), 32)
            assert np.array_equal(time_major_normals(33, paths, 12),
                                  stream(33, paths, 12).T)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.dict(os.environ, {"EQMO_WORKERS": workers}):
                run_bounded(compare)
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("name", ["time_varying", "mv_discounted", "curved_0",
                                      "curved_1", "curved_2"])
    def test_within_rounding_bound_of_recursion(self, name):
        s, u = rounding_case(name)
        assert np.any(s.r != 0.0)
        paths = BLOCK + 5
        for i0 in (0, s.grid_n // 2, s.grid_n):
            got = simulate_terminal_wealth(s, u, float(s.times[i0]), 1.25, paths, 41)
            want = recursion_reference(s, u, i0, 1.25, paths, 41)
            bound = rounding_bound(s, u, i0, 1.25, paths, 41)
            assert (np.abs(got - want) <= bound).all(), i0

    def test_compounded_weight_overflow_is_one_typed_error(self):
        # every per-step factor e^10 is finite, their product e^1000 is not
        s = MarketScenario(r=1e3, theta=0.3, sigma=0.25, T=1.0, x0=1.0,
                           grid_n=100)
        u = StrategyGrid.constant(s, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="compounded"):
                simulate_terminal_wealth(s, u, 0.0, 1.0, 100, 1)
            # five steps from the horizon the weights are at most e^50
            late = simulate_terminal_wealth(s, u, float(s.times[95]), 1.0, 100, 1)
        assert np.isfinite(late).all()

    @pytest.mark.parametrize("workers", ["1", "3"])
    @pytest.mark.parametrize("cols", [0, 1, 7, 250, 5000])
    @pytest.mark.parametrize("paths", [1, BLOCK - 1, BLOCK + 5, 3 * BLOCK + 17])
    def test_chunks_are_the_stream_and_tile_each_block_in_order(self, paths, cols,
                                                                workers):
        # chunks of one block are filled in turn from the block's generator,
        # so the chunks of each block, taken in visit order, must be the
        # stream's rows bitwise, compared through sha256 digests of each block
        rows = max(1, min(BLOCK, CHUNK_BYTES // (8 * max(cols, 1))))
        want = stream_digests(5, paths, cols)
        digests = [hashlib.sha256() for _ in want]
        visits = [[] for _ in want]

        def visit(lo, hi, Z):
            assert Z.shape == (hi - lo, cols)
            visits[lo // BLOCK].append((lo, hi))
            digests[lo // BLOCK].update(Z)

        def check_time_major():
            if paths * cols > MAX_CELLS:
                with pytest.raises(ValidationError, match="exceeds"):
                    time_major_normals(5, paths, cols)
                return
            out = time_major_normals(5, paths, cols)
            assert out.shape == (cols, paths) and out.flags.c_contiguous
            for b, lo in enumerate(range(0, paths, BLOCK)):
                block = np.ascontiguousarray(out[:, lo:lo + BLOCK].T)
                assert hashlib.sha256(block).digest() == want[b], b

        with mock.patch.dict(os.environ, {"EQMO_WORKERS": workers}):
            run_bounded(lambda: for_each_block(5, paths, cols, visit))
            run_bounded(check_time_major)
        assert [d.digest() for d in digests] == want
        for b, lo in enumerate(range(0, paths, BLOCK)):
            hi = min(lo + BLOCK, paths)
            assert visits[b] == [(a, min(a + rows, hi)) for a in range(lo, hi, rows)], b


@functools.lru_cache(maxsize=None)
def stream_digests(seed, paths, cols):
    """sha256 digest of each block of the reference stream, drawn whole."""
    return [hashlib.sha256(block).digest() for _, _, block in stream_blocks(seed, paths, cols)]


class TestTimeMajorSamplers:
    @pytest.mark.parametrize("paths", STREAM_PATHS)
    def test_time_major_normals_is_the_transpose(self, paths):
        got = time_major_normals(8, paths, 7)
        assert got.flags.c_contiguous
        assert np.array_equal(got, stream(8, paths, 7).T)

    @pytest.mark.parametrize("paths", (BLOCK - 1, BLOCK + 5))
    def test_wealth_path_increments_are_scaled_normals(self, paths):
        s, u = varying_case()
        fp = wealth_factor_paths(s, u, paths, 14)
        assert np.array_equal(fp.dW, math.sqrt(s.dt) * stream(14, paths, s.grid_n).T)
        assert np.array_equal(fp.state[-1], recursion_reference(s, u, 0, s.x0, paths, 14))

    @pytest.mark.parametrize("paths", (BLOCK - 1, BLOCK + 5))
    def test_factor_increments_are_scaled_normals(self, paths):
        fp = simulate_factors(brownian_factor(), 1.0, 8, paths, 15)
        Z = stream(15, paths, 8)
        assert np.array_equal(fp.dW, math.sqrt(fp.dt) * Z.T)
        state = np.zeros(paths)
        for i in range(8):
            state = 0.0 + (state - 0.0) * 1.0 + math.sqrt(fp.dt) * Z[:, i]
            assert np.array_equal(fp.state[i + 1], state)


class TestStreamMemory:
    """The stream is visited one chunk of about CHUNK_BYTES at a time, so a
    sampler holds its output and one chunk, whatever the column count."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            with mock.patch.dict(os.environ, {"EQMO_WORKERS": "1"}):
                fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_terminal_sampler_holds_one_chunk(self):
        # one 4096 x 5000 block would be 164 MB beside an output of 32 kB
        paths, steps = 4096, 5000
        s, u = case(steps)
        peak = self.traced_peak(lambda: simulate_terminal_wealth(s, u, 0.0, 1.0, paths, 3))
        assert peak < 8 * paths + 2 * CHUNK_BYTES

    def test_time_major_normals_holds_output_and_one_chunk(self):
        paths, cols = 4096, 1000
        peak = self.traced_peak(lambda: time_major_normals(3, paths, cols))
        assert peak < 8 * paths * cols + 2 * CHUNK_BYTES


def refuse_large_allocations():
    """Patch numpy's allocators to fail on anything path-count sized."""
    def guard(real):
        def allocate(shape, *args, **kwargs):
            size = math.prod(shape) if isinstance(shape, tuple) else shape
            assert size <= 10 ** 6, f"allocated {shape}"
            return real(shape, *args, **kwargs)
        return allocate
    return mock.patch.multiple(np, empty=guard(np.empty), full=guard(np.full),
                               zeros=guard(np.zeros))


class TestPathLimit:
    @pytest.mark.parametrize("paths", [10 ** 12, MAX_PATHS + 1, 0, -1, 2.0, True])
    def test_typed_error_before_any_allocation(self, paths):
        s, u = varying_case()
        calls = (
            lambda: check_paths(paths),
            lambda: for_each_block(1, paths, 3, ignore),
            lambda: time_major_normals(1, paths, 3),
            lambda: simulate_terminal_wealth(s, u, 0.0, 1.0, paths, 1),
            lambda: wealth_factor_paths(s, u, paths, 1),
            lambda: simulate_factors(brownian_factor(), s.T, s.grid_n, paths, 1),
        )
        with refuse_large_allocations():
            for call in calls:
                with pytest.raises(ValidationError):
                    call()

    def test_bound_itself_is_accepted(self):
        assert check_paths(MAX_PATHS) == MAX_PATHS
        assert check_paths(np.int64(7)) == 7

    @pytest.mark.parametrize("cols", [-1, 2.0, True, None])
    def test_bad_column_count_is_typed_error(self, cols):
        with refuse_large_allocations():
            with pytest.raises(ValidationError, match="cols"):
                for_each_block(1, 10, cols, ignore)
            with pytest.raises(ValidationError, match="cols"):
                time_major_normals(1, 10, cols)

    def test_numpy_integer_and_zero_column_counts(self):
        assert np.array_equal(time_major_normals(3, 10, np.int64(4)),
                              time_major_normals(3, 10, 4))
        assert time_major_normals(3, 10, 0).shape == (0, 10)

    @pytest.mark.parametrize("paths", [10 ** 12, MAX_PATHS + 1])
    def test_run_config_rejects(self, paths):
        with pytest.raises(ValidationError):
            RunConfig(command="mc", scenario_path="x.scn", out_dir="out", seed=1,
                      grid_n=10, paths=paths, format="csv", scheme="explicit")
        RunConfig(command="mc", scenario_path="x.scn", out_dir="out", seed=1,
                  grid_n=10, paths=MAX_PATHS, format="csv", scheme="explicit")

    def test_cli_exits_1_with_diagnostic(self, tmp_path, capsys):
        scn = os.path.join(os.path.dirname(__file__), "..", "scenarios", "mv_base.scn")
        with refuse_large_allocations():
            rc = main(["--command", "mc", "--scenario", scn, "--out", str(tmp_path),
                       "--paths", str(10 ** 12)])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "ValidationError"
        assert "paths" in diag["message"]
        assert not any(tmp_path.iterdir())


class TestGridLimit:
    """A grid is bounded by MAX_GRID_N steps, checked before anything is
    allocated; a scenario and a factor simulation share the one check."""

    @pytest.mark.parametrize("grid_n", [MAX_GRID_N + 1, 10 ** 9, 10 ** 18])
    def test_typed_error_before_any_allocation(self, grid_n):
        calls = (
            lambda: MarketScenario(r=0.03, theta=0.3, sigma=0.25, T=1.0, x0=1.0,
                                   grid_n=grid_n),
            lambda: simulate_factors(brownian_factor(), 1.0, grid_n, 8, 1),
        )
        with refuse_large_allocations():
            for call in calls:
                with pytest.raises(ValidationError, match="grid_n must be <= 1000000"):
                    call()

    def test_bound_itself_is_accepted(self):
        assert _check_grid(1.0, MAX_GRID_N) == MAX_GRID_N

    def test_cli_exits_1_with_diagnostic(self, tmp_path, capsys):
        scn = os.path.join(os.path.dirname(__file__), "..", "scenarios", "mv_base.scn")
        with refuse_large_allocations():
            rc = main(["--command", "solve", "--scenario", scn, "--out", str(tmp_path),
                       "--grid-n", str(10 ** 9)])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "ValidationError"
        assert "grid_n" in diag["message"]
        assert not any(tmp_path.iterdir())


class TestTimeMajorLimit:
    """Time-major matrices (the regression route's normals) are bounded by
    paths x steps, checked before anything is allocated."""

    @pytest.mark.parametrize("paths, cols", [(MAX_CELLS // 25 + 1, 25),
                                             (10 ** 7, 100), (MAX_PATHS, 2)])
    def test_typed_error_before_any_allocation(self, paths, cols):
        s = MarketScenario(r=0.03, theta=0.3, sigma=0.25, T=1.0, x0=1.0,
                           grid_n=cols)
        u = StrategyGrid.constant(s, 2.0)
        calls = (
            lambda: time_major_normals(1, paths, cols),
            lambda: wealth_factor_paths(s, u, paths, 1),
            lambda: simulate_factors(brownian_factor(), 1.0, cols, paths, 1),
        )
        with refuse_large_allocations():
            for call in calls:
                with pytest.raises(ValidationError, match="exceeds"):
                    call()

    def test_bound_itself_is_accepted(self):
        class Reached(Exception):
            pass

        def empty(shape, *args, **kwargs):
            raise Reached(shape)

        with mock.patch.object(np, "empty", empty):
            with pytest.raises(Reached) as exc_info:
                time_major_normals(1, MAX_CELLS // 25, 25)
        assert exc_info.value.args[0] == (25, MAX_CELLS // 25)

    def test_cli_bsde_exits_1_with_diagnostic(self, tmp_path, capsys):
        scn = os.path.join(os.path.dirname(__file__), "..", "scenarios", "ou_factor.scn")
        with refuse_large_allocations():
            rc = main(["--command", "bsde", "--scenario", scn, "--out", str(tmp_path),
                       "--paths", str(10 ** 8)])
        assert rc == 1
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "ValidationError"
        assert "paths x steps" in diag["message"]
        assert not any(tmp_path.iterdir())
