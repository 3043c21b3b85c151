"""Conditional moments of terminal wealth under deterministic strategies.

Wealth follows dX_s = [r X_s + theta u_s] ds + sigma u_s dW_s with
piecewise-constant parameters and controls, so the conditional law of X_T
given (t, x) is Gaussian with mean and variance given by finite left-endpoint
sums. This module holds that law only: the exact moments, and a Monte Carlo
oracle that samples X_T under the matching exact per-step update
X_{i+1} = e^{r dt} (X_i + theta u dt + sigma u sqrt(dt) xi), which reproduces
those sums with zero discretization bias. The regression route's whole
wealth paths are :func:`eqmo.bsde.wealth_factor_paths`, on the same update.

The terminal sampler streams its normals one chunk of about
`sampling.CHUNK_BYTES` at a time (`sampling.for_each_block`): each chunk is
drawn and turned into terminal wealth, one weighted row sum per path, before
the next is drawn, on `EQMO_WORKERS` threads when that is above 1. Memory is
O(CHUNK_BYTES + paths) per thread, not O(paths * steps), and every path sees
the same normals and the same float operations as the whole-matrix row sum,
so samples are bitwise independent of the chunk and block schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativeVariance,
    OrderMismatch,
    OutOfRange,
    TooFewPaths,
    ValidationError,
)
from .model import (
    MarketScenario,
    ObjectiveSpec,
    StrategyGrid,
    _DOUBLE_FACTORIAL,
    _check_order,
    _sum_to_horizon,
    moments_to_cumulants,
    rate_to_horizon,
)
from .sampling import check_paths, for_each_block


@dataclass(frozen=True)
class MomentVector:
    """Conditional moments of X_T given (t, x): the mean, central moments
    m2..mn and cumulants k2..kn; the variance is m2."""

    m1: float
    central: tuple[float, ...]
    cumulant: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.central or len(self.central) != len(self.cumulant):
            raise ValidationError(
                f"moment lists need equal nonzero lengths, got "
                f"{len(self.central)}/{len(self.cumulant)}"
            )
        if self.V < 0.0:
            raise NegativeVariance(f"V = {self.V} < 0")
        if not all(math.isfinite(v) for v in (self.m1,) + self.central + self.cumulant):
            raise ValidationError("moments must be finite")
        if self.order >= 4:
            m2, m4 = self.central[0], self.central[2]
            if m4 < m2 ** 2 - 1e-9 * max(1.0, m2 ** 2):
                raise ValidationError(f"m4 = {m4} < m2^2 = {m2 ** 2}")

    @property
    def V(self) -> float:
        """The variance m2."""
        return self.central[0]

    @property
    def order(self) -> int:
        """The highest moment order n."""
        return len(self.central) + 1

    def moment(self, k: int, mode: str) -> float:
        """q_k in the requested mode; k = 1 returns the conditional mean."""
        if k == 1:
            return self.m1
        return self.central[k - 2] if mode == "central" else self.cumulant[k - 2]


@dataclass(frozen=True)
class McEstimate:
    """Sampled MomentVector, plug-in standard errors and the rounding bound
    that a moment whose se is 0 must meet (m1, m2..mn order)."""

    moments: MomentVector
    standard_errors: tuple[float, ...]
    rounding: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(s) and s >= 0.0 for s in self.standard_errors):
            raise ValidationError("standard errors must be finite and nonnegative")


def gaussian_central_moments(V: float, n: int) -> list[float]:
    """Central moments [m2..mn] of N(mu, V): (k-1)!! V^{k/2} even, 0 odd."""
    _check_order(n)
    if V < 0.0:
        raise NegativeVariance(f"V = {V} < 0")
    try:
        return [
            _DOUBLE_FACTORIAL[k] * V ** (k // 2) if k % 2 == 0 else 0.0
            for k in range(2, n + 1)
        ]
    except OverflowError:  # a float ** int raises where numpy would give inf
        raise ValidationError(f"Gaussian moments of V = {V} overflow") from None


def _increments(scenario: MarketScenario, g: np.ndarray, u: np.ndarray, lo: int):
    """Per-step mean and variance contributions g theta u dt and
    g^2 sigma^2 u^2 dt of the steps lo, ..., lo + len(u) - 1, where g holds
    their growth factors e^{R_i} and u their controls."""
    hi = lo + len(u)
    dt = scenario.dt
    return (g * scenario.theta[lo:hi] * u * dt,
            g * g * np.float_power(scenario.sigma[lo:hi], 2) * np.float_power(u, 2) * dt)


def _moments_from(scenario: MarketScenario, u: np.ndarray, lo: int):
    """(R, g, M, V) on the grid suffix [t_lo, T] under the controls u[lo:]:
    R, M and V at indices lo..grid_n, the cached e^R g at lo..grid_n - 1. A
    reversed cumsum at i >= lo reads only increments i..grid_n - 1, so every
    value is bitwise the whole-grid one (lo = 0 is the whole grid). The sums
    carry any non-finite increment to index lo, where one check refuses it."""
    R = rate_to_horizon(scenario)[lo:]
    g = scenario.growth[lo:scenario.grid_n]
    with np.errstate(over="ignore", invalid="ignore"):
        dM, dV = _increments(scenario, g, u[lo:scenario.grid_n], lo)
        M, V = _sum_to_horizon(dM), _sum_to_horizon(dV)
    if not (math.isfinite(M[0]) and math.isfinite(V[0])):
        raise ValidationError("moments-to-go overflow under this strategy")
    return R, g, M, V


def moments_to_go(scenario: MarketScenario, strategy: StrategyGrid):
    """Grid profiles (M, V): controlled mean contribution and variance of X_T
    accumulated over [t_i, T], so m1(t_i, x) = x e^{R_i} + M_i.

    Shared by the analytic engine, the equilibrium sweep, and the verifier,
    so their float arithmetic agrees bitwise. The convention:

    - both profiles are reversed cumsums (:func:`eqmo.model._sum_to_horizon`),
      which associate every sum right to left exactly as the backward loop
      ``M[i] = M[i + 1] + g_i theta_i u_i dt`` does;
    - the growth factors g_i = e^{R_i} come from libm's ``math.exp``
      (:func:`eqmo.model.growth_factors`) and the squares sigma_i^2, u_i^2
      from libm ``pow`` (``np.float_power``), as in that scalar loop.
      ``np.exp`` differs from ``math.exp`` in the last bit on about 4 % of
      inputs, and an array ``x ** 2`` (a multiply) from ``pow`` on about
      0.1 %; either would move V.
    """
    strategy.check_grid(scenario)
    _, _, M, V = _moments_from(scenario, strategy.values, 0)
    return M, V


@dataclass(frozen=True)
class MomentGrid:
    """Exact conditional moments of X_T at every grid time from one
    accumulation: m1(t_i, x) = x e^{R_i} + M_i, variance V_i. The profiles
    may cover a suffix of the grid; index 0 is then its first time."""

    R: np.ndarray
    M: np.ndarray
    V: np.ndarray

    def at(self, i: int, x: float, n: int) -> MomentVector:
        """Moments of orders 1..n given wealth x at grid index i."""
        if not 0 <= i < len(self.V):
            raise OutOfRange(f"grid index {i} outside [0, {len(self.V) - 1}]")
        m1 = float(x * math.exp(self.R[i]) + self.M[i])
        v = float(self.V[i])
        central = tuple(gaussian_central_moments(v, n))
        cumulant = (v,) + (0.0,) * (n - 2)
        return MomentVector(m1, central, cumulant)


def moment_grid(scenario: MarketScenario, strategy: StrategyGrid) -> MomentGrid:
    """Whole-grid conditional-moments engine: O(n) once, O(1) per index."""
    M, V = moments_to_go(scenario, strategy)
    return MomentGrid(rate_to_horizon(scenario), M, V)


def conditional_moments(scenario: MarketScenario, strategy: StrategyGrid,
                        t: float, x: float, n: int) -> MomentVector:
    """Exact conditional moments of X_T given (t, x) at a grid time t."""
    _check_order(n)
    i = scenario.grid_index(t)
    return moment_grid(scenario, strategy).at(i, x, n)


def objective_value(objective: ObjectiveSpec, mv: MomentVector) -> float:
    """Evaluate the sparse objective polynomial at the given moments; a value
    that overflows the float range is a ValidationError."""
    if mv.order < objective.max_order:
        raise OrderMismatch(
            f"moment order {mv.order} < objective order {objective.max_order}"
        )
    total = 0.0
    try:
        for term in objective.terms:
            val = term.coeff
            for k, e in term.factors:
                val *= mv.moment(k, objective.mode) ** e
            total += val
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValidationError("objective value overflows at these moments")
    return total


def _wealth_step_coeffs(scenario: MarketScenario, strategy: StrategyGrid):
    """Per-step update X_{i+1} = g_i (X_i + a_i + b_i xi_i) for i < grid_n;
    a coefficient that overflows is a ValidationError."""
    strategy.check_grid(scenario)
    dt = scenario.dt
    n = scenario.grid_n
    u = strategy.values[:n]
    with np.errstate(over="ignore"):
        g = np.exp(scenario.r[:n] * dt)
        a = scenario.theta[:n] * u * dt
        b = scenario.sigma[:n] * u * math.sqrt(dt)
    if not (np.isfinite(g).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("wealth step coefficients overflow under this strategy")
    return g, a, b


def simulate_terminal_wealth(scenario: MarketScenario, strategy: StrategyGrid,
                             t: float, x: float, paths: int, seed: int) -> np.ndarray:
    """Sample X_T from (t, x) under the strategy; exact discrete transitions.

    Same law and same normals as :func:`eqmo.bsde.wealth_factor_paths`, whose
    step X_{j+1} = g_j (X_j + a_j + b_j z_j) unrolls to
    X_T = G_{i0} x + sum_j G_j a_j + sum_j G_j b_j z_j with the compounded
    weights G_j = g_j g_{j+1} ... g_{grid_n - 1}. So each path is the
    constant x_T = G_{i0} x + sum_j G_j a_j plus one weighted row sum of its
    normals, w = G b. Rows are summed by numpy's pairwise reduction, not
    BLAS, so a path's bits depend on its own normals only; they differ from
    the step-by-step recursion at round-off. A weight or constant past the
    float range is a ValidationError.

    Streams the normals one chunk of rows at a time, so memory is
    O(CHUNK_BYTES + paths) per thread rather than O(paths * steps).
    """
    return _terminal_wealth(scenario, strategy, t, x, paths, seed)[0]


def _terminal_wealth(scenario: MarketScenario, strategy: StrategyGrid, t: float, x: float,
                     paths: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sample of ``simulate_terminal_wealth`` with its compounded weights G and its a."""
    g, a, b = (c[scenario.grid_index(t):] for c in _wealth_step_coeffs(scenario, strategy))
    paths = check_paths(paths)
    if len(g) == 0:
        return np.full(paths, float(x)), g, a
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.cumprod(g[::-1])[::-1]
        w = G * b
        x_T = float(G[0]) * float(x) + float(np.sum(G * a))
    if not (np.isfinite(G).all() and np.isfinite(w).all() and math.isfinite(x_T)):
        raise ValidationError("compounded wealth weights overflow under this strategy")
    X = np.empty(paths)

    def advance(lo: int, hi: int, Z: np.ndarray) -> None:
        # Z is the thread's scratch chunk, so it takes the weights in place
        x_ = np.sum(np.multiply(Z, w, out=Z), axis=1, out=X[lo:hi])
        x_ += x_T

    for_each_block(seed, paths, len(w), advance)
    return X, G, a


def mc_conditional_moments(scenario: MarketScenario, strategy: StrategyGrid,
                           t: float, x: float, n: int, paths: int,
                           seed: int) -> McEstimate:
    """Monte Carlo oracle for :func:`conditional_moments`.

    One pass takes the sample central moments mu_k, k = 2..2n, as running
    products d^k = d^{k-1} d (libm pow costs about 40 times as much); those
    up to n are the estimates. The standard errors are the delta-method ones
    with the sample's own mu_k plugged in: mu_2 / N for the mean and
    (mu_2k - mu_k^2 - 2k mu_{k-1} mu_{k+1} + k^2 mu_{k-1}^2 mu_2) / N for
    m_k. A sample whose paths are all equal has every central moment and
    standard error exactly 0. A value past the float range is a
    ValidationError.

    Such a sample's mean x_T compounds the m = grid_n - i factors np.exp(r dt)
    (4 eps each at worst, eps = 2^-52), and :func:`conditional_moments` takes
    math.exp of the left-point sums R. With S = T max |r|, G the compounded
    weights and a = theta u dt, the two differ by at most `rounding`'s
    B = 16 (m + 1)(1 + S) eps (|x| G_0 + sum G |a|). Paths that all round to
    x_T hide a spread below half its ulp, itself below B, so m_k's bound is
    the Gaussian moment of variance B^2: (k - 1)!! B^k, or 0 for odd k.
    """
    _check_order(n)
    if paths < 1000:
        raise TooFewPaths(f"paths = {paths} < 1000")
    X, G, a = _terminal_wealth(scenario, strategy, t, x, paths, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        # the mean of equal values still rounds, and the residue would give a
        # deterministic wealth a tiny nonzero se; equal paths are their mean
        m1 = float(X[0]) if np.all(X == X[0]) else float(np.mean(X))
        d = np.subtract(X, m1, out=X)  # X is not read again
        p = d * d
        mu = [1.0, 0.0, float(np.mean(p))]  # mu[k]: k-th sample central moment
        for _ in range(3, 2 * n + 1):
            mu.append(float(np.mean(np.multiply(p, d, out=p))))
        # products, not **: an overflow becomes inf and is refused below
        var = [mu[2]] + [mu[2 * k] - mu[k] * mu[k] - 2 * k * mu[k - 1] * mu[k + 1]
                         + k * k * mu[k - 1] * mu[k - 1] * mu[2] for k in range(2, n + 1)]
        se = np.sqrt(np.array(var) / paths)
    if not np.isfinite(se).all():  # m1 and every mu_k feed some variance
        raise ValidationError("Monte Carlo moment estimates overflow under this strategy")
    central = tuple(mu[2:n + 1])
    cumulant = tuple(moments_to_cumulants(central))
    with np.errstate(over="ignore", invalid="ignore"):
        S = scenario.T * float(np.max(np.abs(scenario.r)))
        B = 16 * 2.0 ** -52 * (len(G) + 1) * (1.0 + S) * (
            abs(x) * float(G[0] if len(G) else 1.0) + float(np.sum(G * np.abs(a))))
        rounding = (B,) + tuple(_DOUBLE_FACTORIAL[k] * float(np.float_power(B, k))
                                if k % 2 == 0 else 0.0 for k in range(2, n + 1))
    return McEstimate(MomentVector(m1, central, cumulant), tuple(map(float, se)), rounding)
