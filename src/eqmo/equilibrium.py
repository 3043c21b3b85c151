"""Spike-variation equilibrium machinery for higher-moment objectives.

Perturbing a strategy by v on a vanishing window [t, t+eps) shifts the
conditional mean of X_T by eps e^{R(t)} theta(t) v and its variance by
eps e^{2R(t)} sigma(t)^2 (2 u(t) v + v^2), while the conditional law stays
Gaussian. The first-order objective gain rate is therefore the quadratic

    Phi(t, v) = w1 e^R theta v + D(t) e^{2R} sigma^2 (2 u v + v^2),

with w1 the mean weight and D(t) = G'(V(t)), where G(V) is the objective's
risk part restricted to the Gaussian family. An equilibrium is a strategy
with Phi(t, v) <= 0 everywhere, which at interior optimum means the linear
coefficient vanishes (the per-step stationarity equation solved backward
here) and D <= 0.

This module owns the Phi coefficients (one private formula, shared by
:func:`phi_profile` and the sweep's residuals), Phi's maximum at each time
(the vertex on concave rows, else the better end of the deviation range),
the backward sweep and the mean-variance reference strategy. Every
pass/fail decision drawn from that maximum lives in :mod:`eqmo.verify`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousRoot,
    EmptyVGrid,
    NoRealRoot,
    NoSecondOrderTerm,
    SolverError,
    UnsupportedObjectiveClass,
    ValidationError,
)
from .model import (
    MarketScenario,
    ObjectiveSpec,
    Polynomial,
    StrategyGrid,
    gaussian_risk_polynomial,
    growth_factors,
    rate_to_horizon,
    validate_scenario,
)
from .moments import moments_to_go
from .roots import real_roots

SCHEMES = ("explicit", "implicit")

PERTURBATION_CONVENTION = "additive-spike"
"""Deviations are added to the candidate control on the spike window."""


@dataclass(frozen=True)
class SweepResult:
    """Backward-sweep output: candidate strategy plus per-step diagnostics."""

    strategy: StrategyGrid
    variance_to_go: np.ndarray
    D: np.ndarray
    residuals: np.ndarray


def _phi_coefficients(w1: float, D: np.ndarray, g: np.ndarray,
                      scenario: MarketScenario, u: np.ndarray):
    """Arrays (a, b) with Phi(t_i, v) = a_i v + b_i v^2 from D = G'(V), g = e^R
    and the controls u on the grid; an overflow is a ValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = D * g * g * scenario.sigma ** 2
        a = w1 * g * scenario.theta + 2.0 * b * u
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("Phi coefficients overflow under this strategy")
    return a, b


def phi_profile(scenario: MarketScenario, objective: ObjectiveSpec,
                strategy: StrategyGrid):
    """Arrays (a, b) with Phi(t_i, v) = a_i v + b_i v^2 for every grid index."""
    Dpoly = gaussian_risk_polynomial(objective).derivative()
    _, V = moments_to_go(scenario, strategy)
    return _phi_coefficients(objective.mean_weight(), Dpoly(V), scenario.growth,
                             scenario, strategy.values)


# ---------------------------------------------------------------------------
# backward sweep


def mv_gamma2(objective: ObjectiveSpec) -> float:
    """Risk aversion gamma2 = -w2 / w1 of the objective's own mean-variance
    reference J = m1 - gamma2 m2; needs w1 > 0 and w2 < 0."""
    w1 = objective.mean_weight()
    w2 = objective.pure_weight(2)
    if w1 <= 0.0 or w2 >= 0.0:
        raise UnsupportedObjectiveClass(
            f"need mean weight > 0 and second-order weight < 0 to form the "
            f"reference mean-variance strategy, got w1 = {w1}, w2 = {w2}"
        )
    return -w2 / w1


def mv_closed_form(scenario: MarketScenario, gamma2: float) -> StrategyGrid:
    """Equilibrium of J = m1 - gamma2 m2: u(t) = theta e^{-R} / (2 gamma2 sigma^2);
    a denominator or strategy past the float range is a ValidationError."""
    if gamma2 <= 0.0 or not math.isfinite(gamma2):
        raise ValidationError(f"gamma2 must be positive, got {gamma2}")
    growth = growth_factors(-rate_to_horizon(scenario))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        risk = 2.0 * gamma2 * scenario.sigma ** 2
        values = scenario.theta * growth / risk
    if not (np.isfinite(risk).all() and np.isfinite(values).all()):
        raise ValidationError("mean-variance strategy theta e^{-R} / (2 gamma2 sigma^2) "
                              "leaves the float range")
    return StrategyGrid(values)


def _compose_linear(outer: tuple[float, ...], a0: float, a1: float) -> list[float]:
    """Coefficients of outer(a0 + a1 w) as plain floats, by the Horner
    recurrence acc <- acc (a0 + a1 w) + c with trailing zeros stripped.

    Each coefficient is summed from 0.0, as a schoolbook polynomial product
    sums its terms, so a zero comes out as +0.0 and every coefficient is
    bitwise that of composing by Horner over polynomial products.
    """
    acc: list[float] = []
    for c in reversed(outer):
        prev = 0.0  # old acc[k - 1], which the a1 w term shifts up to k
        for k, x in enumerate(acc):
            acc[k], prev = 0.0 + a0 * x + a1 * prev, x
        acc.append(0.0 + a1 * prev)
        acc[0] += c
        while acc and acc[-1] == 0.0:
            acc.pop()
    return acc


def _stationary_root(w1: float, Dpoly: Polynomial, V_plus: float, theta: float,
                     s: float, g: float, dt: float, prev_value: float,
                     scheme: str, terminal: bool) -> float:
    """Stationarity root at one grid point given the future variance-to-go,
    with s = e^{2R} sigma^2 and g = e^R at the point.

    Explicit and terminal steps solve the linear equation with D frozen at
    D(V_plus); a zero second-order term 2 D e^{2R} sigma^2 (D = 0, or e^R
    underflowing to 0) raises :class:`NoSecondOrderTerm`, and D > 0 (the
    root is a minimizer) raises :class:`AmbiguousRoot` with the root as
    candidate.

    Implicit steps solve w1 g theta + 2 s u D(V_plus + dt s u^2) = 0, whose
    coefficients in u come from :func:`_compose_linear` at the odd powers,
    with one :func:`real_roots` call for the root nearest ``prev_value`` (u
    at the next grid point, within O(dt) of the answer): a Newton root r
    alone when its Taylor certificate shows that no other root, touch root
    or merged pair of the full isolation is nearer, else every root. A lone
    root on the maximizer branch (D(V_plus + dt s r^2) <= 0) is the step's
    root; a lone root off it sends the step to isolate every root. The step
    takes the admissible root nearest ``prev_value``, so errors and their
    candidates are those of the full isolation. Degree 1 (variance-affine
    objectives) is the closed form -c0 / c1.
    """
    if theta == 0.0:
        return 0.0  # stationarity degenerates to 2 D e^{2R} sigma^2 u = 0
    if scheme == "explicit" or terminal:
        D = Dpoly(V_plus)
        denominator = 2.0 * D * s
        if denominator == 0.0:
            raise NoSecondOrderTerm(f"2 D e^(2R) sigma^2 = 0 with D = {D} and "
                                    f"e^(2R) sigma^2 = {s} at variance-to-go {V_plus}")
        u = -w1 * g * theta / denominator
        if D > 0.0:
            raise AmbiguousRoot(f"stationary point {u} is a minimizer: D = {D} > 0 "
                                f"at variance-to-go {V_plus}", candidates=(u,))
        return u
    # implicit: the coefficient of w^j in D(V_plus + a1 w), w = u^2, times 2 s
    # is that of u^(2j+1) (Polynomial strips the trailing even 0.0); a zero D
    # leaves the constant w1 g theta, which the degree check refuses
    a1 = dt * s
    two_s = 2.0 * s
    coeffs = [w1 * g * theta]
    for c in _compose_linear(Dpoly.coeffs, V_plus, a1):
        coeffs += (0.0 + two_s * c, 0.0)
    poly = Polynomial(coeffs)
    c = poly.coeffs
    if len(c) < 2:
        raise NoSecondOrderTerm("stationarity polynomial degenerates to a constant")
    bound = 1.0 + max(map(abs, c[:-1])) / abs(c[-1])  # Cauchy bound
    candidates = real_roots(poly, -bound, bound, near=prev_value)
    if len(candidates) == 1:
        u = candidates[0]
        if Dpoly(V_plus + a1 * u * u) <= 0.0:
            return u
        candidates = real_roots(poly, -bound, bound)
    if not candidates:
        raise NoRealRoot("stationarity polynomial has no real root")
    admissible = [u for u in candidates if Dpoly(V_plus + a1 * u * u) <= 0.0]
    if not admissible:
        raise AmbiguousRoot(
            f"no stationarity root on the maximizer branch (D <= 0); "
            f"candidates: {candidates}",
            candidates=tuple(candidates),
        )
    return min(admissible, key=lambda u: abs(u - prev_value))


def backward_sweep(scenario: MarketScenario, objective: ObjectiveSpec,
                   scheme: str) -> SweepResult:
    """Solve the stationarity condition backward from T on the whole grid.

    V(T) = 0; at each earlier step the control solves the (linear or
    polynomial) stationarity equation given the variance-to-go of the future
    steps, then its own variance contribution is committed. Residuals report
    |dPhi/dv at 0| re-evaluated at the committed state.

    A :class:`SolverError` of step i leaves with ``step = i`` and the step
    and time before its message; an overflowing e^{2R} sigma^2 or V[i]
    raises one the same way.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    validate_scenario(scenario, objective)
    Dpoly = gaussian_risk_polynomial(objective).derivative()
    w1 = objective.mean_weight()
    n = scenario.grid_n
    dt = scenario.dt
    theta = scenario.theta.tolist()
    sigma = scenario.sigma.tolist()
    g = scenario.growth.tolist()
    u = [0.0] * (n + 1)
    V = [0.0] * (n + 1)
    i = n
    try:
        # the terminal step reads s = e^{2R} sigma^2 only where theta != 0
        s = g[n] * g[n] * sigma[n] ** 2 if theta[n] != 0.0 else 0.0
        u[n] = _stationary_root(w1, Dpoly, 0.0, theta[n], s, g[n], dt, 0.0,
                                scheme, True)
        u_i, V_i = u[n], 0.0  # at i + 1 as each step starts
        for i in range(n - 1, -1, -1):
            g_i = g[i]
            s = g_i * g_i * sigma[i] ** 2
            u[i] = u_i = _stationary_root(w1, Dpoly, V_i, theta[i], s, g_i, dt, u_i,
                                          scheme, False)
            V[i] = V_i = V_i + s * u_i ** 2 * dt
    except OverflowError:  # a float ** int raises where numpy would give inf
        what = "e^(2R) sigma^2" if math.isinf(sigma[i] * sigma[i]) else "variance-to-go"
        raise SolverError(f"step {i} (t = {i * dt:.6g}): {what} overflows",
                          step=i) from None
    except SolverError as e:
        e.step = i
        e.args = (f"step {i} (t = {i * dt:.6g}): {e}",)
        raise
    u_arr = np.array(u)
    V_arr = np.array(V)
    D = Dpoly(V_arr)
    a, _ = _phi_coefficients(w1, D, scenario.growth, scenario, u_arr)
    return SweepResult(StrategyGrid(u_arr), V_arr, D, np.abs(a))


# ---------------------------------------------------------------------------
# Phi scan


def default_v_grid(strategy: StrategyGrid) -> np.ndarray:
    """The deviation range the scan reads, [-r, r] with r = 10 max |u|
    (10 when u = 0). 0 lies inside it, so max Phi >= Phi(0) = 0: a concave
    row's vertex and a convex row's larger end are both >= Phi(0)."""
    r = 10.0 * float(np.max(np.abs(strategy.values))) or 10.0
    return np.array([-r, r])


def scan_phi_max(scenario: MarketScenario, objective: ObjectiveSpec,
                 strategy: StrategyGrid, v_grid: np.ndarray):
    """Max of Phi(t_i, v) = a_i v + b_i v^2 at each grid time over the range
    [min v_grid, max v_grid] in O(grid_n), as (max_phi, witness, per_t_max):
    the vertex (the supremum over all v) where b < 0, else the better end of
    the range, the low one on a tie. A non-finite v, a maximum past the float
    range or a nan end where b >= 0 is a ValidationError."""
    v_grid = np.asarray(v_grid, dtype=float)
    if v_grid.size == 0:
        raise EmptyVGrid("deviation grid is empty")
    if not np.isfinite(v_grid).all():
        raise ValidationError("deviation grid must be finite")
    lo, hi = float(v_grid.min()), float(v_grid.max())
    a, b = phi_profile(scenario, objective, strategy)
    concave = b < 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi_lo = a * lo + b * (lo * lo)
        phi_hi = a * hi + b * (hi * hi)
        at_hi = phi_hi > phi_lo
        per_t_max = np.where(concave, -(a * a) / (4.0 * b), np.where(at_hi, phi_hi, phi_lo))
        per_t_arg = np.where(concave, -a / (2.0 * b), np.where(at_hi, hi, lo))
    if not np.isfinite(per_t_max).all() or np.isnan(phi_hi[~concave]).any():
        raise ValidationError("Phi overflows on the deviation grid under this strategy")
    i = int(np.argmax(per_t_max))
    witness = (float(scenario.times[i]), float(per_t_arg[i]), float(per_t_max[i]))
    return float(per_t_max[i]), witness, per_t_max
