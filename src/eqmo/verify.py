"""Independent checks of candidate equilibrium strategies, and every verdict.

Two routes that must agree: the assembled gain quadratic Phi(t, v), scanned
in closed form over times and deviations, and literal finite-window
perturbations whose objective difference quotients reproduce Phi exactly for
affine risk parts (piecewise-constant integrals have no quadrature error).

:mod:`eqmo.equilibrium` owns Phi and its scan; this module owns every
decision drawn from them. One :class:`EquilibriumReport` answers both
questions: is a swept strategy an equilibrium (:func:`equilibrium_report`),
and does the objective's own mean-variance strategy stay one for the full
objective (:func:`homogeneity_check_numeric`, with its algebraic
counterpart :func:`homogeneity_predicate`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EpsNotOnGrid, OutOfRange, ValidationError
from .equilibrium import default_v_grid, mv_closed_form, mv_gamma2, scan_phi_max
from .model import (
    GRID_TOL,
    MarketScenario,
    ObjectiveSpec,
    StrategyGrid,
    _sum_to_horizon,
    gaussian_risk_polynomial,
)
from .moments import MomentGrid, _increments, _moments_from, objective_value

DEFAULT_TOLERANCE = 1e-8  # largest max Phi a passing strategy may show


@dataclass(frozen=True)
class EquilibriumReport:
    """Sign report for Phi over the whole grid.

    The check passes iff max_phi <= tolerance; witness is the maximizing
    (t, v, Phi) triple when it fails, None when it passes. per_t_max[i] is
    the max of Phi(times[i], v): its vertex, the supremum over all v, where
    the second-order coefficient is negative, else the better end of the
    range.
    """

    max_phi: float
    witness: tuple[float, float, float] | None
    per_t_max: np.ndarray
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_phi <= self.tolerance


def equilibrium_report(scenario: MarketScenario, objective: ObjectiveSpec,
                       strategy: StrategyGrid,
                       tolerance: float = DEFAULT_TOLERANCE) -> EquilibriumReport:
    """Max Phi(t, v) over all grid times and the default deviation range;
    pass iff max Phi <= tolerance. v = 0 lies in the range, so max Phi >= 0:
    a negative tolerance would fail every strategy, and it, a nan or an
    infinite one is a ValidationError."""
    if not 0.0 <= tolerance < math.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tolerance}")
    max_phi, witness, per_t_max = scan_phi_max(scenario, objective, strategy,
                                               default_v_grid(strategy))
    passed = max_phi <= tolerance
    return EquilibriumReport(max_phi, None if passed else witness, per_t_max, tolerance)


def homogeneity_check_numeric(scenario: MarketScenario, objective: ObjectiveSpec,
                              tolerance: float = DEFAULT_TOLERANCE) -> EquilibriumReport:
    """Install the objective's own mean-variance strategy and report whether
    the full objective keeps Phi <= tolerance everywhere."""
    strategy = mv_closed_form(scenario, mv_gamma2(objective))
    return equilibrium_report(scenario, objective, strategy, tolerance)


def homogeneity_predicate(objective: ObjectiveSpec) -> bool:
    """Algebraic form of the numeric check: the mean-variance strategy stays an
    equilibrium for the full objective iff the Gaussian-restricted risk part
    G(V) is affine, G(V) = G(0) + w2 V (no V^j terms, j >= 2).

    Then D(t) = w2 for every variance level: installing the MV strategy zeroes
    the linear Phi coefficient at all times and w2 < 0 keeps the quadratic
    coefficient negative. Any curvature G''(V) != 0 leaves a linear term
    2 (G'(V) - w2) e^{2R} sigma^2 u v that changes sign, so some deviation
    gains to first order on every market with a nonzero risk premium.
    """
    mv_gamma2(objective)  # class gate: w1 > 0, w2 < 0
    G = gaussian_risk_polynomial(objective)
    return all(G.coeff(j) == 0.0 for j in range(2, G.degree + 1))


def finite_eps_check(scenario: MarketScenario, objective: ObjectiveSpec,
                     strategy: StrategyGrid, t: float, v: float,
                     eps_list) -> list[float]:
    """Difference-quotient oracle for Phi.

    For each eps = k dt, literally add v to the strategy on [t, t + eps) and
    return (J_perturbed - J_base) / (k dt), with J evaluated through the exact
    conditional moments at (t, x0). For a risk part affine in the variance the
    smallest-eps slope equals Phi(t, v) to float round-off. Curvature in the
    risk part adds a term that is O(eps) along eps = k dt as dt -> 0: at a
    fixed dt the gap is affine in eps with an O(dt) intercept, so at eps = dt
    it halves with each halving of dt.

    Cost: one moments-to-go accumulation over the suffix [t, T] on the
    scenario's cached growth factors, then k steps per window, so
    O(grid_n - i0 + sum of k) in place of two whole-grid accumulations per
    window. The result is bitwise the literal perturbation: the perturbed
    and base strategies share every increment from t + eps on, and the
    moments are right-to-left sums, so the perturbed sums at t are the base
    sums at t + eps plus the window's k perturbed increments, added in the
    same order (:func:`eqmo.model._sum_to_horizon`) with the same
    per-step arithmetic (``eqmo.moments._increments``).
    """
    strategy.check_grid(scenario)
    i0 = scenario.grid_index(t)
    dt = scenario.dt
    n = objective.max_order
    widths: list[int] = []
    for eps in eps_list:
        steps = eps / dt
        k = int(round(steps)) if math.isfinite(steps) else 0
        if k < 1 or abs(k * dt - eps) > GRID_TOL * max(1.0, scenario.T):
            raise EpsNotOnGrid(f"eps = {eps} is not a positive multiple of dt = {dt}")
        if i0 + k > scenario.grid_n:
            raise OutOfRange(f"t + eps = {t + eps} beyond horizon T = {scenario.T}")
        widths.append(k)
    u = strategy.values
    R, g, M, V = _moments_from(scenario, u, i0)
    base = objective_value(objective, MomentGrid(R, M, V).at(0, scenario.x0, n))
    if widths and not math.isfinite(v):
        raise ValidationError("strategy values must be finite")
    slopes = []
    for k in widths:
        with np.errstate(over="ignore", invalid="ignore"):  # .at() refuses non-finite
            dM, dV = _increments(scenario, g[:k], u[i0:i0 + k] + v, i0)
            window = MomentGrid(R[:k + 1], _sum_to_horizon(dM, M[k]),
                                _sum_to_horizon(dV, V[k]))
        J = objective_value(objective, window.at(0, scenario.x0, n))
        slopes.append((J - base) / (k * dt))
    return slopes
