"""Market/objective data model, validation, and moment-cumulant algebra.

The scenario lives on a uniform time grid with piecewise-constant parameters
and strategies: every integral the package needs is then a finite left-endpoint
sum, exact for the discrete dynamics, so equilibrium residuals measure algebra
rather than quadrature noise.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyRiskTerm,
    GridMismatch,
    NonAffineMeanTerm,
    OffGridTime,
    SigmaTooSmall,
    UnsupportedOrder,
    ValidationError,
)
from .sampling import _check_int

MAX_ORDER = 8
SIGMA_MIN = 1e-8  # volatility floor of validate_scenario
GRID_TOL = 1e-9   # relative tolerance of a time or a step on a uniform grid
MAX_GRID_N = 10 ** 6
"""Largest grid_n of a uniform grid. Peak RSS grows by about 1 KB per grid
point (at grid_n 400000: 440 MB for ``moments`` on mvsk, 267 MB for
``solve`` on raw_m4, 145 MB for ``verify`` on mvsk), so the bound keeps
every command near 1 GB, as :data:`eqmo.sampling.MAX_CELLS` does for the
regression route."""

# (k-1)!! for even k: the Gaussian central moment of order k is (k-1)!! V^{k/2}
_DOUBLE_FACTORIAL = {2: 1.0, 4: 3.0, 6: 15.0, 8: 105.0}


def _check_grid(T: float, grid_n) -> int:
    """grid_n as an int, for the uniform grid of grid_n steps on [0, T]: T
    positive and finite and grid_n an integer in [1, MAX_GRID_N]; anything
    else is a ValidationError, raised before anything is allocated."""
    if T <= 0.0 or not math.isfinite(T):
        raise ValidationError(f"T must be positive and finite, got {T}")
    grid_n = _check_int("grid_n", grid_n)
    if grid_n < 1:
        raise ValidationError(f"grid_n must be >= 1, got {grid_n}")
    if grid_n > MAX_GRID_N:
        raise ValidationError(f"grid_n must be <= {MAX_GRID_N} (model.MAX_GRID_N), "
                              f"got {grid_n}")
    return grid_n


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Polynomial


@dataclass(frozen=True)
class Polynomial:
    """Dense real polynomial; ``coeffs[i]`` multiplies x**i.

    Canonical form: trailing zero coefficients are stripped on construction,
    so the trailing coefficient is nonzero unless the polynomial is zero
    (empty tuple).
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        c = tuple(map(float, self.coeffs))
        if not all(map(math.isfinite, c)):
            raise ValidationError("polynomial coefficients must be finite")
        while c and c[-1] == 0.0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, power: int) -> float:
        """Coefficient of x**power, 0.0 beyond the stored degree."""
        return self.coeffs[power] if 0 <= power < len(self.coeffs) else 0.0

    def __call__(self, x):
        if type(x) is float:
            # the array path's Horner arithmetic, without numpy scalars
            total = 0.0
            for c in reversed(self.coeffs):
                total = total * x + c
            return total
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if isinstance(x, np.ndarray) else float(acc)

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)) by Horner over polynomial arithmetic."""
        acc = Polynomial(())
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial((c,))
        return acc


# ---------------------------------------------------------------------------
# MarketScenario


@dataclass(frozen=True)
class MarketScenario:
    """Single-asset market primitives on a uniform grid of ``grid_n`` steps.

    ``r``, ``theta``, ``sigma`` hold grid_n + 1 samples; the value at index i
    applies on [t_i, t_{i+1}) (left-constant interpolation). Units: r and
    theta per year, sigma per sqrt-year, T in years.
    """

    r: np.ndarray
    theta: np.ndarray
    sigma: np.ndarray
    T: float
    x0: float
    grid_n: int

    def __post_init__(self) -> None:
        _check_grid(self.T, self.grid_n)
        if not math.isfinite(self.x0):
            raise ValidationError("x0 must be finite")
        for name in ("r", "theta", "sigma"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 0:
                arr = np.full(self.grid_n + 1, float(arr))
            if arr.shape != (self.grid_n + 1,):
                raise GridMismatch(
                    f"{name} has shape {arr.shape}, expected ({self.grid_n + 1},)"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, _readonly(arr))

    @property
    def dt(self) -> float:
        return self.T / self.grid_n

    @functools.cached_property
    def times(self) -> np.ndarray:
        """The grid t_0 = 0, ..., t_grid_n = T; built once, read-only."""
        return _readonly(np.linspace(0.0, self.T, self.grid_n + 1))

    @functools.cached_property
    def growth(self) -> np.ndarray:
        """e^R at every grid index from :func:`growth_factors`, built once and
        read-only; an overflow at any index refuses every reader, suffix or not."""
        return _readonly(growth_factors(rate_to_horizon(self)))

    def grid_index(self, t: float) -> int:
        """Index of the grid point equal to ``t`` (within ``GRID_TOL * max(1,T)``);
        any other t, a non-finite one included, is an OffGridTime."""
        steps = t / self.dt
        idx = int(round(steps)) if math.isfinite(steps) else -1
        if idx < 0 or idx > self.grid_n or abs(idx * self.dt - t) > GRID_TOL * max(1.0, self.T):
            raise OffGridTime(f"t={t} is not a grid point of step {self.dt}")
        return idx


def _sum_to_horizon(increments: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Right-to-left partial sums: out[i] = out[i + 1] + increments[i] with
    out[n] = start, for n = len(increments).

    A cumsum over the reversed increments behind a leading ``start``; numpy's
    cumsum adds sequentially, so every sum is associated exactly as the
    backward loop ``out[i] = out[i + 1] + increments[i]`` would associate it,
    signed zeros included. Summing a suffix's increments onto the whole sum
    at the suffix's start therefore gives the whole-array values bitwise.
    """
    out = np.empty(len(increments) + 1)
    rev = out[::-1]
    rev[0] = start
    rev[1:] = increments[::-1]
    np.cumsum(rev, out=rev)
    return out


def rate_to_horizon(scenario: MarketScenario) -> np.ndarray:
    """R(t_i) = integral of r over [t_i, T] under left-constant interpolation.

    Accumulated right-to-left (:func:`_sum_to_horizon`) so every downstream
    module shares one float association order; R[grid_n] = 0.
    """
    return _readonly(_sum_to_horizon(scenario.r[:scenario.grid_n] * scenario.dt))


def growth_factors(R: np.ndarray) -> np.ndarray:
    """e^R elementwise through libm's ``math.exp``: the one growth-factor array.

    Every array of e^{R_i} (and of e^{-R_i}, from ``growth_factors(-R)``) in
    eqmo comes from here; ``MomentGrid.at`` takes its single e^{R_i} from
    ``math.exp`` directly. So the moment engine, the sweep, Phi and the
    closed forms share their growth factors bit for bit. ``np.exp`` differs
    from ``math.exp`` in the last bit on a few percent of inputs. A factor
    past the float range is a ValidationError.
    """
    try:
        return np.fromiter(map(math.exp, R.tolist()), float, len(R))
    except OverflowError:
        raise ValidationError(f"growth factor exp({np.max(R):.6g}) of R overflows") from None


# ---------------------------------------------------------------------------
# ObjectiveSpec


@dataclass(frozen=True)
class ObjectiveTerm:
    """One sparse monomial: coeff * prod over (k, e) of q_k**e.

    Index k = 1 denotes the conditional mean m1; k >= 2 denotes the k-th
    central moment or cumulant depending on the objective mode. Factors are
    sorted by k with duplicate indices merged.
    """

    factors: tuple[tuple[int, int], ...]
    coeff: float

    def __post_init__(self) -> None:
        merged: dict[int, int] = {}
        for k, e in self.factors:
            k, e = _check_int("moment index", k), _check_int("exponent", e)
            if k < 1 or k > MAX_ORDER:
                raise UnsupportedOrder(f"moment index {k} outside [1, {MAX_ORDER}]")
            if e < 1:
                raise ValidationError(f"exponent must be >= 1, got {e} for index {k}")
            merged[k] = merged.get(k, 0) + e
        object.__setattr__(self, "factors", tuple(sorted(merged.items())))
        if not math.isfinite(self.coeff):
            raise ValidationError("term coefficient must be finite")
        object.__setattr__(self, "coeff", float(self.coeff))

    def degree_in_mean(self) -> int:
        return sum(e for k, e in self.factors if k == 1)

    def max_index(self) -> int:
        return max((k for k, _ in self.factors), default=2)


MODES = ("central", "cumulant")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Sparse polynomial objective over (m1, q2..qn).

    ``mode`` selects whether q_k means the k-th central moment ("central") or
    the k-th cumulant ("cumulant"). Zero-coefficient terms are dropped.
    ``max_order`` is derived: the highest index among the remaining terms,
    and at least 2.
    """

    mode: str
    terms: tuple[ObjectiveTerm, ...]
    max_order: int = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        terms = tuple(t for t in self.terms if t.coeff != 0.0)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "max_order", max([t.max_index() for t in terms] + [2]))

    @classmethod
    def from_weights(cls, mode: str, weights: dict[int, float]) -> "ObjectiveSpec":
        """Objective sum_k weights[k] * q_k (k = 1 denotes m1)."""
        terms = tuple(ObjectiveTerm(((k, 1),), w) for k, w in sorted(weights.items()))
        return cls(mode, terms)

    def mean_weight(self) -> float:
        """Total coefficient of the pure m1 term."""
        return sum(t.coeff for t in self.terms if t.factors == ((1, 1),))

    def pure_weight(self, k: int) -> float:
        """Total coefficient of the single-factor term q_k**1."""
        return sum(t.coeff for t in self.terms if t.factors == ((k, 1),))

    def risk_terms(self) -> tuple[ObjectiveTerm, ...]:
        """Terms not involving the conditional mean."""
        return tuple(t for t in self.terms if t.degree_in_mean() == 0)


def gaussian_risk_polynomial(objective: ObjectiveSpec) -> Polynomial:
    """Risk part of the objective as a polynomial G(V) in the variance.

    Restricts the mean-free terms to the Gaussian family: central moments
    become (k-1)!! V^{k/2} for even k and 0 for odd k; cumulants become V for
    k = 2 and 0 for k >= 3. The derivative G'(V) is the second-order
    sensitivity driving every stationarity equation in this package.
    """
    by_power: dict[int, float] = {}
    for term in objective.terms:
        if term.degree_in_mean() > 0:
            continue
        c = term.coeff
        power = 0
        for k, e in term.factors:
            if objective.mode == "central":
                if k % 2 == 1:
                    c = 0.0
                    break
                c *= _DOUBLE_FACTORIAL[k] ** e
                power += (k // 2) * e
            else:
                if k >= 3:
                    c = 0.0
                    break
                power += e
        if c != 0.0:
            by_power[power] = by_power.get(power, 0.0) + c
    top = max(by_power, default=-1)
    return Polynomial(tuple(by_power.get(p, 0.0) for p in range(top + 1)))


# ---------------------------------------------------------------------------
# StrategyGrid


@dataclass(frozen=True)
class StrategyGrid:
    """Piecewise-constant open-loop control on a scenario's grid: values[i]
    applies on [t_i, t_{i+1}). The grid is the scenario's, so only the values
    are kept: one finite row of at least two."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise GridMismatch(f"strategy values need one row of at least two points, "
                               f"got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("strategy values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def constant(cls, scenario: MarketScenario, value: float) -> "StrategyGrid":
        return cls(np.full(scenario.grid_n + 1, float(value)))

    def check_grid(self, scenario: MarketScenario) -> None:
        if self.values.size != scenario.grid_n + 1:
            raise GridMismatch(
                f"strategy length {self.values.size} != grid length {scenario.grid_n + 1}"
            )

    def scaled(self, factor: float) -> "StrategyGrid":
        return StrategyGrid(self.values * float(factor))


# ---------------------------------------------------------------------------
# validation


def validate_scenario(scenario: MarketScenario, objective: ObjectiveSpec) -> None:
    """Check the pair's semantic invariants; raise the first violation found.

    Structural invariants (lengths, finiteness, ranges) are enforced at
    construction; this gate adds the solver preconditions: a volatility floor,
    an objective affine in the conditional mean with no mean-risk products,
    and a nondegenerate second-order risk term.
    """
    if np.min(scenario.sigma) < SIGMA_MIN:
        i = int(np.argmin(scenario.sigma))
        raise SigmaTooSmall(
            f"sigma[{i}] = {scenario.sigma[i]} below floor {SIGMA_MIN}"
        )
    for term in objective.terms:
        d = term.degree_in_mean()
        if d > 1:
            raise NonAffineMeanTerm(
                f"term {term.factors} has mean degree {d}; objectives must be "
                "affine in the conditional mean"
            )
        if d == 1 and len(term.factors) > 1:
            raise NonAffineMeanTerm(
                f"term {term.factors} multiplies the conditional mean by risk "
                "factors; the stationarity condition would become state-dependent"
            )
    if not any(k == 2 for t in objective.risk_terms() for k, _ in t.factors):
        raise EmptyRiskTerm("objective has no k = 2 term with nonzero coefficient")


# ---------------------------------------------------------------------------
# central moments -> cumulants (orders 2..8)


def _check_order(n: int) -> None:
    """A moment order outside [2, MAX_ORDER] is UnsupportedOrder."""
    if n < 2 or n > MAX_ORDER:
        raise UnsupportedOrder(f"order {n} outside [2, {MAX_ORDER}]")


def moments_to_cumulants(central) -> list[float]:
    """Map central moments [m2..mn] to cumulants [k2..kn], n <= 8; a cumulant
    past the float range is a ValidationError."""
    m = [float(v) for v in central]
    _check_order(len(m) + 1)
    m2, m3, m4, m5, m6, m7, m8 = (m + [0.0] * 7)[:7]
    s2, s3 = m2 * m2, m3 * m3  # products, not **: an overflow becomes inf
    k = [
        m2, m3,
        m4 - 3.0 * s2,
        m5 - 10.0 * m3 * m2,
        m6 - 15.0 * m4 * m2 - 10.0 * s3 + 30.0 * s2 * m2,
        m7 - 21.0 * m5 * m2 - 35.0 * m4 * m3 + 210.0 * m3 * s2,
        m8 - 28.0 * m6 * m2 - 56.0 * m5 * m3 - 35.0 * m4 * m4
        + 420.0 * m4 * s2 + 560.0 * s3 * m2 - 630.0 * s2 * s2,
    ][: len(m)]
    if not all(math.isfinite(v) for v in k):
        raise ValidationError("cumulants of these central moments overflow")
    return k

