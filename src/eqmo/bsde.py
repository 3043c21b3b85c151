"""Least-squares Monte Carlo solver for (flows of) backward SDEs.

Backward scheme on simulated state paths: Y_N = xi pathwise; at each earlier
step the continuation C_i = E[Y_{i+1} | state_i] is fitted by polynomial
regression, Z_i is fitted from martingale-increment projections, and
Y_i = C_i + f(t_i, state_i, C_i, Z_i) dt. The Z target is centered,
regressing (Y_{i+1} - C_i) dW_i / dt, which leaves the conditional expectation
unchanged (E[C_i dW_i | state_i] = 0) and removes most of the sampling
variance of the plain Y_{i+1} dW_i / dt estimator. Both fits are taken in
coefficient space (the regression scheme of Gobet, Lemor & Warin, Ann. Appl.
Probab. 2005, with the algebra rearranged): the Gram matrices of the basis B
come from power sums of the state, c_C = Y_{i+1} B' G^-1, and the centered
target's coefficients are (Y_{i+1} (B dW_i)' - c_C Gw) / dt G^-1 with
Gw = B diag(dW_i) B', so the target is never formed and C_i and Z_i are each
written once, into reusable buffers. A driver quadratic in z clips Z to its
``DriverSpec.z_bound``; over 1 % of Z values at the bound warns once.

One backward loop over dates, ``_solve_one``, serves every route. It
carries a block of member rows: row k starts as the terminal of its spec and
is live at dates i >= k, so a single BSDE is one row and a flow (one BSDE
per start index s on [s, T] over a shared path set, whose diagonal samples
member s at time s) is n + 1 rows. Each date builds one regression operator
on its state row, fits the live rows in place with their Z into one buffer,
drives each live member on its own rows and the (Y, Z) rows of its
dependency grids at that date, and hands the block to a visitor. All
members at a date project onto the same state row, so a flow costs O(n)
dates, not O(n^2) rows; a flow of identical members is one row whose value
at date s is member s.

The loop holds its block and the Z buffer; the visitor decides what else
is kept. ``solve_bsde`` fills full (n + 1) x paths grids, so with the state
and dW it holds 4 float64 per path-date, as an s-dependent flow does with
its n + 1 rows and n-row Z buffer. ``solve_bsde_means`` keeps per-date path
means (2 per path-date: the state and dW), which is all the ``bsde`` command
holds with or without a factor: ``mv_flow_residual`` needs only the path means
of an identical-member flow's diagonal, so it never forms the flow. The
identical-member flow keeps Y (3); ``convergence_study`` keeps its two
squared-error buffers. A recurrent system is its members' ``solve_bsde``
calls in order, each fed the earlier members' grids, so m members hold
2 + 2m float64 per path-date.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CyclicDependency,
    RegressionSingular,
    TooFewPaths,
    ValidationError,
    ZTruncationSaturated,
)
from .model import MarketScenario, StrategyGrid, _check_grid, growth_factors, rate_to_horizon
from .moments import _wealth_step_coeffs
from .sampling import SEED_LIMIT, _check_int, time_major_normals

# cubic for every fit: each exact Y fitted here (E_t[X_T] affine, W_t^2 + 1 - t) is in its span
BASIS_DEGREE = 3


@dataclass(frozen=True)
class FactorModel:
    """Scalar OU risk-premium factor."""

    kappa: float = 0.0
    theta_bar: float = 0.0
    eta: float = 0.0
    theta0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kappa", "theta_bar", "eta", "theta0"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta < 0.0:
            raise ValidationError(f"eta must be nonnegative, got {self.eta}")


@dataclass(frozen=True)
class FactorPaths:
    """Simulated state matrix (times x paths) plus the Brownian increments of
    the state's own driving motion (needed by the Z projections)."""

    times: np.ndarray
    state: np.ndarray
    dW: np.ndarray

    @property
    def grid_n(self) -> int:
        return len(self.times) - 1

    @property
    def paths(self) -> int:
        return self.state.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def brownian_factor() -> FactorModel:
    """Pure Brownian state: OU with kappa = 0, eta = 1, started at 0."""
    return FactorModel(kappa=0.0, theta_bar=0.0, eta=1.0, theta0=0.0)


def simulate_factors(model: FactorModel, T: float, grid_n: int, paths: int,
                     seed: int) -> FactorPaths:
    """Exact transition sampling of the factor on the uniform grid of
    ``grid_n`` steps on [0, T], built as ``MarketScenario.times`` is.

    OU step: theta' = theta_bar + (theta - theta_bar) e^{-kappa dt}
    + eta sqrt(-expm1(-2 kappa dt) / (2 kappa)) xi, with the kappa -> 0 limit
    variance dt. An explosive factor (kappa < 0) whose decay or paths leave
    the float range is a ValidationError, and so is a (T, grid_n) that
    ``MarketScenario`` would refuse.
    """
    n = _check_grid(T, grid_n)
    times = np.linspace(0.0, T, n + 1)
    dt = float(times[1] - times[0])
    Z = time_major_normals(seed, paths, n)
    state = np.empty((n + 1, paths))
    state[0] = model.theta0
    if model.kappa == 0.0:
        decay = 1.0
        sd = model.eta * math.sqrt(dt)
    else:
        try:
            decay = math.exp(-model.kappa * dt)
            sd = model.eta * math.sqrt(-math.expm1(-2.0 * model.kappa * dt)
                                       / (2.0 * model.kappa))
        except OverflowError:
            raise ValidationError(
                f"OU decay exp({-model.kappa * dt:.6g}) per step overflows") from None
    row = np.empty(paths)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            # (theta_bar + (s - theta_bar) decay) + sd z in place, in that order
            s = np.subtract(state[i], model.theta_bar, out=state[i + 1])
            s *= decay
            s += model.theta_bar
            s += np.multiply(Z[i], sd, out=row)
    # a non-finite state stays non-finite at every later step
    if not np.isfinite(state[n]).all():
        raise ValidationError("factor paths overflow under this model")
    Z *= math.sqrt(dt)  # in place: the normals become the increments dW
    return FactorPaths(times, state, Z)


def wealth_factor_paths(scenario: MarketScenario, strategy: StrategyGrid,
                        paths: int, seed: int) -> FactorPaths:
    """Wealth itself as the regression state (deterministic-parameter flows):
    exact transitions X_{i+1} = g_i (X_i + a_i + b_i xi_i) from x0, the
    per-step law of :func:`eqmo.moments.simulate_terminal_wealth`. Wealth
    that overflows is a ValidationError."""
    g, a, b = _wealth_step_coeffs(scenario, strategy)
    n = scenario.grid_n
    Z = time_major_normals(seed, paths, n)
    X = np.empty((n + 1, paths))
    X[0] = scenario.x0
    row = np.empty(paths)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            # g (X + a + b z) in place, rounded in that order
            x = np.add(X[i], a[i], out=X[i + 1])
            x += np.multiply(Z[i], b[i], out=row)
            x *= g[i]
    # a non-finite wealth stays non-finite at every later step
    if not np.isfinite(X[n]).all():
        raise ValidationError("wealth paths overflow under this strategy")
    Z *= math.sqrt(scenario.dt)  # in place: the normals become the increments dW
    return FactorPaths(scenario.times, X, Z)


# ---------------------------------------------------------------------------
# driver specification and solver


@dataclass(frozen=True)
class DriverSpec:
    """Driver f(t, state, y, z [, deps]) and terminal xi(factor_paths, s).

    Both are vectorized over paths. ``deps`` is passed iff ``depends_on`` is
    nonempty, as a tuple of (Y_row, Z_row) arrays of the referenced solutions
    at the current time index. A driver quadratic in z sets ``z_bound``, and Z
    is clipped to [-z_bound, z_bound] before each of its driver calls.
    """

    driver: Callable
    terminal: Callable
    z_bound: float | None = None
    depends_on: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.z_bound is not None and not 0.0 < self.z_bound < math.inf:
            raise ValidationError(f"z_bound must be positive and finite, got {self.z_bound}")
        object.__setattr__(self, "depends_on",
                           tuple(_check_int("depends_on index", i) for i in self.depends_on))
        if any(i < 0 for i in self.depends_on):
            raise ValidationError("depends_on indices must be nonnegative")


# zero driver, terminal X_T: Y_t = E_t[X_T], the one BSDE the ``bsde`` command
# solves with or without a factor
TERMINAL_STATE = DriverSpec(
    driver=lambda t, state, y, z: 0.0,
    terminal=lambda fp, s: fp.state[-1],
)


@dataclass(frozen=True)
class BsdeGrid:
    """Discretized solution: Y (times x paths), Z (same shape, terminal row 0),
    the path mean and standard error of Y at the start date, and the share
    of Z values at the truncation bound."""

    Y: np.ndarray
    Z: np.ndarray
    y0_mean: float
    y0_se: float
    z_saturation: float = 0.0


# visit(i, Y, Z): the block of member rows and their Z rows at date i
_Visit = Callable[[int, np.ndarray, np.ndarray], None]


class _Regression:
    """Polynomial regression operator of one date on its state cross-section.

    The basis is stored basis-major: row k of ``B`` ((degree + 1) x paths) is
    the k-th power of the standardized state, each row the previous one times
    x (so ``B.T`` holds the same products as
    ``np.vander(x, d + 1, increasing=True)``), and every product with it is a
    matrix-vector or matrix-matrix product over contiguous rows. The Gram
    matrix G = B B' and the weighted Gram Gw = B diag(dW) B' are Hankel
    matrices of the power sums sum x^m and sum dW x^m, m <= 2 degree. G is
    inverted through its SVD; rank deficiency raises unless every path holds
    the same state, where conditioning is plain averaging and the basis drops
    to the intercept. ``step`` is the date index, reported on failure.

    On the intercept-only basis every product with B is a path sum, taken
    by ``np.sum``: BLAS splits a one-column product across its threads, so
    its rounding would follow ``OPENBLAS_NUM_THREADS``.
    """

    def __init__(self, state_row: np.ndarray, dW_row: np.ndarray, degree: int,
                 step: int | None = None):
        paths = state_row.size
        B = np.empty((degree + 1, paths))
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(state_row))
            x = np.subtract(state_row, mean, out=B[1])
            # row 0 holds the squared deviations, summed as np.std sums them
            std = math.sqrt(float(np.multiply(x, x, out=B[0]).sum()) / paths)
        if not math.isfinite(std):
            raise ValidationError(f"regression state at step {step} overflows: its "
                                  "squared deviations leave the float range")
        if np.all(state_row == state_row[0]):
            B = np.ones((1, paths))
            G, self.Gw = np.array([[float(paths)]]), np.array([[dW_row.sum()]])
        elif std == 0.0:
            raise RegressionSingular(f"regression state at step {step} varies, but its "
                                     "squared deviations underflow to 0", step=step)
        else:
            B[0] = 1.0
            np.divide(x, std, out=x)
            for k in range(2, degree + 1):
                np.multiply(B[k - 1], x, out=B[k])
            # power sums m = 0..d-1 from the rows, m = d..2d against the top row
            hankel = np.add.outer(np.arange(len(B)), np.arange(len(B)))
            G = np.concatenate((B[:-1].sum(axis=1), B @ B[-1]))[hankel]
            self.Gw = np.concatenate((B[:-1] @ dW_row, B @ (B[-1] * dW_row)))[hankel]
        U, s, Vt = np.linalg.svd(G)
        if s[0] <= 0.0 or s[-1] <= 1e-13 * s[0]:
            raise RegressionSingular(
                f"regression Gram matrix rank-deficient at step {step}: "
                f"singular values {s}", step=step)
        self.B, self.dW, self.inverse = B, dW_row, (U / s) @ Vt

    def products(self, rows: np.ndarray) -> np.ndarray:
        """rows @ B' for one row or a (members x paths) matrix of them."""
        if len(self.B) == 1:
            return rows.sum(axis=-1, keepdims=True)
        return rows @ self.B.T


def _terminals(specs: Sequence[DriverSpec], fp: FactorPaths,
               start_index: int) -> np.ndarray:
    """The block of terminal rows: row k is ``specs[k].terminal(fp, start_index + k)``."""
    if not 0 <= start_index <= fp.grid_n:
        raise ValidationError(f"start_index {start_index} outside [0, {fp.grid_n}]")
    Y = np.empty((len(specs), fp.paths))
    for k, spec in enumerate(specs):
        Y[k] = np.asarray(spec.terminal(fp, start_index + k), dtype=float)
    # a row sum is finite only if every value is, and then so is the path mean
    with np.errstate(over="ignore", invalid="ignore"):
        sums = Y.sum(axis=1)
    if not np.isfinite(sums).all():
        raise ValidationError("terminal condition produced non-finite values "
                              "or a path sum past the float range")
    return Y


def _fit_date(reg: _Regression, rows: np.ndarray, dt: float, C: np.ndarray,
              Z: np.ndarray) -> None:
    """Continuation C = E[rows | state_i] and the centered Z fit of one date,
    for one target row or a (members x paths) matrix of them, written into
    ``C`` and ``Z``; ``C`` may be ``rows`` itself.

    Both are formed once, from their coefficients. The fit is linear, so the
    Z target (rows - C) dW / dt has coefficients
    (rows @ (B dW)' - coeffs_C @ Gw) / dt @ G^-1 and is never formed;
    rows @ (B dW)' is taken as (rows dW) @ B', with rows dW in ``C``.
    """
    coeffs_C = reg.products(rows) @ reg.inverse
    np.multiply(rows, reg.dW, out=C)
    coeffs_Z = ((reg.products(C) - coeffs_C @ reg.Gw) / dt) @ reg.inverse
    np.matmul(coeffs_C, reg.B, out=C)
    np.matmul(coeffs_Z, reg.B, out=Z)


def _drive(spec: DriverSpec, t: float, state: np.ndarray, C: np.ndarray,
           Z: np.ndarray, dep_rows: Sequence[tuple[np.ndarray, np.ndarray]],
           dt: float) -> tuple[np.ndarray, int]:
    """The explicit step C += f(t, state, C, Z [, deps]) dt on the live row C
    in place, with ``spec.depends_on`` indexing ``dep_rows``; returns f dt and
    the count of Z values at the truncation bound. f dt is formed before C
    changes, since a driver may return its own y argument."""
    saturated = 0
    if spec.z_bound is not None:
        saturated = int(np.count_nonzero(np.abs(Z) >= spec.z_bound))
        Z = np.clip(Z, -spec.z_bound, spec.z_bound)
    if spec.depends_on:
        f = spec.driver(t, state, C, Z, tuple(dep_rows[d] for d in spec.depends_on))
    else:
        f = spec.driver(t, state, C, Z)
    f_dt = np.asarray(f, dtype=float) * dt
    C += f_dt  # even when f is 0: -0.0 + 0.0 is +0.0
    return f_dt, saturated


def _solve_one(specs: Sequence[DriverSpec], Y: np.ndarray, fp: FactorPaths,
               start_index: int, deps: Sequence[BsdeGrid],
               visit: _Visit) -> tuple[float, float]:
    """The one backward regression loop over dates; returns the standard
    error of row 0's Y at ``start_index`` and the share of Z values at the
    truncation bound. Row 0's path mean there is the caller's to take.

    Row k of the block ``Y`` starts as the terminal of ``specs[k]`` (see
    ``_terminals``) and is live at dates i >= k: a single BSDE is one row,
    a flow is n + 1. Each date down to ``start_index`` builds one regression
    operator on its state row, fits the live rows ``Y[:i + 1]`` in place
    with their Z into one buffer of at most n rows, and drives each live
    member on its own row; ``spec.depends_on`` indexes ``deps``, full grids
    read at the current date. ``visit(i, Y, Z)`` sees the block at every
    date, first at i = n with the terminals (Z zero); Z is rewritten at the
    next date. Z truncation warns at most once, over every clipped member.
    """
    n, paths, dt = fp.grid_n, fp.paths, fp.dt
    if paths < BASIS_DEGREE + 2:
        # with no more paths than basis functions the continuation fit
        # interpolates Y, so the centered Z target and every Z fit are 0
        raise TooFewPaths(f"paths = {paths} < basis degree + 2 = {BASIS_DEGREE + 2}")
    for k, spec in enumerate(specs):
        missing = [d for d in spec.depends_on if d >= len(deps)]
        if missing:
            raise ValidationError(f"spec {k} depends on grids {missing} but only "
                                  f"{len(deps)} dependency grids were supplied")
    Z = np.zeros((min(len(specs), n), paths))
    visit(n, Y, Z)
    saturated = 0
    y0_sample = Y[0]  # row 0's pathwise Y_{s+1} + f dt at s = start_index
    for i in range(n - 1, start_index - 1, -1):
        if i == start_index:
            y0_sample = Y[0].copy()
        live = Y[:i + 1]
        _fit_date(_Regression(fp.state[i], fp.dW[i], BASIS_DEGREE, i), live, dt, live,
                  Z[:i + 1])
        t, state = float(fp.times[i]), fp.state[i]
        dep_rows = [(g.Y[i], g.Z[i]) for g in deps]
        for k, spec in enumerate(specs[:i + 1]):
            f_dt, sat = _drive(spec, t, state, Y[k], Z[k], dep_rows, dt)
            saturated += sat
            if k == 0 and i == start_index:
                y0_sample += f_dt
        visit(i, Y, Z)

    total = paths * sum(n - max(k, start_index) for k, spec in enumerate(specs)
                        if spec.z_bound is not None)
    if total > 0 and saturated > 0.01 * total:
        warnings.warn(f"{saturated / total:.1%} of Z values hit the truncation bound",
                      ZTruncationSaturated, stacklevel=3)
    y0_se = float(np.std(y0_sample, ddof=1) / math.sqrt(paths))
    return y0_se, (saturated / total if total else 0.0)


def solve_bsde(spec: DriverSpec, fp: FactorPaths, *, start_index: int = 0,
               deps: Sequence[BsdeGrid] = ()) -> BsdeGrid:
    """Backward regression solve of one BSDE on [t_start, T].

    Rows with index below ``start_index`` are left at zero (flow members live
    on their own subinterval). Y_0 statistics refer to the first solved row.
    ``spec.depends_on`` indexes ``deps``.
    """
    Y, Z = np.zeros((2, fp.grid_n + 1, fp.paths))

    def visit(i: int, y_rows: np.ndarray, z_rows: np.ndarray) -> None:
        Y[i] = y_rows[0]
        Z[i] = z_rows[0]

    y0_se, z_saturation = _solve_one([spec], _terminals([spec], fp, start_index), fp,
                                     start_index, deps, visit)
    return BsdeGrid(Y, Z, float(np.mean(Y[start_index])), y0_se, z_saturation)


@dataclass(frozen=True)
class BsdeMeans:
    """Path means of one BSDE's Y and Z at every date (terminal Z row 0) and
    the Y_0 standard error of ``solve_bsde``; its Y_0 mean is ``y_mean[0]``."""

    y_mean: np.ndarray
    z_mean: np.ndarray
    y0_se: float


def solve_bsde_means(spec: DriverSpec, fp: FactorPaths) -> BsdeMeans:
    """``solve_bsde(spec, fp)`` reduced to its per-date path
    means, bitwise, without forming the Y and Z grids: beside the state and
    dW it holds O(paths) memory, whatever the number of dates."""
    means = np.zeros((2, fp.grid_n + 1))

    def visit(i: int, y_rows: np.ndarray, z_rows: np.ndarray) -> None:
        means[:, i] = np.mean(y_rows[0]), np.mean(z_rows[0])

    y0_se, _ = _solve_one([spec], _terminals([spec], fp, 0), fp, 0, (), visit)
    return BsdeMeans(means[0], means[1], y0_se)


@dataclass(frozen=True)
class DiagonalProcess:
    """Flow member s sampled at its own start time s.

    y_values[s] = path mean of Y^{(s)}_s; y_paths keeps the per-path variant;
    z_values[s] = path mean of Z^{(s)}_s for s < grid_n (terminal row has no
    martingale increment, stored as 0).
    """

    y_values: np.ndarray
    y_paths: np.ndarray
    z_values: np.ndarray


def solve_flow_diagonal(family: Callable[[int], DriverSpec],
                        fp: FactorPaths) -> DiagonalProcess:
    """Solve the flow of BSDEs ``family(s)`` on [s, T], s = 0..n, over the
    shared path set and extract member s at time s.

    The flow is one ``_solve_one`` block of n + 1 rows, row s member s from
    its terminal down to date s: the live members (s <= i) at date i are
    regressed together on the date's state row, and each member's driver is
    then called on its own row, with no dependency grids. When every member
    is the same ``DriverSpec`` object and all terminals are bitwise equal,
    the members differ only in where they start, so one row solved on
    [0, T] gives them all: its value at date s is member s at time s,
    bitwise a standalone ``solve_bsde``. Z truncation warns at most once per
    flow, counting over all members with a ``z_bound``.

    Each date regresses on the state X_t at that date alone, so a member's
    terminal may depend on s only deterministically, never on quantities
    conditional on X_s such as m1(s) = E_s[X_T], which no function of the
    later X_t carries. On ``mv_base`` wealth paths (grid_n 50, 20000 paths)
    the terminal (X_T - m1(s))^2 gave member n/2 an rms error of 0.10
    against its exact 0.28, where (X_T - c)^2 + t_s gave 0.023.
    """
    n = fp.grid_n
    specs = [family(s) for s in range(n + 1)]
    Y = _terminals(specs, fp, 0)
    z_diag = np.zeros(n + 1)
    if all(spec is specs[0] for spec in specs) \
            and np.all(Y.view(np.uint64) == Y[0].view(np.uint64)):
        # row 0 is the one solve's block; its value at date i is member i
        def visit(i: int, y_rows: np.ndarray, z_rows: np.ndarray) -> None:
            Y[i] = y_rows[0]
            z_diag[i] = np.mean(z_rows[0])

        _solve_one(specs[:1], Y[:1], fp, 0, (), visit)
    else:
        def visit(i: int, y_rows: np.ndarray, z_rows: np.ndarray) -> None:
            if i < n:
                z_diag[i] = np.mean(z_rows[i])

        _solve_one(specs, Y, fp, 0, (), visit)
    y_diag = np.array([float(np.mean(row)) for row in Y])
    return DiagonalProcess(y_diag, Y, z_diag)


def solve_recurrent_system(specs: Sequence[DriverSpec], fp: FactorPaths) -> list[BsdeGrid]:
    """Solve an ordered list of BSDEs where drivers may read the (Y, Z) grids
    of strictly earlier members: each member is ``solve_bsde`` fed the
    earlier members' grids as ``deps``, solved in order once every
    dependency has been checked."""
    for own, spec in enumerate(specs):
        bad = [d for d in spec.depends_on if d >= own]
        if bad:
            raise CyclicDependency(
                f"spec {own} depends on indices {bad}; dependencies must be "
                "strictly earlier in the list"
            )
    grids: list[BsdeGrid] = []
    for spec in specs:
        grids.append(solve_bsde(spec, fp, deps=grids))
    return grids


# ---------------------------------------------------------------------------
# manufactured-solution error study


@dataclass(frozen=True)
class ConvergenceRow:
    """One grid of the W_T^2 study: mean Y MSE over replications, its standard
    error, mean Z MSE and the mean Y_0 bias."""

    grid_n: int
    y_mse: float
    y_mse_se: float
    z_mse: float
    y0_bias: float


def convergence_study(paths: int, reps: int, seed: int,
                      grids: Sequence[int] = (25, 50, 100)) -> list[ConvergenceRow]:
    """Grid-refinement error study of ``solve_bsde``: terminal W_T^2, zero
    driver on [0, 1], exact Y_t = W_t^2 + (1 - t) and Z_t = 2 W_t, which the
    degree-3 basis reproduces, so the error is regression sampling noise.
    Every grid and replication draws its paths from its own seed."""
    if reps < 2:
        raise ValidationError(f"need at least 2 replications, got {reps}")
    spec = DriverSpec(
        driver=lambda t, state, y, z: 0.0,
        terminal=lambda fp, s: fp.state[-1] ** 2,
    )
    rows = []
    for grid_n in grids:
        # squared errors (Y - (W^2 + 1 - t))^2 and (Z - 2 W)^2, written row by
        # row into two buffers that every replication of this grid reuses
        y_err = np.empty((grid_n + 1, paths))
        z_err = np.empty((grid_n, paths))
        y_mses, z_mses, y0s = [], [], []
        for rep in range(reps):
            fp = simulate_factors(brownian_factor(), 1.0, grid_n, paths,
                                  (seed + 7919 * grid_n + rep) % SEED_LIMIT)

            def visit(i: int, y_rows: np.ndarray, z_rows: np.ndarray) -> None:
                err = np.square(fp.state[i], out=y_err[i])
                err += 1.0 - fp.times[i]
                np.square(np.subtract(y_rows[0], err, out=err), out=err)
                if i < grid_n:
                    err = np.multiply(fp.state[i], 2.0, out=z_err[i])
                    np.square(np.subtract(z_rows[0], err, out=err), out=err)

            Y = _terminals([spec], fp, 0)
            _solve_one([spec], Y, fp, 0, (), visit)
            y_mses.append(float(np.mean(y_err)))
            z_mses.append(float(np.mean(z_err)))
            y0s.append(float(np.mean(Y[0])))
        rows.append(ConvergenceRow(
            grid_n=grid_n, y_mse=float(np.mean(y_mses)),
            y_mse_se=float(np.std(y_mses, ddof=1) / math.sqrt(reps)),
            z_mse=float(np.mean(z_mses)), y0_bias=float(np.mean(y0s)) - 1.0,
        ))
    return rows


# ---------------------------------------------------------------------------
# equilibrium cross-validation through the flow diagonal


@dataclass(frozen=True)
class FlowDiagnostics:
    """Diagonal check of the mean-variance first-order condition.

    The zero-driver BSDE with terminal X_T has Z_s = e^{R(s)} sigma(s) u(s)
    under a deterministic strategy, so theta(s) - 2 gamma2 sigma(s) Z_s = 0
    exactly at the mean-variance equilibrium; residuals below sampling noise
    confirm the regression solver against the closed-form sweep. Every member
    of that flow is the same spec, so its diagonal is the per-date path means
    of one solve.
    """

    means: BsdeMeans
    residuals: np.ndarray
    residual_rms: float
    residual_max: float
    implied_u: np.ndarray


def mv_flow_residual(scenario: MarketScenario, gamma2: float, paths: int, seed: int, *,
                     strategy: StrategyGrid) -> FlowDiagnostics:
    """Solve E_t[X_T] on wealth paths under the caller's ``strategy``, which
    this route never builds itself, and report the mean-variance residual
    theta - 2 gamma2 sigma Z along the flow diagonal. A residual whose rms
    leaves the float range is a ValidationError, and so is a nonzero sigma u
    under which every path still ends at the same X_T."""
    fp = wealth_factor_paths(scenario, strategy, paths, seed)
    means = solve_bsde_means(TERMINAL_STATE, fp)
    n = scenario.grid_n
    res = scenario.theta[:n] - 2.0 * gamma2 * scenario.sigma[:n] * means.z_mean[:n]
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(res ** 2)))
    if not math.isfinite(rms):
        raise ValidationError("flow residual theta - 2 gamma2 sigma Z overflows: "
                              f"its rms is {rms}")
    # sigma u dW can round away against X on every path, which leaves Z at 0
    x_T = fp.state[n]
    if np.any(scenario.sigma[:n] * strategy.values[:n]) and np.all(x_T == x_T[0]):
        raise ValidationError("every wealth path ends at the same X_T under a nonzero sigma u")
    R = rate_to_horizon(scenario)
    implied = means.z_mean[:n] * growth_factors(-R[:n]) / scenario.sigma[:n]
    return FlowDiagnostics(
        means=means,
        residuals=res,
        residual_rms=rms,
        residual_max=float(np.max(np.abs(res))),
        implied_u=implied,
    )
