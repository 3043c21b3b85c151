"""Exception and warning types shared across the package.

Every failure mode raised by the library is a subclass of :class:`EqmoError`,
so callers can catch one root type at the CLI boundary and map it to a
diagnostic exit. Classes carry structured attributes (offending values, step
indices, line numbers) where a message alone would force log parsing.
"""
from __future__ import annotations


class EqmoError(Exception):
    """Root of the package exception hierarchy."""


# ---------------------------------------------------------------------------
# validation / input errors


class ValidationError(EqmoError):
    """Invalid scenario, objective, or call arguments."""


class SigmaTooSmall(ValidationError):
    """Volatility below the configured floor somewhere on the grid."""


class NonAffineMeanTerm(ValidationError):
    """Objective depends on the conditional mean beyond an affine term.

    Any m1 power above one, or a product of m1 with a risk factor, makes the
    stationarity condition depend on current wealth and the equilibrium
    state-dependent, which this solver does not cover.
    """


class EmptyRiskTerm(ValidationError):
    """Objective has no second-order (k = 2) term with nonzero weight."""


class GridMismatch(ValidationError):
    """Array lengths inconsistent with the scenario grid."""


class OutOfRange(ValidationError):
    """Time arguments outside [0, T] or incorrectly ordered."""


class UnsupportedOrder(ValidationError):
    """Moment/cumulant order outside the implemented range [2, 8]."""


class NegativeVariance(ValidationError):
    """A variance argument was negative."""


class OffGridTime(ValidationError):
    """Time argument does not coincide with a grid point."""


class OrderMismatch(ValidationError):
    """MomentVector order too low for the objective being evaluated."""


class TooFewPaths(ValidationError):
    """Monte Carlo path budget below the supported minimum."""


class EmptyVGrid(ValidationError):
    """Deviation grid for the equilibrium scan is empty."""


class EpsNotOnGrid(ValidationError):
    """Perturbation width is not a positive multiple of the grid step."""


# ---------------------------------------------------------------------------
# solver errors


class SolverError(EqmoError):
    """Failure inside the backward equilibrium sweep."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NoSecondOrderTerm(SolverError):
    """Second-order coefficient D vanishes; stationarity has no solution."""


class NoRealRoot(SolverError):
    """Stationarity polynomial has no real root in the search interval."""


class AmbiguousRoot(SolverError):
    """No real root passes the maximizer-branch selection rule.

    ``candidates`` holds every real root found so the caller can inspect the
    competing stationary points instead of trusting a silent choice.
    """

    def __init__(self, message: str, candidates: tuple[float, ...] = (),
                 step: int | None = None):
        super().__init__(message, step=step)
        self.candidates = tuple(candidates)


class UnsupportedObjectiveClass(EqmoError):
    """Objective outside the class the homogeneity decision covers."""


# ---------------------------------------------------------------------------
# BSDE / regression errors


class BsdeError(EqmoError):
    """Failure inside the backward regression solver."""


class RegressionSingular(BsdeError):
    """Regression Gram matrix is rank-deficient for a non-constant state;
    ``step`` is the date index whose state row it regresses on."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class CyclicDependency(BsdeError):
    """A driver depends on its own or a later system index."""


# ---------------------------------------------------------------------------
# I/O errors


class ParseError(EqmoError):
    """Scenario text is malformed; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IoError(EqmoError):
    """Artifact files could not be written."""


class ZTruncationSaturated(RuntimeWarning):
    """More than the tolerated share of Z values hit the truncation bound."""
