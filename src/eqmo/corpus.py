"""Named and randomized scenario/objective cases shared by tests and scripts.

The named cases pin down the hand-derivable closed forms (constant-parameter
mean-variance family and its higher-moment variants); the affine corpus
draws constant-parameter markets with risk parts affine in the variance, the
class whose finite-window slopes reproduce the gain quadratic exactly; the
curved corpus draws time-varying markets with curved risk parts, which only
the implicit sweep makes stationary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarketScenario, ObjectiveSpec, ObjectiveTerm


@dataclass(frozen=True)
class Case:
    name: str
    scenario: MarketScenario
    objective: ObjectiveSpec


def _objective(mode: str, weights: dict[int, float]) -> ObjectiveSpec:
    return ObjectiveSpec.from_weights(mode, weights)


def mv_base(grid_n: int = 100) -> Case:
    return Case(
        "mv_base",
        MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, grid_n),
        _objective("central", {1: 1.0, 2: -1.0}),
    )


def mv_discounted(grid_n: int = 100) -> Case:
    return Case(
        "mv_discounted",
        MarketScenario(0.05, 0.3, 0.2, 1.0, 1.0, grid_n),
        _objective("central", {1: 1.0, 2: -1.0}),
    )


def kurtosis_cumulant(grid_n: int = 100) -> Case:
    """Mean minus variance minus excess kurtosis (fourth cumulant)."""
    return Case(
        "kurtosis_cumulant",
        MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, grid_n),
        _objective("cumulant", {1: 1.0, 2: -1.0, 4: -0.8}),
    )


def raw_m4(grid_n: int = 100) -> Case:
    """Mean minus variance minus raw fourth central moment."""
    return Case(
        "raw_m4",
        MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, grid_n),
        _objective("central", {1: 1.0, 2: -1.0, 4: -0.5}),
    )


def mvsk_central(grid_n: int = 100) -> Case:
    """Mean - variance + skewness - kurtosis with small higher weights."""
    return Case(
        "mvsk_central",
        MarketScenario(0.0, 0.3, 0.2, 1.0, 1.0, grid_n),
        _objective("central", {1: 1.0, 2: -1.0, 3: 0.05, 4: -0.1}),
    )


def skew_cumulant(grid_n: int = 100) -> Case:
    return Case(
        "skew_cumulant",
        MarketScenario(0.02, 0.25, 0.3, 1.0, 1.0, grid_n),
        _objective("cumulant", {1: 1.0, 2: -1.0, 3: 0.1}),
    )


def theta_zero(grid_n: int = 50) -> Case:
    return Case(
        "theta_zero",
        MarketScenario(0.03, 0.0, 0.2, 1.0, 1.0, grid_n),
        _objective("central", {1: 1.0, 2: -1.0}),
    )


def time_varying(grid_n: int = 100) -> Case:
    t = np.linspace(0.0, 1.0, grid_n + 1)
    scenario = MarketScenario(
        r=0.02 + 0.01 * t,
        theta=0.3 + 0.1 * np.sin(2.0 * np.pi * t),
        sigma=0.2 + 0.05 * np.cos(np.pi * t),
        T=1.0,
        x0=1.0,
        grid_n=grid_n,
    )
    return Case("time_varying", scenario, _objective("central", {1: 1.0, 2: -0.8}))


def named_corpus() -> list[Case]:
    """All named cases; every one except theta_zero has a nonzero risk premium."""
    return [
        mv_base(),
        mv_discounted(),
        kurtosis_cumulant(),
        raw_m4(),
        mvsk_central(),
        skew_cumulant(),
        theta_zero(),
        time_varying(),
    ]


def random_affine_corpus(seed: int = 20240811, count: int = 10) -> list[Case]:
    """Constant-parameter markets with variance-affine risk parts.

    Weight and volatility ranges keep objective values O(10) so that finite
    difference quotients of J retain at least 12 significant digits.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        r = float(rng.uniform(0.0, 0.08))
        theta = float(rng.uniform(0.05, 0.3))
        sigma = float(rng.uniform(0.2, 0.5))
        T = float(rng.choice([0.5, 1.0, 2.0]))
        grid_n = int(rng.choice([40, 80, 100]))
        x0 = float(rng.uniform(0.5, 2.0))
        w1 = float(rng.uniform(0.5, 2.0))
        w2 = -float(rng.uniform(0.5, 2.0)) * w1
        mode = str(rng.choice(["central", "cumulant"]))
        weights: dict[int, float] = {1: w1, 2: w2}
        if mode == "cumulant":
            for k in (3, 4, 5, 6):
                if rng.uniform() < 0.6:
                    weights[k] = float(rng.uniform(-1.0, 1.0))
        else:
            for k in (3, 5):  # odd central moments vanish on the Gaussian family
                if rng.uniform() < 0.5:
                    weights[k] = float(rng.uniform(-1.0, 1.0))
        scenario = MarketScenario(r, theta, sigma, T, x0, grid_n)
        cases.append(Case(f"random_affine_{i}", scenario, _objective(mode, weights)))
    return cases


def random_curved_corpus(seed: int = 20261017, count: int = 60,
                         grid_n: int | None = None) -> list[Case]:
    """Time-varying markets with curved central-moment risk parts.

    Each objective is w1 m1 + w2 m2 + w4 m4 + w6 m6 + w22 m2^2, so its
    Gaussian risk part G(V) = w2 V + (3 w4 + w22) V^2 + 15 w6 V^3 is curved
    and the implicit stationarity polynomial has degree 3 or 5. Small
    positive w4, w6 and w22 are drawn on purpose: they can leave a step
    without a root on the maximizer branch (D <= 0), which the sweep must
    report as a typed error naming the step.

    ``grid_n`` replaces every drawn grid size and leaves every other draw
    as it is, so the same markets and objectives can be sampled on finer
    grids; it exists for grid-refinement studies of the sweep.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        drawn = int(rng.choice([40, 80, 120]))
        n = drawn if grid_n is None else grid_n
        T = float(rng.choice([0.5, 1.0, 2.0]))
        t = np.linspace(0.0, T, n + 1)
        freq = rng.uniform(0.5, 4.0, 3)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        wave = np.sin(freq[:, None] * t[None, :] + phase[:, None])
        scenario = MarketScenario(
            r=float(rng.uniform(0.0, 0.06)) + float(rng.uniform(0.0, 0.02)) * wave[0],
            theta=float(rng.uniform(0.1, 0.35)) + float(rng.uniform(0.0, 0.1)) * wave[1],
            sigma=float(rng.uniform(0.2, 0.25)) + float(rng.uniform(0.0, 0.1)) * wave[2],
            T=T,
            x0=float(rng.uniform(0.5, 2.0)),
            grid_n=n,
        )
        w1 = float(rng.uniform(0.5, 2.0))
        objective = ObjectiveSpec(
            "central",
            (
                ObjectiveTerm(((1, 1),), w1),
                ObjectiveTerm(((2, 1),), -float(rng.uniform(0.5, 2.0)) * w1),
                ObjectiveTerm(((4, 1),), float(rng.uniform(-0.6, 0.3))),
                ObjectiveTerm(((6, 1),), float(rng.uniform(-0.1, 0.1))),
                ObjectiveTerm(((2, 2),), float(rng.uniform(-0.5, 0.5))),
            ),
        )
        cases.append(Case(f"random_curved_{i}", scenario, objective))
    return cases


def cross_term_objective() -> ObjectiveSpec:
    """Variance-kurtosis product term, curvature without a pure m4 weight."""
    return ObjectiveSpec(
        "central",
        (
            ObjectiveTerm(((1, 1),), 1.0),
            ObjectiveTerm(((2, 1),), -1.0),
            ObjectiveTerm(((2, 1), (4, 1)), -0.2),
        ),
    )
