"""Equilibrium strategies for moment-based objectives under time inconsistency.

Core pipeline: describe a market and a polynomial moment objective
(:mod:`eqmo.model`), compute conditional moments of terminal wealth under
deterministic strategies (:mod:`eqmo.moments`), solve the per-step
stationarity condition backward for the equilibrium candidate
(:mod:`eqmo.equilibrium`), and certify it against spike deviations
(:mod:`eqmo.verify`). A regression Monte Carlo solver for (flows of)
backward SDEs (:mod:`eqmo.bsde`) cross-validates the closed forms from the
probabilistic side. :mod:`eqmo.cli` exposes everything as reproducible batch
commands.
"""

from .errors import (
    AmbiguousRoot,
    BsdeError,
    CyclicDependency,
    EmptyRiskTerm,
    EmptyVGrid,
    EpsNotOnGrid,
    EqmoError,
    GridMismatch,
    IoError,
    NegativeVariance,
    NoRealRoot,
    NoSecondOrderTerm,
    NonAffineMeanTerm,
    OffGridTime,
    OrderMismatch,
    OutOfRange,
    ParseError,
    RegressionSingular,
    SigmaTooSmall,
    SolverError,
    TooFewPaths,
    UnsupportedObjectiveClass,
    UnsupportedOrder,
    ValidationError,
    ZTruncationSaturated,
)
from .model import (
    MAX_GRID_N,
    MAX_ORDER,
    MarketScenario,
    ObjectiveSpec,
    ObjectiveTerm,
    Polynomial,
    StrategyGrid,
    gaussian_risk_polynomial,
    growth_factors,
    moments_to_cumulants,
    rate_to_horizon,
    validate_scenario,
)
from .moments import (
    McEstimate,
    MomentVector,
    conditional_moments,
    gaussian_central_moments,
    mc_conditional_moments,
    moments_to_go,
    objective_value,
    simulate_terminal_wealth,
)
from .roots import real_roots
from .equilibrium import (
    SweepResult,
    backward_sweep,
    default_v_grid,
    mv_closed_form,
    mv_gamma2,
    phi_profile,
    scan_phi_max,
)
from .verify import (
    EquilibriumReport,
    equilibrium_report,
    finite_eps_check,
    homogeneity_check_numeric,
    homogeneity_predicate,
)
from .bsde import (
    BsdeGrid,
    BsdeMeans,
    ConvergenceRow,
    DiagonalProcess,
    DriverSpec,
    FactorModel,
    FactorPaths,
    FlowDiagnostics,
    brownian_factor,
    convergence_study,
    mv_flow_residual,
    simulate_factors,
    solve_bsde,
    solve_bsde_means,
    solve_flow_diagonal,
    solve_recurrent_system,
    wealth_factor_paths,
)
from .scenario_io import ScenarioBundle, parse_scenario, serialize_scenario
from .artifacts import Table, emit_outputs, render_csv, render_json

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
