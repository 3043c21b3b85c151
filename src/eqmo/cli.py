"""Batch front end: parse a scenario file, run one command, emit artifacts.

Commands: solve (backward sweep -> strategy table), verify (equilibrium
report), moments (per-time conditional moment table), homogeneity (numeric
check + algebraic predicate + agreement flag), bsde (flow-diagonal
cross-check or factor BSDE export), mc (analytic vs Monte Carlo moments).
verify, moments and mc read the sweep rescaled by [numerics] u_scale.

Exit codes: 0 success/pass, 2 a verification-style command reports failure
(verify fail, homogeneity violated or in disagreement, mc z-score breach),
1 any module error or usage error (structured JSON diagnostic on stderr).
Only mc and bsde draw at random, with the seed of --seed (default 42).
Artifacts are deterministic for fixed (scenario, seed, grid_n, paths)
regardless of EQMO_WORKERS.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .artifacts import FORMATS, Table, emit_outputs, render_json
from .bsde import BASIS_DEGREE, TERMINAL_STATE, mv_flow_residual, simulate_factors, \
    solve_bsde_means
from .equilibrium import PERTURBATION_CONVENTION, SCHEMES, backward_sweep, mv_closed_form, \
    mv_gamma2
from .errors import AmbiguousRoot, EqmoError, ParseError, ValidationError
from .moments import conditional_moments, mc_conditional_moments, moment_grid, \
    objective_value
from .sampling import check_paths, check_seed
from .scenario_io import ScenarioBundle, parse_scenario
from .verify import equilibrium_report, homogeneity_check_numeric, \
    homogeneity_predicate

COMMANDS = ("solve", "verify", "moments", "homogeneity", "bsde", "mc")
DEFAULT_SEED = 42
Z_THRESHOLD = 4.0  # mc exits 2 when some |z| exceeds it


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters: the seed from --seed, the scheme from
    [numerics], grid_n and paths from their flags over [numerics]."""

    command: str
    scenario_path: str
    out_dir: str
    seed: int
    grid_n: int
    paths: int
    format: str
    scheme: str

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValidationError(f"command must be one of {COMMANDS}, got {self.command!r}")
        if self.format not in FORMATS:
            raise ValidationError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.grid_n < 1:
            raise ValidationError(f"grid_n must be positive, got {self.grid_n}")
        check_paths(self.paths)
        check_seed(self.seed)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValidationError, so that it exits 1 with one
    JSON diagnostic: exit 2 is reserved for a failed check."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(f"usage error: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="eqmo",
        description="equilibrium-strategy and BSDE experiment runner",
    )
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--format", choices=FORMATS, default="csv")
    return p


def resolve_config(args: argparse.Namespace, bundle: ScenarioBundle) -> RunConfig:
    num = bundle.numerics
    return RunConfig(
        command=args.command,
        scenario_path=args.scenario,
        out_dir=args.out,
        seed=args.seed,
        grid_n=num["grid_n"],
        paths=args.paths if args.paths is not None else num["paths"],
        format=args.format,
        scheme=num["scheme"],
    )


def _swept_strategy(bundle: ScenarioBundle, config: RunConfig):
    strategy = backward_sweep(bundle.scenario, bundle.objective, config.scheme).strategy
    u_scale = bundle.numerics["u_scale"]
    return strategy if u_scale == 1.0 else strategy.scaled(u_scale)


def _witness_obj(witness) -> dict | None:
    if witness is None:
        return None
    t, v, phi = witness
    return {"t": t, "v": v, "phi": phi}


def _cmd_solve(bundle: ScenarioBundle, config: RunConfig):
    s = bundle.scenario
    sweep = backward_sweep(s, bundle.objective, config.scheme)
    table = Table(
        ("t", "u", "V", "D", "residual"),
        (s.times, sweep.strategy.values, sweep.variance_to_go, sweep.D, sweep.residuals),
    )
    mv = conditional_moments(s, sweep.strategy, 0.0, s.x0, bundle.objective.max_order)
    summary = {
        "command": "solve",
        "scheme": config.scheme,
        "grid_n": s.grid_n,
        "J_t0": objective_value(bundle.objective, mv),
        "u_first": float(sweep.strategy.values[0]),
        "u_terminal": float(sweep.strategy.values[-1]),
        "max_residual": float(np.max(sweep.residuals)),
    }
    return 0, {"strategy": table, "solve_summary": summary}


def _cmd_verify(bundle: ScenarioBundle, config: RunConfig):
    strategy = _swept_strategy(bundle, config)
    tolerance = bundle.numerics["tolerance"]
    report = equilibrium_report(bundle.scenario, bundle.objective, strategy,
                                tolerance=tolerance)
    payload = {
        "verdict": "pass" if report.passed else "fail",
        "max_phi": report.max_phi,
        "tolerance": report.tolerance,
        "convention": PERTURBATION_CONVENTION,
        "u_scale": bundle.numerics["u_scale"],
        "witness": _witness_obj(report.witness),
    }
    profile = Table(("t", "phi_max"), (bundle.scenario.times, report.per_t_max))
    return (0 if report.passed else 2), {"report": payload, "phi_profile": profile}


def _cmd_moments(bundle: ScenarioBundle, config: RunConfig):
    s = bundle.scenario
    strategy = _swept_strategy(bundle, config)
    order = max(bundle.objective.max_order, 4)
    grid = moment_grid(s, strategy)
    rows = []
    for i, t in enumerate(s.times):
        mv = grid.at(i, s.x0, order)
        rows.append(
            (float(t), float(strategy.values[i]), mv.m1, mv.V)
            + mv.central + mv.cumulant
            + (objective_value(bundle.objective, mv),)
        )
    header = (
        ("t", "u", "m1", "V")
        + tuple(f"m{k}" for k in range(2, order + 1))
        + tuple(f"k{k}" for k in range(2, order + 1))
        + ("J",)
    )
    table = Table(header, tuple(zip(*rows)))
    summary = {"command": "moments", "order": order, "J_t0": rows[0][-1]}
    return 0, {"moments": table, "moments_summary": summary}


def _cmd_homogeneity(bundle: ScenarioBundle, config: RunConfig):
    tolerance = bundle.numerics["tolerance"]
    numeric = homogeneity_check_numeric(bundle.scenario, bundle.objective,
                                        tolerance=tolerance)
    predicate = homogeneity_predicate(bundle.objective)
    agree = numeric.passed == predicate
    payload = {
        "numeric_holds": numeric.passed,
        "predicate_holds": predicate,
        "agree": agree,
        "gamma2": mv_gamma2(bundle.objective),
        "max_phi": numeric.max_phi,
        "tolerance": tolerance,
        "witness": _witness_obj(numeric.witness),
    }
    return (0 if numeric.passed and agree else 2), {"homogeneity": payload}


def _cmd_bsde(bundle: ScenarioBundle, config: RunConfig):
    s = bundle.scenario
    n = s.grid_n
    summary = {"command": "bsde", "kind": "none" if bundle.factor is None else "ou",
               "basis_degree": BASIS_DEGREE, "paths": config.paths, "seed": config.seed}
    if bundle.factor is None:
        gamma2 = mv_gamma2(bundle.objective)
        diag = mv_flow_residual(s, gamma2, config.paths, config.seed,
                                strategy=mv_closed_form(s, gamma2))
        table = Table(
            ("t", "y_diag", "z_diag", "residual", "implied_u"),
            (s.times[:n], diag.means.y_mean[:n], diag.means.z_mean[:n],
             diag.residuals, diag.implied_u),
        )
        summary.update(gamma2=gamma2, residual_rms=diag.residual_rms,
                       residual_max=diag.residual_max)
        return 0, {"bsde_diagonal": table, "bsde_summary": summary}
    fp = simulate_factors(bundle.factor, s.T, s.grid_n, config.paths, config.seed)
    means = solve_bsde_means(TERMINAL_STATE, fp)
    table = Table(("t", "y_mean", "z_mean"),
                  (s.times[:n], means.y_mean[:n], means.z_mean[:n]))
    summary.update(y0_mean=float(means.y_mean[0]), y0_se=means.y0_se)
    return 0, {"bsde_grid": table, "bsde_summary": summary}


def _cmd_mc(bundle: ScenarioBundle, config: RunConfig):
    s = bundle.scenario
    strategy = _swept_strategy(bundle, config)
    order = 6
    analytic = conditional_moments(s, strategy, 0.0, s.x0, order)
    est = mc_conditional_moments(s, strategy, 0.0, s.x0, order, config.paths,
                                 config.seed)
    labels = ["m1"] + [f"m{k}" for k in range(2, order + 1)]
    exact = [analytic.m1] + list(analytic.central)
    sampled = [est.moments.m1] + list(est.moments.central)
    rows = []
    worst = 0.0
    for label, a, b, se, tol in zip(labels, exact, sampled, est.standard_errors, est.rounding):
        if se > 0.0:
            z = (b - a) / se
        else:  # no sampling error: a gap past rounding is as many se as a float holds
            z = 0.0 if abs(b - a) <= tol else float(np.copysign(np.finfo(float).max, b - a))
        worst = max(worst, abs(z))
        rows.append((label, a, b, se, z))
    table = Table(("moment", "analytic", "estimate", "se", "z"), tuple(zip(*rows)))
    summary = {
        "command": "mc",
        "paths": config.paths,
        "seed": config.seed,
        "order": order,
        "max_abs_z": worst,
        "z_threshold": Z_THRESHOLD,
    }
    return (0 if worst <= Z_THRESHOLD else 2), {"mc_check": table, "mc_summary": summary}


_DISPATCH = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "moments": _cmd_moments,
    "homogeneity": _cmd_homogeneity,
    "bsde": _cmd_bsde,
    "mc": _cmd_mc,
}


def run_command(config: RunConfig, bundle: ScenarioBundle) -> tuple[int, dict[str, str]]:
    """Execute one command and emit its artifacts; returns (exit code, manifest).
    A config whose grid_n is not the bundle's is a ValidationError."""
    if config.grid_n != bundle.scenario.grid_n:
        raise ValidationError(f"config grid_n {config.grid_n} differs from the "
                              f"scenario's {bundle.scenario.grid_n}")
    status, results = _DISPATCH[config.command](bundle, config)
    manifest = emit_outputs(results, config.format, config.out_dir)
    return status, manifest


def _diagnostic(exc: EqmoError) -> str:
    payload: dict[str, object] = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    step = getattr(exc, "step", None)  # SolverError and RegressionSingular
    if step is not None:
        payload["step"] = step
    if isinstance(exc, AmbiguousRoot) and exc.candidates:
        payload["candidates"] = list(exc.candidates)
    if isinstance(exc, ParseError) and exc.line is not None:
        payload["line"] = exc.line
    return render_json(payload)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        bundle = parse_scenario(args.scenario, grid_n=args.grid_n)
        config = resolve_config(args, bundle)
        status, _ = run_command(config, bundle)
        return status
    except EqmoError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(render_json({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
