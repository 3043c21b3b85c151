"""Job lists of the three workloads and the correctness check of every job.

Each job calls one public entry point (``eqmo.cli.run_command``,
``eqmo.verify.finite_eps_check`` or ``eqmo.bsde.solve_flow_diagonal``) and
returns, besides its timing, a digest of its outputs and a check. Checks use
tolerances the repository already pins in its tests; none is new:

- solve: max residual <= the scenario tolerance;
- verify: verdict "pass";
- homogeneity: predicate and numeric check agree, with the expected exit code;
- moments: one row per grid time and zero terminal variance-to-go;
- oracle: |slope - Phi| <= 1e-10 (acceptance criterion 6);
- mc: max |z| <= 4;
- flow: residual rms <= 5e-3 (criterion 9), diagonal mean within four
  plain Monte Carlo standard errors of the closed form;
- OU factor: Y0 within four plain Monte Carlo standard errors of the OU mean.

The workload seed reaches the program only as ``RunConfig.seed`` and as the
generated oracle times. Calls go through module attributes so that the
tracer's wrappers, once installed, see them.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from eqmo import bsde, cli, equilibrium, moments, scenario_io, verify

ORACLE_TIMES = 100
ORACLE_V = (-0.5, 0.25, 1.0)
ORACLE_TOL = 1e-10     # acceptance criterion 6
Z_LIMIT = 4.0          # mc z-score threshold of the CLI
FLOW_RMS_TOL = 5e-3    # acceptance criterion 9
MC_SE_BOUND = 4.0      # plain Monte Carlo standard errors (tests/test_cli.py)


@dataclass(frozen=True)
class Outcome:
    """What a job measured and how to check it.

    ``seconds`` is the time of the call the job's metric counts (the
    ``run_command`` call, the oracle batch or the flow diagonal); ``check``
    returns None when the outputs are correct, else a reason.
    """

    seconds: float
    digest: str
    check: Callable[[], str | None]
    files: tuple[str, ...] = ()


@dataclass(frozen=True)
class Job:
    name: str
    metric: str
    scenario: str
    grid_n: int
    execute: Callable[[int, str], Outcome]


def _scenario(name: str) -> str:
    return os.path.join("scenarios", f"{name}.scn")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_check(command: str, bundle, config, status: int, expect: int):
    out = config.out_dir

    def check() -> str | None:
        if status != expect:
            return f"exit {status}, expected {expect}"
        if command == "solve":
            res = _read_json(os.path.join(out, "solve_summary.json"))["max_residual"]
            tol = float(bundle.numerics["tolerance"])
            return None if res <= tol else f"max_residual {res:.3g} > {tol:.3g}"
        if command == "verify":
            verdict = _read_json(os.path.join(out, "report.json"))["verdict"]
            return None if verdict == "pass" else f"verdict {verdict}"
        if command == "homogeneity":
            h = _read_json(os.path.join(out, "homogeneity.json"))
            agree = h["agree"] and h["numeric_holds"] == h["predicate_holds"]
            return None if agree else f"predicate/numeric disagree: {h}"
        if command == "moments":
            with open(os.path.join(out, "moments.csv"), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if len(lines) - 1 != config.grid_n + 1:
                return f"{len(lines) - 1} rows for grid_n {config.grid_n}"
            v_terminal = float(lines[-1].split(",")[3])
            return None if v_terminal == 0.0 else f"terminal V {v_terminal}"
        if command == "mc":
            z = _read_json(os.path.join(out, "mc_summary.json"))["max_abs_z"]
            return None if z <= Z_LIMIT else f"max_abs_z {z:.3g} > {Z_LIMIT}"
        summary = _read_json(os.path.join(out, "bsde_summary.json"))
        if summary["kind"] == "none":
            rms = summary["residual_rms"]
            return None if rms <= FLOW_RMS_TOL else f"residual_rms {rms:.3g}"
        f = bundle.factor
        T = bundle.scenario.T
        exact = f.theta_bar + (f.theta0 - f.theta_bar) * math.exp(-f.kappa * T)
        se = f.eta * math.sqrt(-math.expm1(-2.0 * f.kappa * T) / (2.0 * f.kappa)) \
            / math.sqrt(config.paths)
        err = abs(summary["y0_mean"] - exact)
        return None if err < MC_SE_BOUND * se else f"|y0 - OU mean| {err:.3g} >= 4 se"

    return check


def cli_job(command: str, scenario: str, grid_n: int, paths: int = 1000,
            expect: int = 0, **numerics) -> Job:
    """``run_command`` on a shipped scenario at a benchmark size; ``numerics``
    overrides [numerics] entries (the negative control sets u_scale)."""

    def execute(seed: int, out_dir: str) -> Outcome:
        bundle = scenario_io.parse_scenario(_scenario(scenario), grid_n=grid_n)
        if numerics:
            bundle = replace(bundle, numerics={**bundle.numerics, **numerics})
        config = cli.RunConfig(
            command=command, scenario_path=_scenario(scenario), out_dir=out_dir,
            seed=seed, grid_n=grid_n, paths=paths, format="csv",
            scheme=str(bundle.numerics["scheme"]),
        )
        t0 = time.perf_counter()
        status, manifest = cli.run_command(config, bundle)
        seconds = time.perf_counter() - t0
        files = tuple(sorted(manifest)) + ("manifest.json",)
        digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
        return Outcome(seconds, digest, _cli_check(command, bundle, config, status, expect),
                       tuple(os.path.join(out_dir, f) for f in files))

    return Job(f"{command}-{scenario}", f"{command}_s", scenario, grid_n, execute)


def oracle_job(scenario: str, grid_n: int) -> Job:
    """finite_eps_check at seeded grid times and v in ORACLE_V with eps = dt."""

    def execute(seed: int, out_dir: str) -> Outcome:
        bundle = scenario_io.parse_scenario(_scenario(scenario), grid_n=grid_n)
        s, obj = bundle.scenario, bundle.objective
        strategy = equilibrium.backward_sweep(s, obj, str(bundle.numerics["scheme"])).strategy
        idx = sorted(random.Random(seed).sample(range(s.grid_n), ORACLE_TIMES))
        t0 = time.perf_counter()
        slopes = np.array([
            verify.finite_eps_check(s, obj, strategy, float(s.times[i]), v, [s.dt])[0]
            for i in idx for v in ORACLE_V
        ])
        seconds = time.perf_counter() - t0

        def check() -> str | None:
            a, b = equilibrium.phi_profile(s, obj, strategy)
            v = np.tile(ORACLE_V, len(idx))
            i = np.repeat(idx, len(ORACLE_V))
            worst = float(np.max(np.abs(slopes - (a[i] * v + b[i] * v * v))))
            return None if worst <= ORACLE_TOL else f"max |slope - Phi| {worst:.3g}"

        return Outcome(seconds, hashlib.sha256(slopes.tobytes()).hexdigest(), check)

    return Job(f"oracle-{scenario}", "oracle_s", scenario, grid_n, execute)


def flow_family_job(scenario: str, grid_n: int, paths: int) -> Job:
    """Flow diagonal of the s-dependent family with terminal X_T + t_s and zero
    driver, on wealth paths under the mean-variance strategy. Its diagonal
    mean is E[X_T] + t_s and its Z gives the criterion-9 residual."""

    def execute(seed: int, out_dir: str) -> Outcome:
        bundle = scenario_io.parse_scenario(_scenario(scenario), grid_n=grid_n)
        s, obj = bundle.scenario, bundle.objective
        gamma2 = -obj.pure_weight(2) / obj.mean_weight()
        strategy = equilibrium.mv_closed_form(s, gamma2)
        fp = bsde.wealth_factor_paths(s, strategy, paths, seed)

        def family(k: int):
            t_k = float(s.times[k])
            return bsde.DriverSpec(
                driver=lambda t, state, y, z: 0.0,
                terminal=lambda fpaths, idx: fpaths.state[-1] + t_k,
            )

        t0 = time.perf_counter()
        diag = bsde.solve_flow_diagonal(family, fp)
        seconds = time.perf_counter() - t0

        def check() -> str | None:
            exact = moments.conditional_moments(s, strategy, 0.0, s.x0, 2)
            se = math.sqrt(exact.V / paths)
            dev = float(np.max(np.abs(diag.y_values - s.times - exact.m1)))
            if dev >= MC_SE_BOUND * se:
                return f"diagonal mean off E[X_T] + t_s by {dev:.3g} >= 4 se"
            n = s.grid_n
            res = s.theta[:n] - 2.0 * gamma2 * s.sigma[:n] * diag.z_values[:n]
            rms = float(np.sqrt(np.mean(res ** 2)))
            return None if rms <= FLOW_RMS_TOL else f"residual_rms {rms:.3g}"

        digest = hashlib.sha256(diag.y_paths.tobytes() + diag.z_values.tobytes()).hexdigest()
        return Outcome(seconds, digest, check)

    return Job(f"flow_family-{scenario}", "flow_family_s", scenario, grid_n, execute)


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # deterministic route: sweep, roots and the moment engine; no sampling, no bsde
    "grid_certify": (
        cli_job("solve", "raw_m4", 5_000),
        cli_job("verify", "mvsk", 5_000),
        cli_job("solve", "mv_discounted", 5_000),
        cli_job("homogeneity", "raw_m4", 5_000, expect=2),
        cli_job("homogeneity", "kurtosis_cumulant", 5_000),
        cli_job("moments", "mvsk", 500),
        oracle_job("mv_discounted", 500),
    ),
    # sampling and wealth simulation dominate; the sweep is negligible
    "mc_paths": (
        cli_job("mc", "mv_base", 250, paths=200_000),
        cli_job("mc", "mvsk", 250, paths=200_000),
    ),
    # the regression layer used three ways: s-independent flow, single solve,
    # s-dependent flow
    "flow_xval": (
        cli_job("bsde", "mv_base", 50, paths=30_000),
        cli_job("bsde", "ou_factor", 100, paths=40_000),
        flow_family_job("mv_base", 50, 40_000),
    ),
}
