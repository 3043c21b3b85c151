"""Release acceptance suite: one check per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance below is pinned; loosening one is a release decision,
not a test fix.
"""
import math
import os
import subprocess
import sys
import time

import numpy as np

from eqmo.bsde import (
    DriverSpec,
    FactorModel,
    brownian_factor,
    convergence_study,
    mv_flow_residual,
    simulate_factors,
    solve_bsde,
    solve_recurrent_system,
)
from eqmo.corpus import (
    kurtosis_cumulant,
    mv_base,
    mv_discounted,
    named_corpus,
    random_affine_corpus,
    raw_m4,
)
from eqmo.equilibrium import backward_sweep, mv_closed_form, phi_profile
from eqmo.moments import conditional_moments, mc_conditional_moments
from eqmo.verify import (
    equilibrium_report,
    finite_eps_check,
    homogeneity_check_numeric,
    homogeneity_predicate,
)

SEED = 42


def _check(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_mean_variance_reproduction():
    t0 = time.perf_counter()
    case = mv_base(grid_n=100)
    sweep = backward_sweep(case.scenario, case.objective, "explicit")
    closed = mv_closed_form(case.scenario, 1.0)
    dev_closed = float(np.max(np.abs(sweep.strategy.values - closed.values)))
    dev_const = float(np.max(np.abs(sweep.strategy.values - 3.75)))
    report = equilibrium_report(case.scenario, case.objective, sweep.strategy,
                                tolerance=1e-12)
    elapsed = time.perf_counter() - t0
    ok = (dev_closed <= 1e-12 and dev_const <= 1e-12 and report.passed
          and abs(report.max_phi) <= 1e-12 and elapsed < 1.0)
    _check(1, "mean-variance sweep matches closed form and verifies", ok,
           f"max|u-3.75|={dev_const:.2e}, max_phi={report.max_phi:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_2_discounted_mean_variance():
    case = mv_discounted(grid_n=100)
    sweep = backward_sweep(case.scenario, case.objective, "explicit")
    s = case.scenario
    expected = 3.75 * np.exp(-0.05 * (1.0 - s.times))
    dev = float(np.max(np.abs(sweep.strategy.values - expected)))
    _check(2, "discounted strategy matches 3.75 exp(-0.05 (1 - t))",
           dev <= 1e-10, f"max dev={dev:.2e}")


def test_criterion_3_cumulant_kurtosis_collapses_to_mean_variance():
    mv = mv_base(grid_n=100)
    kurt = kurtosis_cumulant(grid_n=100)
    sweep_mv = backward_sweep(mv.scenario, mv.objective, "explicit")
    sweep_k = backward_sweep(kurt.scenario, kurt.objective, "explicit")
    bitwise = (
        np.array_equal(sweep_mv.strategy.values, sweep_k.strategy.values)
        and np.array_equal(sweep_mv.variance_to_go, sweep_k.variance_to_go)
        and np.array_equal(sweep_mv.D, sweep_k.D)
    )
    numeric = homogeneity_check_numeric(kurt.scenario, kurt.objective)
    predicate = homogeneity_predicate(kurt.objective)
    ok = bitwise and numeric.passed and predicate
    _check(3, "cumulant kurtosis run is bitwise the mean-variance run and "
              "reduction holds", ok,
           f"bitwise={bitwise}, numeric={numeric.passed}, predicate={predicate}")


def test_criterion_4_raw_fourth_moment():
    t0 = time.perf_counter()
    case = raw_m4(grid_n=200)
    sweep = backward_sweep(case.scenario, case.objective, "implicit")
    u = sweep.strategy.values
    V = sweep.variance_to_go
    identity = float(np.max(np.abs(u * (1.0 + 3.0 * V) - 3.75)))
    terminal = abs(float(u[-1]) - 3.75)
    d_ok = bool(np.all(sweep.D <= 0.0))
    report = equilibrium_report(case.scenario, case.objective, sweep.strategy,
                                tolerance=1e-8)
    numeric = homogeneity_check_numeric(case.scenario, case.objective)
    witness_ok = (not numeric.passed and numeric.witness is not None
                  and numeric.witness[2] > 0.0)
    elapsed = time.perf_counter() - t0
    ok = (identity <= 1e-8 and terminal <= 1e-12 and d_ok and report.passed
          and witness_ok and elapsed < 5.0)
    _check(4, "quartic penalty solves u (1 + 3V) = 3.75 and is a "
              "non-reducible equilibrium", ok,
           f"identity={identity:.2e}, u(T)-3.75={terminal:.1e}, D<=0={d_ok}, "
           f"report passed={report.passed}, witness_phi="
           f"{numeric.witness[2] if numeric.witness else float('nan'):.3f}, "
           f"{elapsed:.2f}s")


def test_criterion_5_scaling_necessity():
    flips = []
    for case in named_corpus():
        if np.all(case.scenario.theta == 0.0):
            continue
        sweep = backward_sweep(case.scenario, case.objective, "implicit")
        base = equilibrium_report(case.scenario, case.objective, sweep.strategy)
        scaled = equilibrium_report(case.scenario, case.objective,
                                    sweep.strategy.scaled(1.1))
        flips.append((case.name, base.passed, not scaled.passed))
    ok = len(flips) >= 7 and all(b and f for _, b, f in flips)
    bad = [name for name, b, f in flips if not (b and f)]
    _check(5, "scaling any passing strategy by 1.1 flips verification to fail",
           ok, f"{len(flips)} scenarios" + (f", offenders: {bad}" if bad else ""))


def test_criterion_6_oracle_agreement():
    t0 = time.perf_counter()
    cases = random_affine_corpus(count=10)
    assert len(cases) == 10
    worst_slope = 0.0
    for case in cases:
        s = case.scenario
        sweep = backward_sweep(s, case.objective, "implicit")
        dt = s.dt
        a, b = phi_profile(s, case.objective, sweep.strategy)
        for i in (0, s.grid_n // 2):
            t = float(s.times[i])
            for v in (-0.5, 0.25, 1.0):
                slope = finite_eps_check(s, case.objective, sweep.strategy,
                                         t, v, [dt])[0]
                worst_slope = max(worst_slope, abs(slope - (b[i] * v + a[i]) * v))
    slopes_ok = worst_slope <= 1e-10

    worst_z = 0.0
    for case in cases:
        s = case.scenario
        sweep = backward_sweep(s, case.objective, "implicit")
        analytic = conditional_moments(s, sweep.strategy, 0.0, s.x0, 6)
        est = mc_conditional_moments(s, sweep.strategy, 0.0, s.x0, 6,
                                     100_000, SEED)
        exact = [analytic.m1] + list(analytic.central)
        sampled = [est.moments.m1] + list(est.moments.central)
        for a, b, se in zip(exact, sampled, est.standard_errors):
            if se > 0.0:
                worst_z = max(worst_z, abs(b - a) / se)
    mc_ok = worst_z <= 4.0
    elapsed = time.perf_counter() - t0
    ok = slopes_ok and mc_ok and elapsed < 60.0
    _check(6, "finite-window slopes match the gain quadratic and Monte Carlo "
              "matches analytic moments", ok,
           f"max slope dev={worst_slope:.2e}, max|z|={worst_z:.2f}, "
           f"{elapsed:.1f}s")


def test_criterion_7_bsde_manufactured_solutions():
    t0 = time.perf_counter()
    sq = DriverSpec(driver=lambda t, s, y, z: 0.0,
                    terminal=lambda fp, s: fp.state[-1] ** 2)

    fp = simulate_factors(brownian_factor(), 1.0, 50, 100_000, SEED)
    y0_err = abs(solve_bsde(sq, fp).y0_mean - 1.0)
    y0_ok = y0_err <= 0.02

    stats = [(row.y_mse, row.y_mse_se)
             for row in convergence_study(50_000, 4, SEED)]
    mono_ok = all(
        m2 <= m1 + 2.0 * math.hypot(s1, s2)
        for (m1, s1), (m2, s2) in zip(stats, stats[1:])
    )

    frozen = FactorModel(kappa=1.0, theta_bar=0.0, eta=0.0, theta0=0.0)
    fp_lin = simulate_factors(frozen, 1.0, 100, 1000, SEED)
    lin = DriverSpec(driver=lambda t, s, y, z: 0.05 * y,
                     terminal=lambda f, s: np.ones(f.paths))
    lin_err = abs(solve_bsde(lin, fp_lin).y0_mean - math.exp(0.05))
    lin_ok = lin_err <= 5e-3

    s1 = DriverSpec(driver=lambda t, st, y, z: 0.0,
                    terminal=lambda f, s: np.ones(f.paths))
    s2 = DriverSpec(driver=lambda t, st, y, z, deps: deps[0][0],
                    terminal=lambda f, s: np.zeros(f.paths), depends_on=(0,))
    chain = solve_recurrent_system([s1, s2], fp_lin)
    chain_err = abs(chain[1].y0_mean - 1.0)
    chain_ok = chain_err <= 1e-2

    elapsed = time.perf_counter() - t0
    ok = y0_ok and mono_ok and lin_ok and chain_ok and elapsed < 120.0
    _check(7, "manufactured backward solutions hit their closed forms", ok,
           f"|Y0-T|={y0_err:.4f}, mse trend ok={mono_ok}, "
           f"|Y0-e^0.05|={lin_err:.1e}, |Y2_0-T|={chain_err:.1e}, "
           f"{elapsed:.1f}s")


def _cli_tree(out_dir: str, env_extra: dict) -> dict:
    scn = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                       "mv_base.scn")
    env = dict(os.environ, **env_extra)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from eqmo.cli import main; sys.exit(main())",
         "--command", "mc", "--scenario", scn, "--out", out_dir,
         "--paths", "6000", "--grid-n", "20"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    tree = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            tree[name] = fh.read()
    return tree


def test_criterion_8_deterministic_artifacts(tmp_path):
    trees = [
        _cli_tree(str(tmp_path / "rerun_a"), {}),
        _cli_tree(str(tmp_path / "rerun_b"), {}),
        _cli_tree(str(tmp_path / "w1"), {"EQMO_WORKERS": "1"}),
        _cli_tree(str(tmp_path / "w3"), {"EQMO_WORKERS": "3"}),
        _cli_tree(str(tmp_path / "w7"), {"EQMO_WORKERS": "7"}),
    ]
    ok = all(t == trees[0] for t in trees[1:])
    _check(8, "identical config and seed give byte-identical artifacts across "
              "reruns and worker counts", ok,
           f"{len(trees)} runs, {len(trees[0])} files each")


def test_criterion_9_flow_diagonal_cross_validation():
    t0 = time.perf_counter()
    case = mv_base(grid_n=50)
    diag = mv_flow_residual(case.scenario, 1.0, paths=100_000, seed=SEED,
                            strategy=mv_closed_form(case.scenario, 1.0))
    elapsed = time.perf_counter() - t0
    ok = diag.residual_rms <= 5e-3
    _check(9, "flow-diagonal equilibrium residual is small on the closed-form "
              "strategy", ok,
           f"rms={diag.residual_rms:.2e} (max={diag.residual_max:.2e}), "
           f"{elapsed:.1f}s")
