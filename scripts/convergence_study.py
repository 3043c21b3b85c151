#!/usr/bin/env python3
"""Grid-refinement error study for the regression BSDE solver.

Prints the rows of ``eqmo.bsde.convergence_study``: terminal W_T^2 with zero
driver, whose closed form Y_t = W_t^2 + (T - t), Z_t = 2 W_t a degree-3
basis reproduces exactly, so all remaining error is regression sampling
noise. Reports mean-square Y (and Z) errors with replication standard errors.

Usage: python scripts/convergence_study.py [--paths 20000] [--reps 8] [--seed 1]
"""
import argparse

from eqmo.bsde import convergence_study


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=20_000)
    ap.add_argument("--reps", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--grids", type=int, nargs="+", default=[25, 50, 100])
    args = ap.parse_args()

    print(f"{'grid_n':>6} {'Y mse':>12} {'+-':>10} {'Z mse':>12} {'Y0 bias':>10}")
    for row in convergence_study(args.paths, args.reps, args.seed, args.grids):
        print(f"{row.grid_n:>6} {row.y_mse:>12.4e} {row.y_mse_se:>10.1e} "
              f"{row.z_mse:>12.4e} {row.y0_bias:>10.2e}")


if __name__ == "__main__":
    main()
