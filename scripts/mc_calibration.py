#!/usr/bin/env python3
"""Calibrate the `mc` gate: how often does correct code exit 2?

Runs `eqmo --command mc` in process on one scenario for the seeds
FIRST_SEED, FIRST_SEED + 1, ... and counts the runs whose max |z| exceeds
the gate (exit code 2). Under the null each of the six z-scores (m1,
m2..m6) is about standard normal, so a seed fires with probability at most
6 P(|Z| > 4) = 6 x 6.3e-5. The count must stay within the binomial bound
at that rate: the smallest c with P(Binomial(seeds, rate) > c) <= ALPHA.
Prints one JSON record, which names the bit generator and numpy version
that drew its normals, and exits 1 when the count exceeds the bound or a
run fails.

Usage: python scripts/mc_calibration.py --scenario scenarios/mv_base.scn
           [--seeds 1000] [--paths N]
"""
import argparse
import json
import math
import os
import tempfile

import numpy as np

from eqmo.cli import Z_THRESHOLD, main as eqmo_main
from eqmo.sampling import block_generator

ALPHA = 1e-3  # chance that correct code exceeds the bound
FIRST_SEED = 1000


def nominal_rate(order: int) -> float:
    """Union bound on the chance that one seed fires when mc compares m1 and
    m2..m_order: order P(|Z| > gate)."""
    return order * math.erfc(Z_THRESHOLD / math.sqrt(2.0))


def binomial_bound(trials: int, rate: float) -> int:
    """Smallest c with P(Binomial(trials, rate) > c) <= ALPHA."""
    cdf, c = 0.0, -1
    while 1.0 - cdf > ALPHA:
        c += 1
        cdf += math.comb(trials, c) * rate ** c * (1.0 - rate) ** (trials - c)
    return c


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--seeds", type=int, default=1000, help="number of seeds")
    ap.add_argument("--paths", type=int, default=None,
                    help="default: the scenario's [numerics] paths")
    args = ap.parse_args()

    fired, failed, worst, paths, order = {}, [], 0.0, args.paths, 0
    extra = [] if args.paths is None else ["--paths", str(args.paths)]
    with tempfile.TemporaryDirectory() as out:
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            code = eqmo_main(["--command", "mc", "--scenario", args.scenario,
                              "--out", out, "--seed", str(seed)] + extra)
            if code == 1:
                failed.append(seed)
                continue
            with open(os.path.join(out, "mc_summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            z, paths, order = summary["max_abs_z"], summary["paths"], summary["order"]
            worst = max(worst, z)
            if code == 2:
                fired[seed] = z
    rate = nominal_rate(order)
    bound = binomial_bound(args.seeds, rate)
    record = {
        "scenario": os.path.basename(args.scenario),
        "paths": paths,
        "seeds": [FIRST_SEED, FIRST_SEED + args.seeds - 1],
        "z_threshold": Z_THRESHOLD,
        "fired": len(fired),
        "bound": bound,
        "nominal_rate": rate,
        "alpha": ALPHA,
        "max_abs_z": worst,
        "fired_seeds": fired,
        "failed_seeds": failed,
        "within_bound": len(fired) <= bound and not failed,
        "bit_generator": type(block_generator(FIRST_SEED, 0).bit_generator).__name__,
        "numpy": np.__version__,
    }
    print(json.dumps(record, indent=2))
    return 0 if record["within_bound"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
