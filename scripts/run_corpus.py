#!/usr/bin/env python3
"""Sweep every named corpus case and print solver + verification diagnostics.

Usage: python scripts/run_corpus.py [--scheme {explicit,implicit}]
"""
import argparse
import time

import numpy as np

from eqmo.corpus import named_corpus
from eqmo.equilibrium import SCHEMES, backward_sweep
from eqmo.errors import EqmoError, UnsupportedObjectiveClass
from eqmo.verify import equilibrium_report, homogeneity_check_numeric, \
    homogeneity_predicate


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scheme", choices=SCHEMES, default="implicit")
    args = ap.parse_args()

    header = (f"{'case':<20} {'u(0)':>10} {'u(T)':>10} {'max res':>9} "
              f"{'report':>7} {'homog':>6} {'pred':>5} {'ms':>6}")
    print(header)
    print("-" * len(header))
    for case in named_corpus():
        t0 = time.perf_counter()
        try:
            sweep = backward_sweep(case.scenario, case.objective, args.scheme)
        except EqmoError as exc:
            print(f"{case.name:<20} solver error: {type(exc).__name__}: {exc}")
            continue
        report = equilibrium_report(case.scenario, case.objective, sweep.strategy)
        try:
            hom = homogeneity_check_numeric(case.scenario, case.objective)
            pred = homogeneity_predicate(case.objective)
            hom_txt, pred_txt = ("holds" if hom.passed else "fails"), str(pred)
        except UnsupportedObjectiveClass:
            hom_txt, pred_txt = "n/a", "n/a"
        ms = (time.perf_counter() - t0) * 1e3
        u = sweep.strategy.values
        print(f"{case.name:<20} {u[0]:>10.6f} {u[-1]:>10.6f} "
              f"{np.max(sweep.residuals):>9.1e} {'pass' if report.passed else 'fail':>7} "
              f"{hom_txt:>6} {pred_txt:>5} {ms:>6.1f}")


if __name__ == "__main__":
    main()
