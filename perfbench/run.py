"""Benchmark of eqmo's three routes; see perfbench/README.md.

    python3 perfbench/run.py --workload grid_certify --seed 1 --seconds 30 --trace 0

Run from the repository root. It times set-up (fresh interpreters that import
eqmo and parse the workload's scenarios), then runs the workload in one child
process for about ``--seconds``, checks every job's outputs, prints a table of
the end-to-end metrics (and with ``--trace 1`` of the per-layer metrics) and,
as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The child gets a scrubbed environment: no EQMO_SEED, EQMO_WORKERS=1,
OPENBLAS_NUM_THREADS=1 (the single-threaded baseline) and PYTHONPATH=src, so
the program runs from the source tree without being installed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid_certify", "mc_paths", "flow_xval")
SETUP_PROBES = 9
DEADLINE_S = 170.0
COMMAND_METRICS = ("solve_s", "verify_s", "moments_s", "homogeneity_s", "oracle_s",
                   "mc_s", "bsde_s", "flow_family_s")
END_TO_END = ("setup_s", "wall_ref", "peak_rss_mb")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("EQMO_SEED", "EQMO_WORKERS")}
    env.update(EQMO_WORKERS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (label, value), or None below eleven samples."""
    m = len(values) - 10
    if m < 1:
        return None
    return f"p{100 * m // len(values)}", sorted(values)[m - 1]


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("_share", "_efficiency", "_per_call")):
        return "ratio"
    return "count"


def end_to_end_samples(result: dict, setup_samples: list[float]) -> dict:
    """Every end-to-end metric as (samples, best), from the untraced passes.

    A pass's samples are its summed job times; ``best`` sums each job's
    fastest time over the passes. A command metric is None on a workload
    that never runs that command.
    """
    plain = [p["jobs"] for p in result["passes"] if not p["traced"]]

    def timing(metric, key):
        picked = [i for i, r in enumerate(plain[0]) if metric in (None, r["metric"])]
        if not picked:
            return None
        samples = [sum(jobs[i][key] for i in picked) for jobs in plain]
        return samples, sum(min(jobs[i][key] for jobs in plain) for i in picked)

    out = {"setup_s": (setup_samples, min(setup_samples)),
           "wall_s": timing(None, "window_s")}
    refs = [r["ref_s"] for jobs in plain for r in jobs]
    out["wall_ref"] = ([w / min(refs) for w in out["wall_s"][0]], out["wall_s"][1] / min(refs))
    for metric in COMMAND_METRICS:
        out[metric] = timing(metric, "seconds")
    out["peak_rss_mb"] = ([result["peak_rss_mb"]], result["peak_rss_mb"])
    jobs = [r for p in result["passes"] for r in p["jobs"]]
    share = sum(r["failure"] is not None for r in jobs) / len(jobs)
    out["failed_share"] = ([share], share)
    return out


def print_tables(result: dict, samples: dict) -> None:
    passes = result["passes"]
    jobs = sum(len(p["jobs"]) for p in passes)
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {len(passes)}  jobs {jobs}")
    print(f"{'metric':<16}{'unit':<7}{'best':>12}{'median':>12}{'tail':>20}{'n':>5}")
    for name, entry in samples.items():
        if entry is None:
            print(f"{name:<16}{unit_of(name):<7}{'absent':>12}{'-':>12}{'-':>20}{0:>5}")
            continue
        values, best = entry
        t = tail(values)
        t_text = "none (n < 11)" if t is None else f"{t[0]} {t[1]:.6g}"
        print(f"{name:<16}{unit_of(name):<7}{best:>12.6g}{statistics.median(values):>12.6g}"
              f"{t_text:>20}{len(values):>5}")
    for name, value in result.get("layers", {}).items():
        print(f"{name:<36}{unit_of(name):<7}{value:>16.6g}")
    env = result["environment"]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="eqmo benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    start = time.perf_counter()
    if not (os.path.isfile(os.path.join(ROOT, "src", "eqmo", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "scenarios"))):
        print(f"no eqmo source tree (src/eqmo, scenarios) under {ROOT}", file=sys.stderr)
        return 2
    env = child_env()
    worker = os.path.join(HERE, "worker.py")

    def child(extra: list[str], timeout: float) -> None:
        # a blocking wait, killed by a timer: Popen.wait(timeout) polls in
        # sleeps of up to 50 ms, which would quantize the set-up times
        proc = subprocess.Popen([sys.executable, worker, *extra], cwd=ROOT, env=env,
                                stdout=sys.stderr)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)

    setup_samples = []
    try:
        child(["--setup", args.workload], 60.0)  # untimed: fills bytecode caches
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            child(["--setup", args.workload], 60.0)
            setup_samples.append(time.perf_counter() - t0)
        out_dir = os.path.join(HERE, "_out")
        os.makedirs(out_dir, exist_ok=True)
        out = os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json")
        if os.path.exists(out):
            os.remove(out)
        child(["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
              DEADLINE_S - (time.perf_counter() - start))
    except subprocess.CalledProcessError as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)

    samples = end_to_end_samples(result, setup_samples)
    print_tables(result, samples)
    jobs = [r for p in result["passes"] for r in p["jobs"]]
    for r in jobs:
        if r["failure"] is not None:
            print(f"FAILED {r['name']}: {r['failure']}", file=sys.stderr)
    failed = sum(r["failure"] is not None for r in jobs)
    if args.trace:
        values = result["layers"]
    else:
        # set-up reports the median of its probes, the others their best
        values = {name: statistics.median(samples[name][0]) if name == "setup_s"
                  else samples[name][1] for name in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
