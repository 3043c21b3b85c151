"""Workload process: run one workload's job list in a closed loop.

A single client runs the jobs back to back, in process, and starts the next
pass over the list only after the previous one ends. Passes repeat until
another would overrun ``--seconds``; at least two run, because every job's
output digest must match the first pass (acceptance criterion 8). With
``--trace 1`` passes alternate untraced and traced, starting untraced, and
the traced pass of median wall time gives the per-layer metrics.

Run from the repository root with the environment ``run.py`` sets:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T --out F
    python3 perfbench/worker.py --setup W    # import eqmo, parse W's scenarios
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

MIN_PASSES = 2
HERE = os.path.dirname(os.path.abspath(__file__))


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "cpu": platform.machine(),
        "nproc": os.cpu_count(),
        "EQMO_WORKERS": os.environ.get("EQMO_WORKERS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference_s() -> float:
    """Time of a fixed kernel outside eqmo that mixes interpreted loops, numpy
    arithmetic on path-sized arrays and normal sampling, the three kinds of
    work the workloads do. Runs after every job, outside the job windows."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0.0
    for i in range(50_000):
        total += i * 0.5
    x = np.linspace(0.0, 1.0, 40_000)
    for _ in range(100):
        x = np.sqrt(x * x + 1e-3)
    np.random.default_rng(0).standard_normal(200_000)
    return time.perf_counter() - t0


def _run_pass(jobs, seed: int, out_root: str, tracer) -> dict:
    """One pass over the job list. Job windows exclude the output checks,
    which run with the tracer off."""
    records = []
    wall = 0.0
    for j, job in enumerate(jobs):
        out_dir = os.path.join(out_root, job.name)
        if tracer is not None:
            tracer.job = j
            tracer.active = True
        t0 = time.perf_counter()
        try:
            outcome = job.execute(seed, out_dir)
            error = None
        except Exception:  # a failing job is counted, the loop goes on
            outcome, error = None, traceback.format_exc(limit=3)
        window = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        wall += window
        record = {"name": job.name, "metric": job.metric, "window_s": window,
                  "ref_s": reference_s()}
        if outcome is None:
            print(f"[{job.name}] raised:\n{error}", file=sys.stderr)
            record.update(seconds=window, failure="raised", digest=None, bytes=0, files=0)
        else:
            try:
                failure = outcome.check()
            except Exception:
                failure = "check raised: " + traceback.format_exc(limit=3)
            record.update(seconds=outcome.seconds, failure=failure, digest=outcome.digest,
                          bytes=sum(os.path.getsize(f) for f in outcome.files),
                          files=len(outcome.files))
        records.append(record)
    return {"wall_s": wall, "traced": tracer is not None, "jobs": records}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import Tracer, layer_metrics

    jobs = workloads.WORKLOADS[workload]
    out_root = os.path.join(HERE, "_out", workload)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    passes: list[dict] = []
    spans_by_pass: list[list] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.spans.clear()
        t0 = time.perf_counter()
        passes.append(_run_pass(jobs, seed, out_root, tracer if traced else None))
        spans_by_pass.append([list(s) for s in tracer.spans] if traced else [])
        took = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + took > seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    first = {r["name"]: r["digest"] for r in passes[0]["jobs"]}
    for p in passes[1:]:
        for r in p["jobs"]:
            if r["failure"] is None and r["digest"] != first[r["name"]]:
                r["failure"] = "output digest differs from the first pass"

    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    }
    if tracer is not None:
        traced = [i for i, p in enumerate(passes) if p["traced"]]
        plain = [p["wall_s"] for p in passes if not p["traced"]]
        walls = [passes[i]["wall_s"] for i in traced]
        pick = sorted(traced, key=lambda i: passes[i]["wall_s"])[(len(traced) - 1) // 2]
        chosen = passes[pick]
        layers = layer_metrics(spans_by_pass[pick], chosen["wall_s"],
                               sum(r["bytes"] for r in chosen["jobs"]),
                               sum(r["files"] for r in chosen["jobs"]))
        layers["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
        result["layers"] = layers
        _write_spans(os.path.join(out_root, "spans.csv"), chosen, spans_by_pass[pick])
    return result


def _write_spans(path: str, chosen: dict, spans) -> None:
    """The spans of the pass the per-layer metrics come from, one line each,
    written once the run has ended."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("job,name,start,end,parent,work\n")
        for name, t0, t1, parent, job, work in spans:
            fh.write(f"{chosen['jobs'][job]['name']},{name},{t0!r},{t1!r},{parent},"
                     f"{'' if work is None else work}\n")


def setup(workload: str) -> None:
    """What set-up costs: import eqmo and parse the workload's scenarios."""
    import workloads
    from eqmo import scenario_io

    for job in workloads.WORKLOADS[workload]:
        scenario_io.parse_scenario(os.path.join("scenarios", f"{job.scenario}.scn"),
                                   grid_n=job.grid_n)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--setup", metavar="WORKLOAD")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if args.setup:
        setup(args.setup)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
