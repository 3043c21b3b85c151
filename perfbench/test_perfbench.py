"""Tests of the benchmark itself: span arithmetic, the correctness gate and
the metric names it prints.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, work=None):
    return [name, start, end, parent, 0, work]


# root [0, 10] with children [1, 4] and [5, 9]; [2, 3] nests in the first child
TREE = [
    _span("cli.run_command", 0.0, 10.0, -1, "solve"),
    _span("equilibrium.backward_sweep", 1.0, 4.0, 0, 3),
    _span("roots.real_roots", 2.0, 3.0, 1, 1),
    _span("artifacts.emit_outputs", 5.0, 9.0, 0),
]


def test_self_time_subtracts_child_cover():
    assert tracer.self_times(TREE) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a.x", 0.0, 10.0, -1), _span("a.y", 1.0, 5.0, 0),
             _span("a.z", 3.0, 7.0, 0)]
    assert tracer.self_times(spans)[0] == 4.0


def test_layer_self_times_and_unattributed_sum_to_wall():
    m = tracer.layer_metrics(TREE, 12.5, 0, 0)
    assert m["cli.self_s"] == 3.0 and m["roots.self_s"] == 1.0
    assert m["trace.unattributed_s"] == 2.5
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + m["trace.unattributed_s"] == 12.5
    assert m["cli.solve_s"] == 10.0
    assert m["equilibrium.us_per_step"] == 1e6


@pytest.fixture
def in_root(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    return str(tmp_path)


def test_negative_control_counts_as_failure(in_root):
    good = workloads.cli_job("verify", "mvsk", 100)
    scaled = workloads.cli_job("verify", "mvsk", 100, u_scale=1.5)
    result = worker._run_pass((good, scaled), 1, in_root, None)
    failures = [r["failure"] for r in result["jobs"]]
    assert failures[0] is None
    assert failures[1] == "exit 2, expected 0"
    samples = run.end_to_end_samples({"passes": [result], "peak_rss_mb": 1.0}, [0.1])
    assert samples["failed_share"] == ([0.5], 0.5)


def test_traced_counts_are_exact_and_tracer_uninstalls(in_root):
    import eqmo.equilibrium
    import eqmo.roots

    t = tracer.Tracer()
    t.install()
    try:
        assert eqmo.equilibrium.real_roots is not eqmo.roots.real_roots
        job = workloads.cli_job("solve", "raw_m4", 50)
        t.active = True
        t0 = time.perf_counter()
        outcome = job.execute(1, in_root)
        window = time.perf_counter() - t0
        t.active = False
    finally:
        t.uninstall()
    assert eqmo.equilibrium.real_roots is eqmo.roots.real_roots
    assert outcome.check() is None
    m = tracer.layer_metrics(t.spans, window, 0, 0)
    assert m["equilibrium.sweep_calls"] == 1
    assert m["equilibrium.sweep_steps"] == 51
    assert m["roots.calls"] == 50  # one per implicit step, recursion untraced
    # the sweep, then conditional_moments at t = 0 and its moments_to_go
    assert m["moments.to_go_calls"] == 1
    assert m["model.rate_to_horizon_steps"] == 3 * 50
    assert m["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-3)


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {name: run.unit_of(name) for name in run.END_TO_END}
    layers = tracer.layer_metrics([], 1.0, 0, 0)
    printed = {name: run.unit_of(name) for name in [*layers, "trace.overhead_s"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
