"""Outside-in tracer: spans around the calls into each eqmo module.

Every public function of a layer module is wrapped at every module binding
that holds it, because ``from .x import f`` copies the name: patching only
the defining module would miss the consumer's calls. ``real_roots`` is the
exception; it is wrapped only where ``eqmo.equilibrium`` binds it, so its own
recursion stays untraced and there is one span per sweep step.

A span is ``[name, start, end, parent, job, work]``. ``work`` is an exact
count derived from the call's arguments or result (rows solved, normals
drawn, grid steps walked), so a change of algorithmic order shows as a count
that repeats exactly between runs. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("scenario_io", "cli", "model", "equilibrium", "roots", "moments",
          "verify", "sampling", "bsde", "artifacts")
FLOAT_BYTES = 8


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# work counts, keyed by span name: f(args, kwargs, result) -> number or label
WORK = {
    "cli.run_command": lambda a, k, r: _arg(a, k, 0, "config").command,
    "equilibrium.backward_sweep": lambda a, k, r: _arg(a, k, 0, "scenario").grid_n + 1,
    "equilibrium.scan_phi_max":
        lambda a, k, r: (_arg(a, k, 0, "scenario").grid_n + 1) * len(_arg(a, k, 3, "v_grid")),
    "roots.real_roots": lambda a, k, r: len(r),
    "moments.moments_to_go": lambda a, k, r: _arg(a, k, 0, "scenario").grid_n,
    "model.rate_to_horizon": lambda a, k, r: _arg(a, k, 0, "scenario").grid_n,
    "verify.finite_eps_check": lambda a, k, r: 1 + len(_arg(a, k, 5, "eps_list")),
    "sampling.blocked_normals":
        lambda a, k, r: _arg(a, k, 1, "paths") * _arg(a, k, 2, "cols"),
    "bsde.solve_bsde":
        lambda a, k, r: _arg(a, k, 1, "fp").grid_n - _arg(a, k, 3, "start_index", 0),
    "bsde.solve_flow_diagonal": lambda a, k, r: _arg(a, k, 1, "fp").grid_n + 1,
}


class Tracer:
    """Span recorder; wrappers record only while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, f):
        work = WORK.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if not self.active:
                return f(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = f(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"eqmo.{layer}") for layer in LAYERS}
        by_module = {m.__name__: layer for layer, m in modules.items()}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ not in by_module):
                    continue
                name = f"{by_module[value.__module__]}.{value.__name__}"
                if name == "roots.real_roots" and layer != "equilibrium":
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted(children.get(idx, ())):
            c_lo, c_hi = max(c_lo, start), min(c_hi, end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall_s: float, artifact_bytes: int, artifact_files: int) -> dict:
    """Per-layer metrics of one traced pass whose job windows sum to ``wall_s``.

    The spans must index their parents within the same list. The ``*.self_s``
    values of the ten layers plus ``trace.unattributed_s`` sum to ``wall_s``.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    work: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    per_command: dict[str, float] = {}
    rooted = 0.0
    flow_rows = 0
    flow_ids = set()
    implicit: dict[int, tuple[float, int]] = {}  # sweeps that isolated roots
    for idx, (rec, s) in enumerate(zip(spans, selfs)):
        name, start, end, parent, _, w = rec
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
        layer_self[name.split(".", 1)[0]] += s
        if name == "cli.run_command":
            per_command[w] = per_command.get(w, 0.0) + (end - start)
        elif isinstance(w, int):
            work[name] = work.get(name, 0) + w
        if parent < 0:
            rooted += end - start
        if name == "bsde.solve_flow_diagonal":
            flow_ids.add(idx)
        elif name == "bsde.solve_bsde" and parent in flow_ids:
            flow_rows += w
        elif (name == "roots.real_roots" and parent not in implicit
              and spans[parent][0] == "equilibrium.backward_sweep"):
            sweep = spans[parent]
            implicit[parent] = (sweep[2] - sweep[1], sweep[5])

    def c(n):
        return calls.get(n, 0)

    def t(n):
        return total.get(n, 0.0)

    def o(n):
        return own.get(n, 0.0)

    def w(n):
        return work.get(n, 0)

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    steps = w("equilibrium.backward_sweep")
    normals = w("sampling.blocked_normals")
    rows = w("bsde.solve_bsde")
    m.update({
        "equilibrium.sweep_calls": c("equilibrium.backward_sweep"),
        "equilibrium.sweep_steps": steps,
        "equilibrium.sweep_self_s": o("equilibrium.backward_sweep"),
        "equilibrium.us_per_step": 1e6 * _ratio(sum(d for d, _ in implicit.values()),
                                                sum(n for _, n in implicit.values())),
        "roots.calls": c("roots.real_roots"),
        "roots.s": t("roots.real_roots"),
        "roots.candidates_per_call": _ratio(w("roots.real_roots"), c("roots.real_roots")),
        "equilibrium.phi_scan_s": t("equilibrium.scan_phi_max"),
        "equilibrium.phi_points": w("equilibrium.scan_phi_max"),
        "verify.report_s": t("verify.equilibrium_report"),
        "moments.to_go_calls": c("moments.moments_to_go"),
        "moments.to_go_steps": w("moments.moments_to_go"),
        "moments.to_go_s": t("moments.moments_to_go"),
        "model.rate_to_horizon_calls": c("model.rate_to_horizon"),
        "model.rate_to_horizon_steps": w("model.rate_to_horizon"),
        "model.rate_to_horizon_s": t("model.rate_to_horizon"),
        "moments.conditional_calls": c("moments.conditional_moments"),
        "moments.conditional_self_s": o("moments.conditional_moments"),
        "verify.oracle_s": t("verify.finite_eps_check"),
        "verify.oracle_self_s": o("verify.finite_eps_check"),
        "verify.oracle_evals": w("verify.finite_eps_check"),
        "sampling.normals_calls": c("sampling.blocked_normals"),
        "sampling.normals_count": normals,
        "sampling.normals_bytes_computed": FLOAT_BYTES * normals,
        "sampling.normals_s": t("sampling.blocked_normals"),
        "sampling.normals_per_s": _ratio(normals, t("sampling.blocked_normals")),
        "moments.simulate_s": o("moments.simulate_terminal_wealth")
                              + o("moments.simulate_wealth_paths"),
        "moments.mc_stats_s": o("moments.mc_conditional_moments"),
        "bsde.solve_calls": c("bsde.solve_bsde"),
        "bsde.rows_solved": rows,
        "bsde.solve_self_s": o("bsde.solve_bsde"),
        "bsde.rows_per_s": _ratio(rows, o("bsde.solve_bsde")),
        "bsde.flow_s": t("bsde.solve_flow_diagonal"),
        "bsde.diagonal_efficiency": _ratio(w("bsde.solve_flow_diagonal"), flow_rows),
        "bsde.factor_sim_s": t("bsde.simulate_factors") + t("bsde.wealth_factor_paths"),
        "artifacts.emit_s": t("artifacts.emit_outputs"),
        "artifacts.bytes": artifact_bytes,
        "artifacts.files": artifact_files,
        "scenario_io.parse_s": t("scenario_io.parse_scenario"),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - rooted,
        "trace.spans": len(spans),
    })
    for command in ("solve", "verify", "moments", "homogeneity", "mc", "bsde"):
        m[f"cli.{command}_s"] = per_command.get(command, 0.0)
    return m
