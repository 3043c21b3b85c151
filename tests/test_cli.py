"""Command-line front end: exit codes, artifacts, determinism, seed rules."""
import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from eqmo import cli, errors
from eqmo.bsde import FactorPaths
from eqmo.cli import DEFAULT_SEED, RunConfig, main, run_command
from eqmo.errors import ValidationError
from eqmo.scenario_io import parse_scenario

SCN = os.path.join(os.path.dirname(__file__), "..", "scenarios")
MV = os.path.join(SCN, "mv_base.scn")
RAW_M4 = os.path.join(SCN, "raw_m4.scn")
OU = os.path.join(SCN, "ou_factor.scn")

MINIMAL = """\
[market]
theta = 0.3
sigma = 0.2

[objective]
term = 1:1 -> 1.0
term = 2:1 -> -1.0

[numerics]
grid_n = 20
paths = 4000
"""


# (scenario, line, replacement, commands): values whose moments, growth
# factors, Phi, Monte Carlo estimates or factor paths overflow the float
# range under those commands (solve, homogeneity and bsde do not read
# u_scale), and a frozen factor that sets fields it would never read
HOSTILE = {
    "theta_1e300": (MV, "theta = 0.3\n", "theta = 1e300\n", cli.COMMANDS),
    "u_scale_1e200": (RAW_M4, "scheme = implicit\n", "scheme = implicit\nu_scale = 1e200\n",
                      ("verify", "moments", "mc")),
    "r_1e3": (MV, "r = 0\n", "r = 1e3\n", ("solve", "verify", "moments", "mc", "bsde")),
    "r_-1e3": (MV, "r = 0\n", "r = -1e3\n", ("homogeneity", "bsde")),
    "u_scale_1e100": (RAW_M4, "scheme = implicit\n", "scheme = implicit\nu_scale = 1e100\n",
                      ("verify",)),
    "u_scale_1e50": (MV, "scheme = explicit\n", "scheme = explicit\nu_scale = 1e50\n",
                     ("mc",)),
    "theta_1e100": (MV, "theta = 0.3\n", "theta = 1e100\n", ("bsde",)),
    "theta_1e150": (RAW_M4, "theta = 0.3\n", "theta = 1e150\n", ("bsde",)),
    "sigma_1e160": (MV, "sigma = 0.2\n", "sigma = 1e160\n", ("homogeneity", "bsde")),
    "kappa_-1e3": (OU, "kappa = 1.0\n", "kappa = -1e3\n", ("bsde",)),
    "kind_none_with_ou_params": (OU, "kind = ou\n", "kind = none\n", cli.COMMANDS),
    "kind_none_with_theta0": (MV, "scheme = explicit\n",
                              "scheme = explicit\n\n[factor]\nkind = none\ntheta0 = 0.37\n",
                              cli.COMMANDS),
}


def run(command, scenario, out, *extra):
    return main(["--command", command, "--scenario", scenario,
                 "--out", str(out), *extra])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def scn_file(tmp_path, text, name="case.scn"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestSolve:
    def test_mv_strategy_column(self, tmp_path):
        out = tmp_path / "solve"
        assert run("solve", MV, out) == 0
        header, rows = read_csv(out / "strategy.csv")
        assert header == ["t", "u", "V", "D", "residual"]
        assert len(rows) == 101
        u = [float(r[1]) for r in rows]
        assert max(abs(v - 3.75) for v in u) < 1e-12
        res = [float(r[4]) for r in rows]
        assert max(res) < 1e-12

    def test_solve_summary(self, tmp_path):
        out = tmp_path / "solve"
        run("solve", MV, out)
        summary = read_json(out / "solve_summary.json")
        assert summary["seed"] == DEFAULT_SEED
        assert summary["scheme"] == "explicit"
        assert summary["grid_n"] == 100
        assert summary["u_first"] == pytest.approx(3.75, abs=1e-12)
        assert summary["max_residual"] < 1e-12

    def test_summary_grid_n_is_the_solved_grid(self, tmp_path):
        # a config grid that is not the scenario's is refused before any
        # artifact is written; on a matching config the summary reports it
        def config(grid_n, out):
            return RunConfig(command="solve", scenario_path=MV, out_dir=str(tmp_path / out),
                             seed=DEFAULT_SEED, grid_n=grid_n, paths=1000, format="json",
                             scheme="explicit")

        with pytest.raises(ValidationError, match="grid_n 7 differs from the scenario's 100"):
            run_command(config(7, "mismatch"), parse_scenario(MV))
        assert not (tmp_path / "mismatch").exists()
        assert run_command(config(7, "s"), parse_scenario(MV, grid_n=7))[0] == 0
        assert read_json(tmp_path / "s" / "solve_summary.json")["grid_n"] == 7
        assert len(read_json(tmp_path / "s" / "strategy.json")) == 8

    def test_u_scale_leaves_the_sweep_alone(self, tmp_path):
        # u_scale rescales the strategy that verify, moments and mc read;
        # solve writes the sweep, so every byte is that of u_scale = 1.0
        with open(MV) as fh:
            text = fh.read()
        scaled = scn_file(tmp_path, text.replace("scheme = explicit\n",
                                                 "scheme = explicit\nu_scale = 1.1\n"))
        assert run("solve", MV, tmp_path / "base", "--grid-n", "4") == 0
        assert run("solve", scaled, tmp_path / "scaled", "--grid-n", "4") == 0
        names = sorted(os.listdir(tmp_path / "base"))
        assert sorted(os.listdir(tmp_path / "scaled")) == names
        for name in names:
            assert (tmp_path / "scaled" / name).read_bytes() == \
                (tmp_path / "base" / name).read_bytes(), name

    def test_grid_n_flag_changes_row_count(self, tmp_path):
        out = tmp_path / "g"
        assert run("solve", MV, out, "--grid-n", "17") == 0
        _, rows = read_csv(out / "strategy.csv")
        assert len(rows) == 18

    def test_format_json(self, tmp_path):
        out = tmp_path / "j"
        assert run("solve", MV, out, "--format", "json") == 0
        assert not (out / "strategy.csv").exists()
        rows = read_json(out / "strategy.json")
        assert isinstance(rows, list) and len(rows) == 101
        assert rows[0]["u"] == pytest.approx(3.75, abs=1e-12)


class TestExitCodes:
    def test_verify_pass_is_zero(self, tmp_path):
        out = tmp_path / "v"
        assert run("verify", MV, out) == 0
        report = read_json(out / "report.json")
        assert report["verdict"] == "pass"
        assert report["max_phi"] == 0.0
        assert report["witness"] is None
        assert report["convention"] == "additive-spike"

    def test_verify_scaled_strategy_is_two(self, tmp_path):
        scaled = scn_file(tmp_path, MINIMAL + "u_scale = 1.1\n")
        out = tmp_path / "vs"
        assert run("verify", scaled, out) == 2
        report = read_json(out / "report.json")
        assert report["verdict"] == "fail"
        assert report["witness"]["phi"] > 0.0
        assert report["u_scale"] == 1.1

    def test_parse_error_is_one_with_diagnostic(self, tmp_path, capsys):
        bad = scn_file(tmp_path, MINIMAL.replace("sigma", "sigma_typo"))
        assert run("solve", bad, tmp_path / "p") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["line"] == 3
        assert "sigma_typo" in err["message"]

    def test_missing_file_is_one(self, tmp_path, capsys):
        assert run("solve", str(tmp_path / "nope.scn"), tmp_path / "o") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OSError"

    def test_usage_error_is_systemexit_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["--command", "fly", "--scenario", MV, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_homogeneity_exit_codes(self, tmp_path):
        assert run("homogeneity", MV, tmp_path / "h0") == 0
        assert run("homogeneity", RAW_M4, tmp_path / "h2") == 2
        ok = read_json(tmp_path / "h0" / "homogeneity.json")
        assert ok["numeric_holds"] and ok["predicate_holds"] and ok["agree"]
        bad = read_json(tmp_path / "h2" / "homogeneity.json")
        assert not bad["numeric_holds"] and not bad["predicate_holds"]
        assert bad["agree"] is True
        assert bad["witness"]["phi"] > 0.0

    def test_mc_small_run_passes(self, tmp_path):
        out = tmp_path / "mc"
        assert run("mc", MV, out, "--paths", "20000") == 0
        summary = read_json(out / "mc_summary.json")
        assert summary["max_abs_z"] <= 4.0
        header, rows = read_csv(out / "mc_check.csv")
        assert header == ["moment", "analytic", "estimate", "se", "z"]
        assert [r[0] for r in rows] == ["m1", "m2", "m3", "m4", "m5", "m6"]


class TestMoments:
    def test_row_per_grid_time(self, tmp_path):
        scn = scn_file(tmp_path, MINIMAL)
        out = tmp_path / "m"
        assert run("moments", scn, out) == 0
        header, rows = read_csv(out / "moments.csv")
        assert len(rows) == 21
        assert header[:4] == ["t", "u", "m1", "V"]
        assert "m4" in header and "k4" in header and header[-1] == "J"
        # variance-to-go vanishes at the terminal time
        assert float(rows[-1][3]) == 0.0

    # the objective's order is its highest index; the table shows at least
    # m4 and k4
    def test_sixth_order_term_writes_columns_to_six(self, tmp_path):
        scn = scn_file(tmp_path, MINIMAL.replace("term = 2:1 -> -1.0\n",
                                                 "term = 2:1 -> -1.0\nterm = 6:1 -> -0.1\n"))
        out = tmp_path / "m"
        assert run("moments", scn, out) == 0
        header, _ = read_csv(out / "moments.csv")
        assert header == ["t", "u", "m1", "V", "m2", "m3", "m4", "m5", "m6",
                          "k2", "k3", "k4", "k5", "k6", "J"]
        assert read_json(out / "moments_summary.json")["order"] == 6

    def test_mv_base_columns_stop_at_four(self, tmp_path):
        out = tmp_path / "m"
        assert run("moments", MV, out) == 0
        header, _ = read_csv(out / "moments.csv")
        assert header == ["t", "u", "m1", "V", "m2", "m3", "m4", "k2", "k3", "k4", "J"]
        assert read_json(out / "moments_summary.json")["order"] == 4


class TestBsde:
    def test_flow_diagonal_artifacts(self, tmp_path):
        scn = scn_file(tmp_path, MINIMAL)
        out = tmp_path / "b"
        assert run("bsde", scn, out, "--paths", "20000") == 0
        header, rows = read_csv(out / "bsde_diagonal.csv")
        assert header == ["t", "y_diag", "z_diag", "residual", "implied_u"]
        assert len(rows) == 20  # diagonal stops before the terminal node
        summary = read_json(out / "bsde_summary.json")
        assert summary["kind"] == "none"
        assert summary["gamma2"] == 1.0
        assert summary["residual_rms"] < 0.02

    @pytest.mark.parametrize("kind, table", [("none", "bsde_diagonal.csv"),
                                             ("ou", "bsde_grid.csv")])
    def test_emits_only_the_scenario_answer(self, tmp_path, kind, table):
        scn = scn_file(tmp_path, MINIMAL) if kind == "none" else OU
        out = tmp_path / kind
        assert run("bsde", scn, out, "--paths", "2000") == 0
        expected = {table, "bsde_summary.json"}
        assert set(read_json(out / "manifest.json")["files"]) == expected
        assert set(os.listdir(out)) == expected | {"manifest.json"}
        summary = read_json(out / "bsde_summary.json")
        shared = {"command", "kind", "basis_degree", "paths", "seed"}
        own = {"none": {"gamma2", "residual_rms", "residual_max"},
               "ou": {"y0_mean", "y0_se"}}[kind]
        assert set(summary) == shared | own
        assert (summary["command"], summary["kind"], summary["paths"]) == ("bsde", kind, 2000)

    def test_factor_grid_matches_exact_mean(self, tmp_path):
        out = tmp_path / "ou"
        assert run("bsde", OU, out, "--paths", "20000") == 0
        summary = read_json(out / "bsde_summary.json")
        assert summary["kind"] == "ou"
        import math
        exact = 0.3 + (0.25 - 0.3) * math.exp(-1.0)
        # bound by 4 plain-MC standard errors of theta_T; the reported y0_se
        # is regression-smoothed and sits below the end-to-end error
        se = 0.2 * math.sqrt((1.0 - math.exp(-2.0)) / 2.0) / math.sqrt(20000)
        assert abs(summary["y0_mean"] - exact) < 4 * se
        assert summary["y0_se"] < se
        header, rows = read_csv(out / "bsde_grid.csv")
        assert header == ["t", "y_mean", "z_mean"]
        assert len(rows) == 50

    def test_singular_regression_diagnostic_names_step(self, tmp_path, capsys):
        # a factor whose state takes two values at date 1 of 2: the cubic
        # regression there is singular, and the diagnostic says where
        state = np.vstack([np.zeros(64), np.repeat([1.0, 2.0], 32),
                           np.repeat([1.0, 2.0], 32)])
        paths = FactorPaths(times=np.linspace(0.0, 1.0, 3), state=state,
                            dW=np.full((2, 64), 0.1))
        out = tmp_path / "singular"
        with mock.patch.object(cli, "simulate_factors", lambda *args: paths):
            assert run("bsde", OU, out, "--paths", "2000") == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["step"]) == ("RegressionSingular", 1)
        assert not out.exists()


class TestHostileInputs:
    @pytest.mark.parametrize("name, command", [(name, command) for name in sorted(HOSTILE)
                                               for command in HOSTILE[name][3]])
    def test_overflow_ends_in_one_typed_diagnostic(self, tmp_path, capsys, name, command):
        path, line, replacement, _ = HOSTILE[name]
        with open(path) as fh:
            text = fh.read()
        assert line in text
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape untyped
            code = run(command, scn_file(tmp_path, text.replace(line, replacement)),
                       out, "--paths", "2000")
        assert code == 1
        diag = json.loads(capsys.readouterr().err)  # exactly one JSON object
        assert diag["error"] != "IoError"
        assert issubclass(getattr(errors, diag["error"]), errors.EqmoError)
        assert not out.exists()
        if name == "theta_1e300" and command not in ("homogeneity", "bsde"):
            # the sweep: u = 1.25e301 at step 99 squares past the float range
            assert (diag["error"], diag["step"]) == ("SolverError", 99)
            assert "variance-to-go overflows" in diag["message"]

    @pytest.mark.parametrize("scenario", [MV, OU])
    @pytest.mark.parametrize("paths", ["1", "4"])
    def test_bsde_on_too_few_paths_is_typed(self, tmp_path, capsys, scenario, paths):
        # the cubic fit interpolates 4 paths, and one path is a constant
        # state: either way Z reads 0, and on one path so does Y_0's error
        out = tmp_path / "few"
        assert run("bsde", scenario, out, "--paths", paths) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "TooFewPaths"
        assert not out.exists()


class TestModuleEntryPoint:
    def test_python_m_eqmo_cli_is_silent(self, tmp_path):
        # the package must not import eqmo.cli, or runpy warns that the
        # module was already in sys.modules before it ran as __main__
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "eqmo.cli", "--command", "solve",
             "--scenario", MV, "--out", str(tmp_path / "solve")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")


class TestSeedPrecedence:
    def test_env_seed_honored(self, tmp_path):
        out = tmp_path / "env"
        with mock.patch.dict(os.environ, {"EQMO_SEED": "7"}):
            run("solve", MV, out)
        assert read_json(out / "solve_summary.json")["seed"] == 7

    def test_flag_beats_env(self, tmp_path):
        out = tmp_path / "flag"
        with mock.patch.dict(os.environ, {"EQMO_SEED": "7"}):
            run("solve", MV, out, "--seed", "3")
        assert read_json(out / "solve_summary.json")["seed"] == 3

    def test_scenario_seed_beats_default(self, tmp_path):
        scn = scn_file(tmp_path, MINIMAL + "seed = 11\n")
        out = tmp_path / "scn"
        run("solve", scn, out)
        assert read_json(out / "solve_summary.json")["seed"] == 11

    def test_env_beats_scenario(self, tmp_path):
        scn = scn_file(tmp_path, MINIMAL + "seed = 11\n")
        out = tmp_path / "envscn"
        with mock.patch.dict(os.environ, {"EQMO_SEED": "7"}):
            run("solve", scn, out)
        assert read_json(out / "solve_summary.json")["seed"] == 7

    def test_negative_seed_flag_is_module_error(self, tmp_path, capsys):
        assert run("solve", MV, tmp_path / "neg", "--seed", "-1") == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

    def test_bad_env_seed_is_module_error(self, tmp_path, capsys):
        with mock.patch.dict(os.environ, {"EQMO_SEED": "many"}):
            assert run("solve", MV, tmp_path / "bad") == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestDeterminism:
    def test_manifest_hashes_match_files(self, tmp_path):
        out = tmp_path / "m"
        run("mc", MV, out, "--paths", "5000")
        manifest = read_json(out / "manifest.json")["files"]
        assert set(manifest) == {"mc_check.csv", "mc_summary.json"}
        for name, digest in manifest.items():
            with open(out / name, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["solve", "verify", "moments", "homogeneity",
                                         "bsde", "mc"])
    def test_rerun_is_byte_identical(self, tmp_path, command, fmt):
        extra = ["--grid-n", "20", "--format", fmt]
        if command in ("bsde", "mc"):
            extra += ["--paths", "2000"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(command, MV, a, *extra) == run(command, MV, b, *extra)
        assert tree_bytes(a) == tree_bytes(b)
        suffix = {name.rsplit(".", 1)[1] for name in tree_bytes(a)}
        assert suffix == ({"json"} if command == "homogeneity" else {"json", fmt})

    def test_worker_count_invariance_subprocess(self, tmp_path):
        outs = {}
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}"
            env = dict(os.environ, EQMO_WORKERS=workers)
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from eqmo.cli import main; sys.exit(main())",
                 "--command", "mc", "--scenario", MV, "--out", str(out),
                 "--paths", "6000"],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs[workers] = tree_bytes(out)
        assert outs["1"] == outs["3"]

    @pytest.mark.parametrize("name,seed", [("mv_base", "5"), ("ou_factor", "2")])
    def test_bsde_bytes_do_not_follow_blas_threads(self, tmp_path, name, seed):
        # date 0 has a constant state, whose intercept-only fit is a sum over
        # all paths: a one-column BLAS product would round it per thread count
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        manifests = {}
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "eqmo.cli", "--command", "bsde",
                 "--scenario", os.path.join(SCN, f"{name}.scn"), "--out", str(out),
                 "--seed", seed, "--paths", "30000", "--grid-n", "20"],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            manifests[threads] = read_json(out / "manifest.json")
        assert manifests["1"] == manifests["2"]

    def test_mc_bytes_do_not_follow_blas_threads(self, tmp_path):
        # terminal wealth is a weighted row sum of the normals: numpy's
        # pairwise reduction, not a BLAS product whose order follows threads
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        manifests = {}
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "eqmo.cli", "--command", "mc",
                 "--scenario", os.path.join(SCN, "mvsk.scn"), "--out", str(out),
                 "--seed", "3", "--paths", "6000"],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            manifests[threads] = read_json(out / "manifest.json")
        assert manifests["1"] == manifests["2"]


class TestRunConfig:
    def make(self, **over):
        base = dict(command="solve", scenario_path="s.scn", out_dir="o",
                    seed=1, grid_n=10, paths=100, format="csv",
                    scheme="explicit")
        base.update(over)
        return RunConfig(**base)

    def test_valid(self):
        assert self.make().command == "solve"

    def test_bad_command(self):
        with pytest.raises(ValidationError):
            self.make(command="audit")

    def test_bad_format(self):
        with pytest.raises(ValidationError):
            self.make(format="yaml")

    def test_bad_scheme(self):
        with pytest.raises(ValidationError):
            self.make(scheme="midpoint")

    def test_nonpositive_sizes(self):
        with pytest.raises(ValidationError):
            self.make(grid_n=0)
        with pytest.raises(ValidationError):
            self.make(paths=0)

    def test_seed_range(self):
        assert self.make(seed=2 ** 63 - 1).seed == 2 ** 63 - 1
        for seed in (-1, 2 ** 63):
            with pytest.raises(ValidationError):
                self.make(seed=seed)
