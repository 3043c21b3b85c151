"""Scenario text format: parsing, validation, serialization round-trips."""
import json
import os

import numpy as np
import pytest

from eqmo.cli import main
from eqmo.errors import GridMismatch, ParseError
from eqmo.scenario_io import (
    _SCHEMA,
    ScenarioBundle,
    _read_sections,
    parse_scenario,
    serialize_scenario,
)

MINIMAL = """\
[market]
theta = 0.3
sigma = 0.2

[objective]
term = 1:1 -> 1.0
term = 2:1 -> -1.0
mode = central
"""


def write(tmp_path, text, name="case.scn"):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    return str(p)


class TestMinimalParse:
    def test_market_defaults(self, tmp_path):
        b = parse_scenario(write(tmp_path, MINIMAL))
        s = b.scenario
        assert np.all(s.r == 0.0)
        assert np.all(s.theta == 0.3)
        assert np.all(s.sigma == 0.2)
        assert (s.T, s.x0, s.grid_n) == (1.0, 1.0, 100)
        assert s.r.shape == (101,)

    def test_numerics_defaults(self, tmp_path):
        b = parse_scenario(write(tmp_path, MINIMAL))
        n = b.numerics
        assert n["grid_n"] == 100
        assert n["paths"] == 100_000
        assert n["seed"] is None
        assert n["scheme"] == "implicit"
        assert n["tolerance"] == 1e-8
        assert n["basis_degree"] == 3
        assert n["u_scale"] == 1.0

    def test_objective_terms(self, tmp_path):
        b = parse_scenario(write(tmp_path, MINIMAL))
        obj = b.objective
        assert obj.mode == "central"
        assert obj.max_order == 2
        assert obj.pure_weight(1) == 1.0
        assert obj.pure_weight(2) == -1.0

    def test_factor_defaults_to_none_kind(self, tmp_path):
        b = parse_scenario(write(tmp_path, MINIMAL))
        assert b.factor.kind == "none"

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "theta = 0.3", "theta = 0.3   # market price of risk")
        b = parse_scenario(write(tmp_path, text))
        assert np.all(b.scenario.theta == 0.3)


class TestParseErrors:
    def test_unknown_key_names_key_and_line(self, tmp_path):
        text = MINIMAL.replace("sigma = 0.2", "sigma = 0.2\nfee = 0.01")
        with pytest.raises(ParseError, match="'fee'") as exc:
            parse_scenario(write(tmp_path, text))
        assert exc.value.line == 4
        assert "line 4" in str(exc.value)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ParseError, match=r"\[fees\]"):
            parse_scenario(write(tmp_path, MINIMAL + "\n[fees]\nrate = 1\n"))

    def test_missing_market_section(self, tmp_path):
        with pytest.raises(ParseError, match=r"\[market\]"):
            parse_scenario(write(tmp_path, "[objective]\nterm = 1:1 -> 1\n"))

    def test_missing_objective_section(self, tmp_path):
        with pytest.raises(ParseError, match=r"\[objective\]"):
            parse_scenario(write(tmp_path, "[market]\ntheta = 0.3\nsigma = 0.2\n"))

    def test_missing_sigma(self, tmp_path):
        text = MINIMAL.replace("sigma = 0.2\n", "")
        with pytest.raises(ParseError, match="'sigma'"):
            parse_scenario(write(tmp_path, text))

    def test_duplicate_key(self, tmp_path):
        text = MINIMAL.replace("sigma = 0.2", "sigma = 0.2\nsigma = 0.3")
        with pytest.raises(ParseError, match="duplicate") as exc:
            parse_scenario(write(tmp_path, text))
        assert exc.value.line == 4

    def test_term_lines_may_repeat(self, tmp_path):
        # only 'term' is exempt from the duplicate rule
        b = parse_scenario(write(tmp_path, MINIMAL))
        assert len(b.objective.terms) == 2

    def test_bad_term_syntax(self, tmp_path):
        for bad in ("term = 1:1 1.0", "term = 1 -> 1.0", "term = a:1 -> 1.0",
                    "term = 1:1 -> soup"):
            text = MINIMAL.replace("term = 1:1 -> 1.0", bad)
            with pytest.raises(ParseError):
                parse_scenario(write(tmp_path, text))

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(ParseError, match="outside"):
            parse_scenario(write(tmp_path, "theta = 0.3\n" + MINIMAL))

    def test_line_without_equals(self, tmp_path):
        text = MINIMAL.replace("sigma = 0.2", "sigma 0.2")
        with pytest.raises(ParseError, match="key = value") as exc:
            parse_scenario(write(tmp_path, text))
        assert exc.value.line == 3

    def test_bad_scheme(self, tmp_path):
        text = MINIMAL + "\n[numerics]\nscheme = magic\n"
        with pytest.raises(ParseError, match="scheme"):
            parse_scenario(write(tmp_path, text))

    def test_bad_mode(self, tmp_path):
        text = MINIMAL.replace("mode = central", "mode = raw")
        with pytest.raises(ParseError, match="mode"):
            parse_scenario(write(tmp_path, text))

    def test_non_numeric_value(self, tmp_path):
        text = MINIMAL.replace("theta = 0.3", "theta = fast")
        with pytest.raises(ParseError, match="'fast'") as exc:
            parse_scenario(write(tmp_path, text))
        assert exc.value.line == 2

    def test_no_terms(self, tmp_path):
        text = "[market]\ntheta = 0.3\nsigma = 0.2\n[objective]\nmode = central\n"
        with pytest.raises(ParseError, match="term"):
            parse_scenario(write(tmp_path, text))


NAN_THETA = ", ".join(["0.3"] * 50 + ["nan"] + ["0.3"] * 50)

# (command, scenario text or bytes, line of the bad value, message pattern)
MALFORMED = {
    "tolerance_nan": ("verify", MINIMAL + "\n[numerics]\ntolerance = nan\n", 11, "finite"),
    "u_scale_inf": ("verify", MINIMAL + "\n[numerics]\nu_scale = inf\n", 11, "finite"),
    "theta_array_nan": ("solve", MINIMAL.replace("theta = 0.3", f"theta = {NAN_THETA}"),
                        2, "finite"),
    "kappa_nan": ("bsde", MINIMAL + "\n[factor]\nkind = ou\nkappa = nan\n", 12, "finite"),
    "T_array": ("solve", MINIMAL.replace("sigma = 0.2", "sigma = 0.2\nT = 1, 2"), 4,
                "T: expected a number"),
    "x0_array": ("solve", MINIMAL.replace("sigma = 0.2", "sigma = 0.2\nx0 = 1, 2"), 4,
                 "x0: expected a number"),
    "kind_unknown": ("bsde", MINIMAL + "\n[factor]\nkind = gbm\n", 11,
                     "kind: expected one of none, ou"),
    "non_utf8": ("solve", MINIMAL.replace("sigma = 0.2", "sigma = 0.2  # café")
                 .encode("latin-1"), 3, "not UTF-8"),
    "eta_negative": ("bsde", MINIMAL + "\n[factor]\nkind = ou\neta = -1\n", 12,
                     "eta: expected a value >= 0"),
    "rho_nonzero": ("bsde", MINIMAL + "\n[factor]\nkind = ou\nrho = -0.4\n", 12,
                    r"rho: expected a value in \[0.0, 0.0\]"),
    "grid_n_zero": ("solve", MINIMAL + "\n[numerics]\ngrid_n = 0\n", 11,
                    r"grid_n: expected a value in \[1, 1000000\], got '0'"),
    "grid_n_above_max": ("solve", MINIMAL + "\n[numerics]\ngrid_n = 1000001\n", 11,
                         r"grid_n: expected a value in \[1, 1000000\], got '1000001'"),
    "basis_degree_zero": ("bsde", MINIMAL + "\n[numerics]\nbasis_degree = 0\n", 11,
                          r"basis_degree: expected a value in \[1, 30\], got '0'"),
    "basis_degree_above_max": ("bsde", MINIMAL + "\n[numerics]\nbasis_degree = 31\n", 11,
                               r"basis_degree: expected a value in \[1, 30\], got '31'"),
    "basis_degree_huge": ("bsde", MINIMAL + "\n[numerics]\nbasis_degree = 1000000000\n", 11,
                          r"basis_degree: expected a value in \[1, 30\]"),
    "z_bound_removed": ("bsde", MINIMAL + "\n[numerics]\nz_bound = 10\n", 11,
                        "'z_bound'"),
    "max_order_removed": ("moments", MINIMAL + "max_order = 4\n", 9,
                          "unknown key 'max_order' in section \\[objective\\]"),
    "paths_zero": ("mc", MINIMAL + "\n[numerics]\npaths = 0\n", 11,
                   r"paths: expected a value in \[1, 100000000\], got '0'"),
    "paths_above_max": ("bsde", MINIMAL + "\n[numerics]\npaths = 100000001\n", 11,
                        r"paths: expected a value in \[1, 100000000\]"),
    "seed_negative": ("mc", MINIMAL + "\n[numerics]\nseed = -1\n", 11,
                      r"seed: expected a value in \[0, 9223372036854775807\], got '-1'"),
    "seed_too_large": ("bsde", MINIMAL + "\n[numerics]\nseed = 9223372036854775808\n",
                       11, r"seed: expected a value in \[0, 9223372036854775807\]"),
    "tolerance_negative": ("verify", MINIMAL + "\n[numerics]\ntolerance = -1e-9\n", 11,
                           "tolerance: expected a value >= 0"),
}


class _RejectedWithLine:
    """Each case is a ParseError naming its line, and the CLI exits 1 with a
    JSON diagnostic carrying that line and creates no output directory."""

    def test_parse_error_names_line(self, tmp_path, case):
        _, text, line, message = MALFORMED[case]
        with pytest.raises(ParseError, match=message) as exc:
            parse_scenario(write(tmp_path, text))
        assert exc.value.line == line

    def test_cli_exits_one_and_writes_nothing(self, tmp_path, capsys, case):
        command, text, line, _ = MALFORMED[case]
        out = tmp_path / "out"
        assert main(["--command", command, "--scenario", write(tmp_path, text),
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["line"]) == ("ParseError", line)
        assert not out.exists()


@pytest.mark.parametrize("case", ["kappa_nan", "theta_array_nan", "tolerance_nan",
                                  "u_scale_inf"])
class TestNonFiniteNumbers(_RejectedWithLine):
    pass


@pytest.mark.parametrize("case", ["T_array", "x0_array", "kind_unknown", "non_utf8",
                                  "eta_negative", "rho_nonzero", "grid_n_zero",
                                  "basis_degree_zero", "basis_degree_above_max",
                                  "basis_degree_huge", "z_bound_removed",
                                  "max_order_removed", "grid_n_above_max", "paths_zero",
                                  "paths_above_max", "seed_negative", "seed_too_large",
                                  "tolerance_negative"])
class TestMalformedValues(_RejectedWithLine):
    pass


class TestRicherScenarios:
    def test_product_term(self, tmp_path):
        text = MINIMAL.replace("term = 2:1 -> -1.0",
                               "term = 2:1 -> -1.0\nterm = 1:1,2:2 -> 0.25")
        b = parse_scenario(write(tmp_path, text))
        prod = [t for t in b.objective.terms if len(t.factors) == 2]
        assert prod and prod[0].factors == ((1, 1), (2, 2))
        assert prod[0].coeff == 0.25

    def test_array_market_values(self, tmp_path):
        vals = ", ".join(str(0.1 + 0.01 * i) for i in range(5))
        text = (
            "[market]\n"
            f"theta = {vals}\n"
            "sigma = 0.2\n"
            "[objective]\nterm = 1:1 -> 1.0\nterm = 2:1 -> -1.0\nmode = central\n"
            "[numerics]\ngrid_n = 4\n"
        )
        b = parse_scenario(write(tmp_path, text))
        assert np.allclose(b.scenario.theta, 0.1 + 0.01 * np.arange(5))
        assert b.scenario.sigma.shape == (5,)

    def test_array_length_must_match_grid(self, tmp_path):
        text = (
            "[market]\n"
            "theta = 0.1, 0.2, 0.3\n"
            "sigma = 0.2\n"
            "[objective]\nterm = 1:1 -> 1.0\nterm = 2:1 -> -1.0\nmode = central\n"
            "[numerics]\ngrid_n = 4\n"
        )
        with pytest.raises(GridMismatch):
            parse_scenario(write(tmp_path, text))

    def test_grid_n_argument_overrides_file(self, tmp_path):
        b = parse_scenario(write(tmp_path, MINIMAL + "\n[numerics]\ngrid_n = 10\n"),
                           grid_n=25)
        assert b.scenario.grid_n == 25
        assert b.numerics["grid_n"] == 25

    def test_grid_n_override_conflicts_with_arrays(self, tmp_path):
        vals = ", ".join("0.3" for _ in range(11))
        text = (
            "[market]\n"
            f"theta = {vals}\n"
            "sigma = 0.2\n"
            "[objective]\nterm = 1:1 -> 1.0\nterm = 2:1 -> -1.0\nmode = central\n"
            "[numerics]\ngrid_n = 10\n"
        )
        path = write(tmp_path, text)
        assert parse_scenario(path).scenario.grid_n == 10
        with pytest.raises(GridMismatch):
            parse_scenario(path, grid_n=20)

    def test_numerics_overrides(self, tmp_path):
        text = MINIMAL + (
            "\n[numerics]\ngrid_n = 12\npaths = 5000\nseed = 7\n"
            "scheme = explicit\ntolerance = 1e-6\nbasis_degree = 2\n"
            "u_scale = 1.1\n"
        )
        n = parse_scenario(write(tmp_path, text)).numerics
        assert n["grid_n"] == 12
        assert n["paths"] == 5000
        assert n["seed"] == 7
        assert n["scheme"] == "explicit"
        assert n["tolerance"] == 1e-6
        assert n["basis_degree"] == 2
        assert n["u_scale"] == 1.1

    def test_factor_section(self, tmp_path):
        text = MINIMAL + (
            "\n[factor]\nkind = ou\nkappa = 1.5\ntheta_bar = 0.3\n"
            "eta = 0.2\nrho = 0.0\ntheta0 = 0.25\n"
        )
        f = parse_scenario(write(tmp_path, text)).factor
        assert f.kind == "ou"
        assert (f.kappa, f.theta_bar, f.eta, f.rho, f.theta0) == (
            1.5, 0.3, 0.2, 0.0, 0.25)

    def test_cumulant_mode(self, tmp_path):
        text = MINIMAL.replace("mode = central", "mode = cumulant")
        assert parse_scenario(write(tmp_path, text)).objective.mode == "cumulant"


class TestSerialization:
    def test_round_trip_is_fixed_point(self, tmp_path):
        b1 = parse_scenario(write(tmp_path, MINIMAL))
        text1 = serialize_scenario(b1)
        b2 = parse_scenario(write(tmp_path, text1, "round.scn"))
        text2 = serialize_scenario(b2)
        assert text1 == text2

    def test_round_trip_preserves_values(self, tmp_path):
        text = MINIMAL + (
            "\n[numerics]\ngrid_n = 8\npaths = 2500\nseed = 3\n"
            "\n[factor]\nkind = ou\nkappa = 0.5\neta = 0.1\n"
        )
        b1 = parse_scenario(write(tmp_path, text))
        b2 = parse_scenario(write(tmp_path, serialize_scenario(b1), "rt.scn"))
        assert isinstance(b2, ScenarioBundle)
        assert np.array_equal(b1.scenario.theta, b2.scenario.theta)
        assert b1.objective == b2.objective
        assert b1.factor == b2.factor
        assert b1.numerics == b2.numerics

    def test_arrays_survive_round_trip(self, tmp_path):
        grid = np.linspace(0.1, 0.4, 9)
        vals = ", ".join(f"{v:.17g}" for v in grid)
        text = (
            "[market]\n"
            f"theta = {vals}\n"
            "sigma = 0.2\n"
            "[objective]\nterm = 1:1 -> 1.0\nterm = 2:1 -> -1.0\nmode = central\n"
            "[numerics]\ngrid_n = 8\n"
        )
        b1 = parse_scenario(write(tmp_path, text))
        b2 = parse_scenario(write(tmp_path, serialize_scenario(b1), "arr.scn"))
        assert np.array_equal(b1.scenario.theta, b2.scenario.theta)

    def test_shipped_corpus_round_trips(self):
        import glob
        import os
        paths = sorted(glob.glob(os.path.join(
            os.path.dirname(__file__), "..", "scenarios", "*.scn")))
        assert len(paths) >= 6
        for p in paths:
            b1 = parse_scenario(p)
            text = serialize_scenario(b1)
            import tempfile
            with tempfile.NamedTemporaryFile("w", suffix=".scn", delete=False) as fh:
                fh.write(text)
                name = fh.name
            try:
                b2 = parse_scenario(name)
            finally:
                os.unlink(name)
            assert np.array_equal(b1.scenario.theta, b2.scenario.theta), p
            assert b1.objective == b2.objective, p
            assert serialize_scenario(b2) == text, p


def test_readme_example_names_every_key(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    parse_scenario(write(tmp_path, block))
    named = {(section, key) for section, values in _read_sections(block).items()
             for key in values}
    assert named == {(section, key) for section, keys in _SCHEMA.items() for key in keys}
