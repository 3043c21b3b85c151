"""Scenario text format: read and write experiment configurations.

Sections ``[market]``, ``[objective]``, ``[numerics]`` and optional
``[factor]`` hold ``key = value`` lines. Arrays are comma-separated with one
value per grid time (grid_n + 1 entries; the terminal entry labels t = T and
never enters left-endpoint sums). Objective terms are multi-index lines
``term = k1:e1,k2:e2 -> coeff`` and may repeat. ``#`` starts a comment.
Unknown sections or keys are hard errors: a silently ignored typo in a risk
weight would corrupt every downstream number. So are non-finite numbers
(``nan``, ``inf``), which would otherwise surface far from their line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ParseError
from .model import MarketScenario, ObjectiveSpec, ObjectiveTerm
from .bsde import FactorModel

_MARKET_KEYS = ("r", "theta", "sigma", "T", "x0")
_OBJECTIVE_KEYS = ("mode", "term", "max_order")
_NUMERICS_KEYS = (
    "grid_n", "paths", "seed", "scheme", "tolerance", "basis_degree",
    "z_bound", "u_scale",
)
_FACTOR_KEYS = ("kind", "kappa", "theta_bar", "eta", "rho", "theta0")
_SECTIONS = {
    "market": _MARKET_KEYS,
    "objective": _OBJECTIVE_KEYS,
    "numerics": _NUMERICS_KEYS,
    "factor": _FACTOR_KEYS,
}

_NUMERICS_DEFAULTS = {
    "grid_n": 100,
    "paths": 100_000,
    "seed": None,
    "scheme": "implicit",
    "tolerance": 1e-8,
    "basis_degree": 3,
    "z_bound": 50.0,
    "u_scale": 1.0,
}


@dataclass(frozen=True)
class ScenarioBundle:
    """Parsed scenario file: market, objective, optional factor, numerics."""

    scenario: MarketScenario
    objective: ObjectiveSpec
    factor: FactorModel
    numerics: Mapping[str, object]


def _scalar(text: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {text!r}", line)
    return value


def _scalar_or_array(text: str, line: int) -> float | np.ndarray:
    if "," in text:
        return np.array([_scalar(p.strip(), line) for p in text.split(",")])
    return _scalar(text, line)


def _int(text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", line) from None


def _parse_term(text: str, line: int) -> tuple[tuple[tuple[int, int], ...], float]:
    if "->" not in text:
        raise ParseError(f"term must look like 'k1:e1,k2:e2 -> coeff', got {text!r}", line)
    left, _, right = text.partition("->")
    coeff = _scalar(right.strip(), line)
    factors = []
    for piece in left.split(","):
        piece = piece.strip()
        if ":" not in piece:
            raise ParseError(f"term factor must look like 'k:e', got {piece!r}", line)
        k_text, _, e_text = piece.partition(":")
        factors.append((_int(k_text.strip(), line), _int(e_text.strip(), line)))
    return tuple(factors), coeff


def _read_sections(text: str) -> dict[str, list[tuple[str, str, int]]]:
    sections: dict[str, list[tuple[str, str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            sections.setdefault(name, [])
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ParseError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SECTIONS[current]:
            raise ParseError(f"unknown key {key!r} in section [{current}]", lineno)
        if key != "term" and any(k == key for k, _, _ in sections[current]):
            raise ParseError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current].append((key, value, lineno))
    return sections


def parse_scenario(path: str, grid_n: int | None = None) -> ScenarioBundle:
    """Parse and validate a scenario file. ``grid_n`` overrides the file's
    [numerics] value (CLI --grid-n); array-valued market parameters must then
    match the override length."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections = _read_sections(text)
    if "market" not in sections:
        raise ParseError("missing [market] section")
    if "objective" not in sections:
        raise ParseError("missing [objective] section")

    market = {k: (v, ln) for k, v, ln in sections["market"]}
    for required in ("theta", "sigma"):
        if required not in market:
            raise ParseError(f"[market] is missing required key {required!r}")

    numerics = dict(_NUMERICS_DEFAULTS)
    for key, value, ln in sections.get("numerics", []):
        if key in ("grid_n", "paths", "basis_degree"):
            numerics[key] = _int(value, ln)
        elif key == "seed":
            numerics[key] = _int(value, ln)
        elif key == "scheme":
            if value not in ("explicit", "implicit"):
                raise ParseError(f"scheme must be explicit or implicit, got {value!r}", ln)
            numerics[key] = value
        else:
            numerics[key] = _scalar(value, ln)
    n = int(grid_n if grid_n is not None else numerics["grid_n"])
    numerics["grid_n"] = n

    def market_value(key: str, default: float) -> float | np.ndarray:
        if key not in market:
            return default
        value, ln = market[key]
        return _scalar_or_array(value, ln)

    scenario = MarketScenario(
        r=market_value("r", 0.0),
        theta=market_value("theta", 0.0),
        sigma=market_value("sigma", 0.0),
        T=float(market_value("T", 1.0)),
        x0=float(market_value("x0", 1.0)),
        grid_n=n,
    )

    mode = "central"
    max_order = 0
    terms: list[ObjectiveTerm] = []
    for key, value, ln in sections["objective"]:
        if key == "mode":
            if value not in ("central", "cumulant"):
                raise ParseError(f"mode must be central or cumulant, got {value!r}", ln)
            mode = value
        elif key == "max_order":
            max_order = _int(value, ln)
        else:
            factors, coeff = _parse_term(value, ln)
            terms.append(ObjectiveTerm(factors, coeff))
    if not terms:
        raise ParseError("[objective] defines no term lines")
    objective = ObjectiveSpec(terms=tuple(terms), mode=mode, max_order=max_order)

    factor_kwargs: dict[str, object] = {}
    for key, value, ln in sections.get("factor", []):
        if key == "kind":
            factor_kwargs[key] = value
        else:
            factor_kwargs[key] = _scalar(value, ln)
    factor = FactorModel(**factor_kwargs)

    return ScenarioBundle(scenario=scenario, objective=objective,
                          factor=factor, numerics=numerics)


def _format_value(x: object) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def serialize_scenario(bundle: ScenarioBundle) -> str:
    """Render a bundle back to scenario text (round-trips through
    parse_scenario up to float formatting)."""
    s, obj = bundle.scenario, bundle.objective
    out = ["[market]"]
    for name in ("r", "theta", "sigma"):
        arr = getattr(s, name)
        if np.all(arr == arr[0]):
            out.append(f"{name} = {arr[0]:.17g}")
        else:
            out.append(f"{name} = " + ", ".join(f"{v:.17g}" for v in arr))
    out.append(f"T = {s.T:.17g}")
    out.append(f"x0 = {s.x0:.17g}")
    out.append("")
    out.append("[objective]")
    out.append(f"mode = {obj.mode}")
    for term in obj.terms:
        left = ",".join(f"{k}:{e}" for k, e in term.factors)
        out.append(f"term = {left} -> {term.coeff:.17g}")
    out.append(f"max_order = {obj.max_order}")
    out.append("")
    out.append("[factor]")
    f = bundle.factor
    out.append(f"kind = {f.kind}")
    for name in ("kappa", "theta_bar", "eta", "rho", "theta0"):
        out.append(f"{name} = {getattr(f, name):.17g}")
    out.append("")
    out.append("[numerics]")
    for key in ("grid_n", "paths", "seed", "scheme", "tolerance",
                "basis_degree", "z_bound", "u_scale"):
        value = bundle.numerics.get(key)
        if value is None:
            continue
        out.append(f"{key} = {_format_value(value)}")
    return "\n".join(out) + "\n"
