"""Scenario text format: read and write experiment configurations.

Sections ``[market]``, ``[objective]``, optional ``[factor]`` and
``[numerics]`` hold ``key = value`` lines. Arrays are comma-separated with
one value per grid time (grid_n + 1 entries; the terminal entry labels t = T
and never enters left-endpoint sums). Objective terms are multi-index lines
``term = k1:e1,k2:e2 -> coeff`` and may repeat. ``#`` starts a comment.
``_SCHEMA`` declares every section and key with its parser and default, and
is the one place where scenario text becomes typed values: an unknown
section or key, a value its parser rejects (a non-finite number, an array
where a scalar belongs, an unknown name) or a byte that is not UTF-8 is a
``ParseError`` naming its line. A silently ignored typo in a risk weight
would corrupt every downstream number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bsde import DEFAULT_BASIS_DEGREE, FACTOR_KINDS, MAX_BASIS_DEGREE, FactorModel
from .equilibrium import SCHEMES
from .errors import ParseError
from .model import MAX_GRID_N, MODES, MarketScenario, ObjectiveSpec, ObjectiveTerm
from .sampling import MAX_PATHS, SEED_LIMIT
from .verify import DEFAULT_TOLERANCE


@dataclass(frozen=True)
class ScenarioBundle:
    """Parsed scenario file: market, objective, optional factor, numerics."""

    scenario: MarketScenario
    objective: ObjectiveSpec
    factor: FactorModel
    numerics: Mapping[str, object]


# Parsers turn one value's text into its typed value and raise ValueError
# with a message; the reader adds the key and the line.

def _scalar(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _scalar_or_array(text: str) -> float | np.ndarray:
    if "," in text:
        return np.array([_scalar(p.strip()) for p in text.split(",")])
    return _scalar(text)


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _bounded(parse: Callable[[str], float], lo: float,
             hi: float = math.inf) -> Callable[[str], float]:
    """``parse``, then reject a value outside [lo, hi]: the range checks of
    the constructors the value goes to (or narrower), so a file names the
    line."""
    def parse_bounded(text: str) -> float:
        value = parse(text)
        if not lo <= value <= hi:
            bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise ValueError(f"expected a value {bound}, got {text!r}")
        return value
    return parse_bounded


def _choice(names: Sequence[str]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {text!r}")
        return text
    return parse


def _term(text: str) -> ObjectiveTerm:
    if "->" not in text:
        raise ValueError(f"expected 'k1:e1,k2:e2 -> coeff', got {text!r}")
    left, _, right = text.partition("->")
    factors = []
    for piece in left.split(","):
        k_text, colon, e_text = piece.strip().partition(":")
        if not colon:
            raise ValueError(f"factor must look like 'k:e', got {piece.strip()!r}")
        factors.append((_int(k_text.strip()), _int(e_text.strip())))
    return ObjectiveTerm(tuple(factors), _scalar(right.strip()))


# Default slots that are not values: the file must set the key, or the
# constructor's own field default applies when the file does not.
_REQUIRED = object()
_FIELD_DEFAULT = object()

# section -> key -> (parser, default), in serialization order; ``term`` is
# the one key that may repeat and collects a list
_SCHEMA: dict[str, dict[str, tuple[Callable[[str], object], object]]] = {
    "market": {
        "r": (_scalar_or_array, 0.0),
        "theta": (_scalar_or_array, _REQUIRED),
        "sigma": (_scalar_or_array, _REQUIRED),
        "T": (_scalar, 1.0),
        "x0": (_scalar, 1.0),
    },
    "objective": {
        "mode": (_choice(MODES), "central"),
        "term": (_term, _REQUIRED),
    },
    "factor": {
        "kind": (_choice(FACTOR_KINDS), _FIELD_DEFAULT),
        "kappa": (_scalar, _FIELD_DEFAULT),
        "theta_bar": (_scalar, _FIELD_DEFAULT),
        "eta": (_bounded(_scalar, 0.0), _FIELD_DEFAULT),
        # no correlated factor is implemented, so rho may only restate 0
        "rho": (_bounded(_scalar, 0.0, 0.0), _FIELD_DEFAULT),
        "theta0": (_scalar, _FIELD_DEFAULT),
    },
    "numerics": {
        "grid_n": (_bounded(_int, 1, MAX_GRID_N), 100),
        "paths": (_bounded(_int, 1, MAX_PATHS), 100_000),
        "seed": (_bounded(_int, 0, SEED_LIMIT - 1), None),
        "scheme": (_choice(SCHEMES), "implicit"),
        # v = 0 lies on the deviation grid, so max Phi >= 0: a negative
        # tolerance would fail every strategy
        "tolerance": (_bounded(_scalar, 0.0), DEFAULT_TOLERANCE),
        "basis_degree": (_bounded(_int, 1, MAX_BASIS_DEGREE), DEFAULT_BASIS_DEGREE),
        "u_scale": (_scalar, 1.0),
    },
}


def _read_sections(text: str) -> dict[str, dict[str, object]]:
    """Parse every ``key = value`` line with its schema parser."""
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ParseError(f"unknown section [{name}]", lineno)
            sections.setdefault(name, {})
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ParseError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[current]:
            raise ParseError(f"unknown key {key!r} in section [{current}]", lineno)
        values = sections[current]
        if key != "term" and key in values:
            raise ParseError(f"duplicate key {key!r} in section [{current}]", lineno)
        try:
            parsed = _SCHEMA[current][key][0](value)
        except ValueError as exc:
            raise ParseError(f"{key}: {exc}", lineno) from None
        if key == "term":
            values.setdefault(key, []).append(parsed)
        else:
            values[key] = parsed
    return sections


def _over_defaults(section: str, parsed: Mapping[str, object]) -> dict[str, object]:
    """The section's schema defaults with the parsed values laid over them;
    keys left to a constructor's field default are absent unless set."""
    values = {key: default for key, (_, default) in _SCHEMA[section].items()
              if default is not _FIELD_DEFAULT}
    values.update(parsed)
    for key, value in values.items():
        if value is _REQUIRED:
            raise ParseError(f"[{section}] is missing required key {key!r}")
    return values


def parse_scenario(path: str, grid_n: int | None = None) -> ScenarioBundle:
    """Parse and validate a scenario file. ``grid_n`` overrides the file's
    [numerics] value (CLI --grid-n); array-valued market parameters must then
    match the override length."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{raw[exc.start]:02x} is not UTF-8",
                         raw[:exc.start].count(b"\n") + 1) from None
    parsed = _read_sections(text)
    values = {section: _over_defaults(section, parsed.get(section, {}))
              for section in _SCHEMA}
    numerics = values["numerics"]
    if grid_n is not None:
        numerics["grid_n"] = grid_n
    objective = values["objective"]
    terms = tuple(objective.pop("term"))
    return ScenarioBundle(
        scenario=MarketScenario(**values["market"], grid_n=numerics["grid_n"]),
        objective=ObjectiveSpec(terms=terms, **objective),
        factor=FactorModel(**values["factor"]),
        numerics=numerics,
    )


def _format_value(x: object) -> str:
    if isinstance(x, np.ndarray):
        return ", ".join(f"{v:.17g}" for v in (x[:1] if np.all(x == x[0]) else x))
    if isinstance(x, ObjectiveTerm):
        return ",".join(f"{k}:{e}" for k, e in x.factors) + f" -> {x.coeff:.17g}"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def serialize_scenario(bundle: ScenarioBundle) -> str:
    """Render a bundle back to scenario text (round-trips through
    parse_scenario up to float formatting)."""
    obj = bundle.objective
    values = {
        "market": {key: getattr(bundle.scenario, key) for key in _SCHEMA["market"]},
        "objective": {"mode": obj.mode, "term": obj.terms},
        "factor": {key: getattr(bundle.factor, key) for key in _SCHEMA["factor"]},
        "numerics": bundle.numerics,
    }
    blocks = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key in keys:
            value = values[section][key]
            for item in (value if key == "term" else (value,)):
                if item is not None:
                    lines.append(f"{key} = {_format_value(item)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
