"""Deterministic artifact emission: CSV/JSON writers and a hashed manifest.

A ``Table`` holds named columns, each converted once to Python scalars. One
value renderer serves CSV cells and JSON scalars alike: every float is
rendered with 17 significant digits (lossless for binary64) and a non-finite
one is refused. JSON objects are emitted with sorted keys. Tables render a
column at a time (one finiteness check per float column) and each row by one
per-table ``%`` template, as ``csv.writer`` and :func:`render_json` would.
Emission is all-or-nothing: every file's text is rendered before the first
is written, so a value that cannot be serialized leaves no file behind, and
every file is written to a temp file in the target directory before the
first is renamed to its final name, so a failed write (disk full,
permissions) leaves none behind either. Reruns with identical inputs produce
byte-identical files, which the manifest records as sha256 digests.
"""
from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import IoError


def _scalar(x: object) -> str:
    """Text of one value: floats to 17 significant digits, bools as JSON
    literals, ints exactly, anything else through ``str``."""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not math.isfinite(x):
            raise IoError(f"refusing to serialize non-finite value {x!r}")
        return f"{x:.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def render_json(obj: object, indent: int = 0) -> str:
    """Canonical JSON text: sorted keys, 17-significant-digit floats.

    The stdlib encoder pins float formatting to repr, which is shortest
    round-trip rather than fixed-precision; rendering by hand keeps the
    serialized-float contract explicit.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            parts.append(f'{inner}"{_escape(str(key))}": {render_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        parts = [f"{inner}{render_json(item, indent + 1)}" for item in items]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, (int, float, np.integer, np.floating, np.bool_)):
        return _scalar(obj)
    raise IoError(f"cannot serialize {type(obj).__name__} to JSON")


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class Table:
    """Named, equal-length columns destined for csv or json rendering."""

    header: tuple[str, ...]
    columns: tuple[list, ...]

    def __post_init__(self) -> None:
        columns = tuple(c.tolist() if isinstance(c, np.ndarray) else list(c)
                        for c in self.columns)
        if len(self.header) != len(columns):
            raise IoError(f"table has {len(self.header)} header names but "
                          f"{len(columns)} columns")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise IoError(f"ragged table columns: lengths {sorted(lengths)}")
        object.__setattr__(self, "header", tuple(self.header))
        object.__setattr__(self, "columns", columns)


def _column(column: list, render) -> tuple[str, list]:
    """(row template slot, values) of a column: floats as they are behind
    ``%.17g`` after one finiteness check, else ``render`` texts behind ``%s``."""
    if set(map(type, column)) <= {float, np.float64}:
        if not all(map(math.isfinite, column)):
            list(map(_scalar, column))  # raises at the first non-finite value
        return "%.17g", column
    return "%s", list(map(render, column))


def _csv_field(text: str) -> str:
    """``text`` as a field of ``csv.writer`` with "\\n" line ends (minimal quoting)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(table: Table) -> str:
    columns = [_column(c, lambda x: _csv_field(_scalar(x))) for c in table.columns]
    template = ",".join([slot for slot, _ in columns])
    lines = [",".join([_csv_field(str(name)) for name in table.header])]
    lines += map(template.__mod__, zip(*[values for _, values in columns]))
    if len(columns) == 1:  # csv.writer quotes a lone empty field
        lines = [line or '""' for line in lines]
    return "\n".join(lines) + "\n"


def _render_rows(table: Table) -> str:
    """:func:`render_json` of the list of row objects keyed by the header."""
    by_name = dict(zip(table.header, table.columns))  # a repeated name keeps its last
    names = sorted(by_name)
    try:
        columns = [_column(by_name[name], lambda x: render_json(x, 2)) for name in names]
    except IoError:  # raise the error of the value that the rows meet first
        render_json([dict(zip(table.header, row)) for row in zip(*table.columns)])
        raise
    fields = [f'    "{_escape(str(name))}": '.replace("%", "%%") + slot
              for name, (slot, _) in zip(names, columns)]
    template = "  {\n" + ",\n".join(fields) + "\n  }"
    rows = list(map(template.__mod__, zip(*[values for _, values in columns])))
    return "[\n" + ",\n".join(rows) + "\n]" if rows else "[]"


FORMATS = ("csv", "json")


def emit_outputs(results: Mapping[str, object], fmt: str, out_dir: str) -> dict[str, str]:
    """Write named results into out_dir and a manifest.json of sha256 digests.

    Table values honor ``fmt`` (csv or json); plain mappings always serialize
    as JSON. Every text is rendered and written to a temp file before any
    file lands under its final name; on failure the temp files are removed.
    The manifest is renamed last. Returns {relative_path: sha256}.
    """
    if fmt not in FORMATS:
        raise IoError(f"format must be one of {FORMATS}, got {fmt!r}")
    texts: dict[str, str] = {}
    for name in sorted(results):
        value = results[name]
        if not isinstance(value, Table):
            texts[f"{name}.json"] = render_json(value) + "\n"
        elif fmt == "csv":
            texts[f"{name}.csv"] = render_csv(value)
        else:
            texts[f"{name}.json"] = _render_rows(value) + "\n"
    manifest = {filename: hashlib.sha256(text.encode("utf-8")).hexdigest()
                for filename, text in texts.items()}
    texts["manifest.json"] = render_json({"files": manifest}) + "\n"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
    temps: list[tuple[str, str]] = []  # (temp file, final path), in write order
    try:
        for filename, text in texts.items():
            path = os.path.join(out_dir, filename)
            fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp-artifact-")
            temps.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"failed to write {path}: {exc}") from exc
    finally:
        for tmp, _ in temps:  # whatever was not renamed
            if os.path.exists(tmp):
                os.unlink(tmp)
    return manifest
