"""Artifact layer: exact CSV/JSON text, lossless floats, refusals, emission."""
import csv
import errno
import io
import json
import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmo.artifacts import Table, _scalar, emit_outputs, render_csv, render_json
from eqmo.errors import IoError

FLOATS = [-0.0, 0.1, 1 / 3, 5e-324, 1.7976931348623157e308, 2.0 ** 53 + 2]


def mixed_table():
    return Table(
        ("label", "x", "n", "flag"),
        (
            ["plain", 'comma, "quoted"', "back\\slash", "ctl\x01", "tab\t", "end"],
            np.array(FLOATS),
            [0, -1, 10 ** 20, np.int64(2 ** 62), np.int32(-7), np.uint8(255)],
            [True, False, np.bool_(True), np.bool_(False), True, np.bool_(False)],
        ),
    )


EXPECTED_CSV = (
    "label,x,n,flag\n"
    "plain,-0,0,true\n"
    '"comma, ""quoted""",0.10000000000000001,-1,false\n'
    "back\\slash,0.33333333333333331,100000000000000000000,true\n"
    "ctl\x01,4.9406564584124654e-324,4611686018427387904,false\n"
    "tab\t,1.7976931348623157e+308,-7,true\n"
    "end,9007199254740994,255,false\n"
)

EXPECTED_JSON = """\
[
  {
    "flag": true,
    "label": "plain",
    "n": 0,
    "x": -0
  },
  {
    "flag": false,
    "label": "comma, \\"quoted\\"",
    "n": -1,
    "x": 0.10000000000000001
  },
  {
    "flag": true,
    "label": "back\\\\slash",
    "n": 100000000000000000000,
    "x": 0.33333333333333331
  },
  {
    "flag": false,
    "label": "ctl\\u0001",
    "n": 4611686018427387904,
    "x": 4.9406564584124654e-324
  },
  {
    "flag": true,
    "label": "tab\\t",
    "n": -7,
    "x": 1.7976931348623157e+308
  },
  {
    "flag": false,
    "label": "end",
    "n": 255,
    "x": 9007199254740994
  }
]
"""


def bits(x):
    return struct.pack("<d", x)


def read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


class TestExactText:
    def test_csv(self):
        assert render_csv(mixed_table()) == EXPECTED_CSV

    def test_json_through_emission(self, tmp_path):
        emit_outputs({"t": mixed_table()}, "json", str(tmp_path))
        assert read(tmp_path / "t.json") == EXPECTED_JSON

    def test_csv_through_emission(self, tmp_path):
        manifest = emit_outputs({"t": mixed_table()}, "csv", str(tmp_path))
        assert read(tmp_path / "t.csv") == EXPECTED_CSV
        assert sorted(os.listdir(tmp_path)) == ["manifest.json", "t.csv"]
        assert set(manifest) == {"t.csv"}

    def test_summary_mapping_numpy_scalars(self):
        summary = {"b": np.bool_(False), "a": np.float64(0.1), "c": np.int64(3),
                   "d": None, "e": [np.float32(0.5), "s"]}
        assert render_json(summary) == (
            '{\n  "a": 0.10000000000000001,\n  "b": false,\n  "c": 3,\n'
            '  "d": null,\n  "e": [\n    0.5,\n    "s"\n  ]\n}'
        )


class TestFloatsRoundTrip:
    def test_csv_cells_parse_to_same_bits(self):
        rows = list(csv.reader(io.StringIO(render_csv(mixed_table()))))[1:]
        assert [bits(float(r[1])) for r in rows] == [bits(x) for x in FLOATS]

    def test_json_numbers_parse_to_same_bits(self, tmp_path):
        emit_outputs({"t": mixed_table()}, "json", str(tmp_path))
        rows = json.loads(read(tmp_path / "t.json"), parse_float=str, parse_int=str)
        assert [bits(float(r["x"])) for r in rows] == [bits(x) for x in FLOATS]


class TestRefusals:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell(self, bad, tmp_path):
        table = Table(("x",), (np.array([1.0, bad]),))
        with pytest.raises(IoError, match="non-finite"):
            render_csv(table)
        with pytest.raises(IoError, match="non-finite"):
            emit_outputs({"t": table}, "json", str(tmp_path))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_summary_value(self, bad):
        with pytest.raises(IoError, match="non-finite"):
            render_json({"ok": 1.0, "nested": {"value": bad}})

    def test_ragged_columns(self):
        with pytest.raises(IoError, match="ragged"):
            Table(("a", "b"), ([1.0, 2.0], [1.0]))

    @pytest.mark.parametrize("header", [("a",), ("a", "b", "c")])
    def test_header_length_differs_from_column_count(self, header):
        with pytest.raises(IoError, match="header"):
            Table(header, ([1.0], [2.0]))

    def test_unserializable_json_value(self):
        with pytest.raises(IoError, match="complex"):
            render_json({"z": 1j})


class TestEmptyTable:
    def test_header_only_csv(self):
        assert render_csv(Table(("a", "b"), ([], np.array([])))) == "a,b\n"

    def test_empty_json_list(self, tmp_path):
        emit_outputs({"t": Table(("a", "b"), ([], np.array([])))}, "json", str(tmp_path))
        assert read(tmp_path / "t.json") == "[]\n"


class TestAllOrNothing:
    def results(self):
        # sorted by name, the unserializable entry comes second
        return {"a_table": mixed_table(), "b_summary": {"x": math.nan}}

    def test_existing_directory_stays_empty(self, tmp_path):
        with pytest.raises(IoError, match="non-finite"):
            emit_outputs(self.results(), "csv", str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_missing_directory_is_not_created(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(IoError, match="non-finite"):
            emit_outputs(self.results(), "json", str(out))
        assert not out.exists()

    def test_failed_write_leaves_no_file_of_the_run(self, tmp_path):
        # a previous run's files stay as they were; the failing run adds none
        def run(x):
            return emit_outputs({"a_table": Table(("x",), ([x],)), "b_summary": {"x": x}},
                                "csv", str(tmp_path))

        before = run(1.0)
        old = {name: read(tmp_path / name) for name in os.listdir(tmp_path)}
        real_fdopen = os.fdopen
        opened = []

        def fdopen(fd, *args, **kwargs):
            fh = real_fdopen(fd, *args, **kwargs)
            opened.append(fh)
            if len(opened) == 2:  # the second file's write hits a full disk
                def write(text):
                    raise OSError(errno.ENOSPC, "No space left on device")
                fh.write = write
            return fh

        with mock.patch.object(os, "fdopen", fdopen):
            with pytest.raises(IoError, match="b_summary.json"):
                run(2.0)
        assert len(opened) == 2
        assert sorted(os.listdir(tmp_path)) == sorted(before) + ["manifest.json"]
        assert {name: read(tmp_path / name) for name in os.listdir(tmp_path)} == old
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-artifact-")]


# The per-value algorithms that the column-at-a-time renderers replaced:
# csv.writer over one _scalar text per value, and render_json over row dicts.
def reference_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(zip(*[list(map(_scalar, c)) for c in table.columns]))
    return buf.getvalue()


def reference_json(table):
    rows = [dict(zip(table.header, row)) for row in zip(*table.columns)]
    return render_json(rows) + "\n"


def emitted_json(table):
    with tempfile.TemporaryDirectory() as out:
        emit_outputs({"t": table}, "json", out)
        return read(os.path.join(out, "t.json"))


def outcome(render, table):
    try:
        return render(table)
    except IoError as exc:
        return ("IoError", str(exc))


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
NON_FINITE = [math.nan, math.inf, -math.inf]
texts = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                          st.sampled_from(list(',"%\n\r\t\x00\x01\\ '))), max_size=6)
floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL_FLOATS))
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    texts,
)


@st.composite
def tables(draw):
    rows = draw(st.integers(min_value=0, max_value=5))
    columns = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["array", "floats", "float64", "mixed"]))
        elements = {"mixed": scalars, "float64": floats.map(np.float64)}.get(kind, floats)
        column = draw(st.lists(elements, min_size=rows, max_size=rows))
        if rows and draw(st.integers(min_value=0, max_value=9)) == 0:
            column[draw(st.integers(min_value=0, max_value=rows - 1))] = \
                draw(st.sampled_from(NON_FINITE))
        columns.append(np.array(column, dtype=float) if kind == "array" else column)
    header = draw(st.lists(st.one_of(texts, st.sampled_from(["t", "u", ""])),
                           min_size=len(columns), max_size=len(columns)))
    return Table(tuple(header), tuple(columns))


class TestColumnRenderingMatchesPerValueReference:
    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_csv(self, table):
        assert outcome(render_csv, table) == outcome(reference_csv, table)

    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_json_emission(self, table):
        assert outcome(emitted_json, table) == outcome(reference_json, table)

    def test_first_error_in_row_order(self):
        # the json rows meet inf (row 0, key "b") before nan (row 1, key "a");
        # csv meets the column "a" first
        table = Table(("a", "b"), ([1.0, math.nan], [math.inf, 2.0]))
        assert outcome(emitted_json, table) == ("IoError", "refusing to serialize "
                                                "non-finite value inf")
        assert outcome(render_csv, table) == ("IoError", "refusing to serialize "
                                              "non-finite value nan")

