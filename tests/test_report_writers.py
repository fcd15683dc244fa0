"""The JSON, CSV and SVG writers against the writers they replaced.

The oracles are the earlier implementations, kept verbatim: JSON went
through a copy that re-parsed every float from its 17-digit form and then
through ``json.dumps(sort_keys=True, indent=2)`` (the pure-Python encoder);
CSV formatted one cell per call; the SVG polyline formatted one point per
call.  The new writers must give the same bytes.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpcurves.report import (fmt, parameter_plot_svg, to_json, write_csv,
                             write_text)


def _canonical(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def oracle_json(obj):
    return json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"


def oracle_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) if isinstance(x, (int, float)) else str(x)
                              for x in row))
    write_text(path, "\n".join(lines) + "\n")


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e22,
               0.1, 1 / 3, -2.5e-308, 1.7976931348623157e308]
TEXT = st.text(alphabet=st.sampled_from(
    'aQz "\\/\n\t\r\x00\x1f\x7fé π\U0001f600'), max_size=8)
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
SCALARS = (FLOATS | FLOATS.map(np.float64) | st.integers(-2**70, 2**70)
           | st.booleans() | st.none() | TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=30)


@given(VALUES)
@settings(max_examples=600, deadline=None)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {"f": []}}})
@example([[[[]]], {"": {}}, [1, [2, [3, []]]]])
@example({"x": EDGE_FLOATS, "y": dict(zip("abcdefghijkl", EDGE_FLOATS))})
@example([2**53 + 1, -2**64, True, False, None, "é\"\\\x01"])
def test_to_json_matches_oracle(obj):
    assert to_json(obj) == oracle_json(obj)


KEYS = TEXT | st.sampled_from(["%", "%s", "%%(a)d", '"', "\n", "é", "π", ""])
TABLES = st.lists(KEYS, min_size=1, max_size=13, unique=True).flatmap(
    lambda keys: st.lists(
        st.tuples(*[SCALARS] * len(keys)).map(
            lambda values: dict(zip(keys, values))),
        min_size=1, max_size=40))
# A table with one row changed so that it is no longer a table.
NEAR_MISSES = {
    "table": lambda row: row,
    "other keys": lambda row: {**row, "\x00other": 0},
    "list": lambda row: {**row, next(iter(row)): [1.5, None]},
    "dict": lambda row: {**row, next(iter(row)): {"a": -0.0}},
    "empty": lambda row: {},
    "other order": lambda row: dict(reversed(row.items())),
}


@given(TABLES, st.sampled_from(sorted(NEAR_MISSES)), st.integers(0, 39),
       st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
@example([{"a": math.nan, "b": -0.0, "c": 2**70, "d": np.float64(0.1),
           "e": True, "f": None, "g": "x\ny", "": math.inf}],
         "table", 0, False, False)
@example([{}], "table", 0, False, True)
@example([{}, {}], "table", 0, False, False)
@example([{1: 0.5, 2: None}, {1: 2, 2: "x"}], "table", 0, False, False)
@example([["a", "b"], ["a", "b"]], "table", 0, False, True)
def test_to_json_table_matches_oracle(rows, kind, index, as_tuple, wrapped):
    """A list of same-key dicts of scalars (``report-thm31``'s samples)
    is written one column at a time; a tuple of them, or a list with one
    row that is not like the others, is written as before."""
    rows[index % len(rows)] = NEAR_MISSES[kind](rows[index % len(rows)])
    obj = tuple(rows) if as_tuple else rows
    if wrapped:
        obj = {"curve": "x", "samples": obj}
    assert to_json(obj) == oracle_json(obj)


CELLS = (FLOATS | FLOATS.map(np.float64) | st.integers(-10**20, 10**20)
         | st.booleans())


@given(st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width)
                           .map(tuple), max_size=6)
    .map(lambda rows: (tuple(f"c{i}" for i in range(width)), rows))))
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_oracle(tmp_path_factory, table):
    header, rows = table
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "new.csv", header, rows)
    oracle_csv(out / "old.csv", header, rows)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_write_csv_rejects_a_non_number(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("index", "name"),
                  [(0, 1.5), (1, "x")])
    assert not (tmp_path / "t.csv").exists()


def oracle_svg(u_range, v_range, polyline, seed=None, width=640, height=480):
    margin = 40.0
    u0, u1 = u_range
    v0, v1 = v_range
    su = (width - 2 * margin) / (u1 - u0)
    sv = (height - 2 * margin) / (v1 - v0)

    def px(u, v):
        return (margin + (u - u0) * su,
                height - margin - (v - v0) * sv)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin:.2f}" y="{margin:.2f}" '
        f'width="{width - 2 * margin:.2f}" height="{height - 2 * margin:.2f}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if len(polyline):
        points = " ".join(f"{x:.4f},{y:.4f}"
                          for x, y in (px(u, v) for u, v in polyline))
        parts.append(f'<polyline points="{points}" fill="none" '
                     'stroke="#1f77b4" stroke-width="1.5"/>')
    if seed is not None:
        x, y = px(seed[0], seed[1])
        parts.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="4" '
                     'fill="#d62728"/>')
    parts.append(
        f'<text x="{margin:.2f}" y="{height - 12:.2f}" font-size="12" '
        f'fill="#444">u: [{fmt(u0)}, {fmt(u1)}]  v: [{fmt(v0)}, {fmt(v1)}]'
        '</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


COORDS = st.floats(-1e6, 1e6) | st.sampled_from(EDGE_FLOATS)


@given(st.lists(st.tuples(COORDS, COORDS), max_size=40),
       st.none() | st.tuples(COORDS, COORDS))
@settings(max_examples=300, deadline=None)
@example([], None)
@example([], (0.5, 0.5))
@example([(0.5, -0.25)], None)
@example([(0.5, -0.25)], (0.5, -0.25))
def test_parameter_plot_svg_matches_oracle(polyline, seed):
    for u_range, v_range in (((0.0, 6.283185307179586), (-1.5, 1.5)),
                             ((-5, 5), (0.25, 3.0))):
        assert parameter_plot_svg(u_range, v_range, polyline, seed=seed) == \
            oracle_svg(u_range, v_range, polyline, seed=seed)


def test_parameter_plot_svg_of_vertex_arrays_matches_oracle():
    """A traced polyline comes as an (n, 2) array: 200 random ones, the
    empty and the one-vertex among them, against the per-vertex oracle."""
    rng = np.random.default_rng(20261019)
    sizes = [0, 1, *rng.integers(2, 700, 198)]
    for n in sizes:
        lo = rng.uniform(-10.0, 10.0, 2)
        u_range, v_range = [(float(a), float(a + rng.uniform(0.1, 20.0)))
                            for a in lo]
        # Inside the domain and past it by half its width.
        uv = np.column_stack([rng.uniform(a - (b - a) / 2, b + (b - a) / 2, n)
                              for a, b in (u_range, v_range)])
        seed = tuple(uv[0].tolist()) if n else None
        want = oracle_svg(u_range, v_range, uv.tolist(), seed=seed)
        assert parameter_plot_svg(u_range, v_range, uv, seed=seed) == want
        assert parameter_plot_svg(u_range, v_range, uv.tolist(),
                                  seed=seed) == want


def test_every_writer_prints_any_nan_alike(tmp_path):
    """Which NaN a value holds never reaches an output, so the generated
    programs keep NaN where the tree walk gives NaN, not its bits."""
    payload = struct.unpack("<d", bytes.fromhex("230100000000f87f"))[0]
    nans = [math.nan, -math.nan, payload]
    assert len({struct.pack("<d", x) for x in nans}) == 3  # three NaNs
    outputs = []
    for i, x in enumerate(nans):
        write_csv(tmp_path / f"{i}.csv", ("a", "b"), [(x, 1.0), (0.5, x)])
        outputs.append((
            fmt(x), (tmp_path / f"{i}.csv").read_bytes(),
            to_json({"x": x, "row": [x, 0.5], "nested": {"y": [x]}}),
            parameter_plot_svg((0.0, 1.0), (0.0, 1.0), [(x, 0.5), (0.5, x)],
                               seed=(x, x))))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == "nan" and '"x": NaN' in outputs[0][2]
