"""The JSON and CSV writers against the writers they replaced.

The oracles are the earlier implementations, kept verbatim: JSON went
through a copy that re-parsed every float from its 17-digit form and then
through ``json.dumps(sort_keys=True, indent=2)`` (the pure-Python encoder);
CSV formatted one cell per call.  Both new writers must give the same bytes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpcurves.report import fmt, to_json, write_csv, write_text


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
