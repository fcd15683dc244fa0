"""``ambient_dot`` against the per-row loop it replaced.

The ambient side of every position identity is ``ambient_dot``.  It was one
``np.dot`` per column, called from Python; it is now one ``np.vecdot`` over
the same contiguous rows.  The loop is kept here verbatim as the oracle,
and every result must have its bits: ``-0.0`` is not ``0.0``, and NaN falls
at the same positions (which NaN is not kept; see README, "NaN is one
value").
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batched_identities import CURVES

from tpcurves import cli, sample_arclength
from tpcurves.curves import ambient_dot


def oracle_ambient_dot(a, b):
    if a.ndim == 1:
        return np.dot(a, b)
    rows_a, rows_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    return np.fromiter(map(np.dot, rows_a, rows_b), float, len(rows_a))


def assert_same_bits(a, b):
    """``ambient_dot(a, b)`` has the oracle's bits, and overflows to inf
    with no warning (the oracle's ``np.dot`` warns)."""
    got = ambient_dot(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        want = oracle_ambient_dot(a, b)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == float
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64),
                          want[~nan].view(np.int64))


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
         -1e-300, 1e300, -1e300, 1.7976931348623157e308, np.inf, -np.inf,
         np.nan, 1.0, -1.0, 0.1]


def column_classes(rng, n):
    """(3, n) arrays of each value class: random, scaled by 1e+-300 (so
    products underflow or overflow), signed zeros, subnormals, and edge
    values mixed with random ones (inf, NaN, overflow to inf - inf)."""
    normal = rng.standard_normal((3, n))
    edges = rng.choice(EDGES, size=(3, n))
    mixed = np.where(rng.random((3, n)) < 0.3, edges, normal)
    return [normal, normal * 1e300, normal * 1e-300, normal * 1e-160,
            np.copysign(np.zeros((3, n)), normal),
            normal * 5e-324 * rng.integers(1, 4, (3, n)),
            edges, mixed]


def layouts(a):
    """``a`` as a C-ordered (3, n) array, as the transposed view of a
    C-ordered (n, 3) array (how CurveSample stores gamma), and strided."""
    wide = np.repeat(a, 2, axis=1)
    wide[:, 1::2] = np.nan
    return [np.ascontiguousarray(a), np.ascontiguousarray(a.T).T,
            wide[:, ::2]]


@pytest.mark.parametrize("n,draws", [(0, 20), (1, 20), (2, 20), (3, 20),
                                     (200, 4), (5000, 1)])
def test_columns_match_the_per_row_loop(n, draws):
    rng = np.random.default_rng(n)
    for _ in range(draws):
        pool = column_classes(rng, n)
        for a in pool:
            b = pool[rng.integers(len(pool))]
            for x, y in zip(layouts(a), layouts(b)):
                assert_same_bits(x, y)
                assert_same_bits(x, x)


FLOATS = st.floats() | st.sampled_from(EDGES)


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    *[st.lists(FLOATS, min_size=n, max_size=n) for _ in range(6)])),
    st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_drawn_columns_match_the_per_row_loop(rows, layout):
    a = np.array(rows[:3], dtype=float).reshape(3, -1)
    b = np.array(rows[3:], dtype=float).reshape(3, -1)
    x, y = layouts(a)[layout], layouts(b)[layout]
    assert_same_bits(x, y)
    for j in range(a.shape[1]):  # the 1-D branch
        assert_same_bits(a[:, j], b[:, j])


@pytest.mark.parametrize("curve", CURVES)
def test_curve_samples_match_the_per_row_loop(scene, curve):
    s = sample_arclength(*scene.curve_host(curve), 200)
    for a, b in ((s.gamma, s.gamma), (s.dgamma, s.gamma)):
        assert_same_bits(a, b)


def test_report_dot_count_does_not_grow_with_samples(monkeypatch, tmp_path):
    """``report-thm31`` makes as many ``np.dot`` calls at 200 samples as at
    50: no per-sample loop is left on its ambient side."""
    calls = []
    dot = np.dot

    def counted(*args, **kwargs):
        calls.append(1)
        return dot(*args, **kwargs)

    monkeypatch.setattr(np, "dot", counted)
    counts = []
    for n in (50, 200):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["report-thm31", "plane_circle", "--samples",
                             str(n), "--out", str(tmp_path / str(n)),
                             "--format", "json"]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
