"""The batched geometry record as one generated program per patch, against
the ring path.

A patch's record program (``SurfacePatch._program("record")``) maps 1-D
arrays of nodes (u, v) to the coefficients of the component jets over Jet2
and of the record's fields E, F, G, det, area, g, lam and mu over Field2.
Its oracle and error path is the ring path, ``PointGeometry`` over
``SurfacePatch.jet_batch``: every coefficient must have the ring path's
bits at every node (NaN, of any bits, at the same nodes), be absent
(``ZERO``) where it is absent and stay a float where it stays a float; the
program returns None exactly where the ring path raises, and then
``point_geometry`` raises the error the per-point loop meets first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_program import (MIXED, POSITIVE, assert_same_coeffs,
                                patch_of, raised)
from test_tangency_kernel import _trees

from tpcurves import point_geometry
from tpcurves.errors import GeometryError
from tpcurves.forms import PointGeometry
from tpcurves.jets import Field2, Jet2
from tpcurves.surface import _PROGRAMS

FIELDS = ("E", "F", "G", "det", "area", "g", "lam", "mu")


def program_record(patch, u, v):
    """(component jets, fields) of the patch's record program, or None."""
    out = patch._program("record")(u, v)
    if out is None:
        return None
    return [Jet2(*c) for c in out[:3]], [Field2(*c) for c in out[3:]]


def record_of(geom):
    """(component jets, fields) of a PointGeometry."""
    return geom.jet.components, [getattr(geom, key) for key in FIELDS]


def ring_record(patch, u, v):
    """(component jets, fields) of the ring path's record."""
    return record_of(PointGeometry(patch.jet_batch(u, v)))


def outcome(fn):
    """``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except GeometryError as exc:
        return type(exc), str(exc)


def assert_same_record(got, want):
    assert_same_coeffs(got[0], want[0])
    assert_same_coeffs(got[1], want[1])


def test_the_record_program_has_the_ring_paths_bits_on_builtin_surfaces(
        scene):
    rng = np.random.default_rng(20261019)
    assert len(scene.surfaces) == 9
    for nodes in (50, 100, 200):
        for name, patch in scene.surfaces.items():
            u = rng.uniform(*patch.u_range, nodes)
            v = rng.uniform(*patch.v_range, nodes)
            got = program_record(patch, u, v)
            assert got is not None, (name, nodes)  # no fallback
            assert_same_record(got, ring_record(patch, u, v))


def first_point_error(patch, u, v):
    """The error of the per-point loop's first failing node, or None."""
    for x, y in zip(u.tolist(), v.tolist()):
        out = outcome(lambda: point_geometry(patch, x, y))
        if raised(out):
            return out
    return None


@given(st.lists(_trees(), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_the_record_program_matches_the_ring_path_on_random_trees(components):
    patch = patch_of(components)
    for u, v in (POSITIVE, MIXED):
        want = outcome(lambda: ring_record(patch, u, v))
        got = program_record(patch, u, v)
        if raised(want):
            assert got is None
        else:
            assert got is not None
            assert_same_record(got, want)
        # point_geometry on a patch past its tier runs the program; where
        # that gives way, it raises the per-point loop's first error.
        with pytest.MonkeyPatch.context() as m:
            m.setitem(_PROGRAMS, "record", (*_PROGRAMS["record"][:3], 0))
            batched = outcome(lambda: point_geometry(patch, u, v))
        if raised(want):
            assert batched == first_point_error(patch, u, v)
        else:
            assert_same_record(record_of(batched), want)
