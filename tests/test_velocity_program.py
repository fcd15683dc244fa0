"""The velocity program against the first-derivative rows of ``ambient_jet``.

``ambient_velocity`` at a 1-D array of nodes must give
``ambient_jet(patch, curve, t)[2]`` bit for bit (signed zeros included),
NaN at the same nodes, and the same error type and text where that
raises.  Each comparison runs with the patch's velocity program compiled
(tier 0, as shipped) and with its tier forced to infinity, so that the
tree walk over Jet1 answers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tangency_kernel import _trees

from tpcurves import parse_curve
from tpcurves.errors import GeometryError
from tpcurves.surface import (_PROGRAMS, SurfacePatch, ambient_jet,
                              ambient_velocity, parse_surface)

BUILTIN_CURVES = ("plane_circle", "cone_circle", "cone_circle_v2",
                  "cone_ruling", "sphere_latitude", "sphere_meridian",
                  "offset_latitude", "catenoid_line", "cylinder_helix")

# Paths over the random patches' domain [-3, 3]^2 that pass through u = 0
# or v = 0, where the signed zeros of the parameters show.
PATHS = (parse_curve("t", "0.5*t - 0.25", (-2, 2), name="line"),
         parse_curve("2*cos(t)", "2*sin(t)", (-4, 4), name="circle"),
         parse_curve("t*t - 1", "-t", (-1.5, 1.5), name="parabola"))


@pytest.fixture(params=(0, math.inf), ids=("compiled", "ring"))
def tier(request, monkeypatch):
    monkeypatch.setitem(_PROGRAMS, "velocity",
                        (*_PROGRAMS["velocity"][:3], request.param))
    return request.param


def outcome(call):
    """The rows' NaN mask and the bits of their other entries, or the
    error's type and text."""
    try:
        rows = call()
    except GeometryError as exc:
        return type(exc), str(exc)
    nan = np.isnan(rows)
    return rows.shape, nan.tobytes(), rows[~nan].tobytes()


def same_outcome(patch, curve, t):
    got = outcome(lambda: ambient_velocity(patch, curve, t))
    assert got == outcome(lambda: ambient_jet(patch, curve, t)[2])
    return got


def nodes(curve, extra=()):
    t0, t1 = curve.t_range
    return np.concatenate((np.linspace(t0, t1, 41), extra))


@pytest.mark.parametrize("name", BUILTIN_CURVES)
def test_builtin_curves_match_ambient_jet(scene, tier, name):
    patch, curve = scene.curve_host(name)
    t0, t1 = curve.t_range
    rng = np.random.default_rng(11)
    got = same_outcome(patch, curve, nodes(curve, rng.uniform(t0, t1, 30)))
    assert len(got) == 3  # no error on a built-in curve


@given(st.tuples(_trees(), _trees(), _trees()), st.sampled_from(PATHS))
@settings(max_examples=150, deadline=None)
def test_random_patches_match_ambient_jet(components, path):
    for tier in (0, math.inf):
        # A fresh patch: its velocity program compiles at its first call.
        patch = SurfacePatch(name="random", components=components,
                             u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(_PROGRAMS, "velocity",
                       (*_PROGRAMS["velocity"][:3], tier))
            same_outcome(patch, path, nodes(path, [0.0, -0.0, 0.5]))


@pytest.mark.parametrize("surface, error", [
    # log of a non-positive u, from the first node on.
    ("(u, v, log(u))", "EvalError"),
    # sqrt of a negative v.
    ("(u, v, sqrt(v))", "EvalError"),
    # 1/u at u = 0.
    ("(u, v, 1/u)", "EvalError"),
    # Off the domain [-1, 1] x [-3, 3] at the first node past u = 1.
    ("(u, v, u*v)", "DomainError"),
])
def test_errors_match_ambient_jet(tier, surface, error):
    patch = parse_surface(surface, (-1, 1) if "u*v" in surface else (-3, 3),
                          (-3, 3), name="failing")
    path = parse_curve("t", "t", (-2, 2), name="diagonal")
    got = same_outcome(patch, path, np.linspace(-2.0, 2.0, 41))
    assert got[0].__name__ == error
