"""`CurvePath.check_on` on affine paths: both ends decide, the messages of
the sampled check stay.

A path built from constants and ``t`` by ``neg``, ``+``, ``-`` and ``*`` or
``/`` by a constant maps [t0, t1] onto a segment; the slack-widened domain
is convex, so a segment whose ends lie inside it lies inside.  The expected
messages were taken from the 129-point check that every path ran before.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcurves import builtin_scene, expr, parse_curve
from tpcurves.errors import DomainError, EvalError
from tpcurves.expr import Binary, Const, Unary, Var
from tpcurves.surface import CurvePath, parse_surface

AFFINE = ("cone_circle", "cone_circle_v2", "cone_ruling", "sphere_latitude",
          "sphere_meridian", "offset_latitude", "catenoid_line",
          "cylinder_helix")

SQUARE = parse_surface("u, v, 0", (0, 1), (-1, 2), name="square")


def _no_jet(self, t):
    raise AssertionError("affine path was sampled")


def test_builtin_affine_paths_checked_by_endpoints(monkeypatch):
    scene = builtin_scene()
    monkeypatch.setattr(CurvePath, "jet", _no_jet)
    for name in AFFINE:
        patch, curve = scene.curve_host(name)
        curve.check_on(patch)


def test_non_affine_path_still_sampled(monkeypatch):
    scene = builtin_scene()
    patch, curve = scene.curve_host("plane_circle")
    calls = []
    jet = CurvePath.jet
    monkeypatch.setattr(CurvePath, "jet",
                        lambda self, t: calls.append(t) or jet(self, t))
    curve.check_on(patch)
    assert len(calls) == 1 and len(calls[0]) == 129


@pytest.mark.parametrize("u, v, t_range, message", [
    ("t", "0.5", (-0.5, 0.5),
     "at t=-0.5: (u, v)=(-0.5, 0.5)"),
    ("t", "0.5", (0.5, 1.5),
     "at t=1.0078125: (u, v)=(1.0078125, 0.5)"),
    ("0.25", "-t", (-0.5, 1.5),
     "at t=1.015625: (u, v)=(0.25, -1.015625)"),
    ("0.25", "2*t + 1", (-0.5, 0.75),
     "at t=0.505859375: (u, v)=(0.25, 2.01171875)"),
    ("1 - t", "(t - 3)/2", (0, 2),
     "at t=0.0: (u, v)=(1.0, -1.5)"),
])
def test_affine_path_leaving_domain_keeps_message(u, v, t_range, message):
    path = parse_curve(u, v, t_range, name="path")
    with pytest.raises(DomainError) as info:
        path.check_on(SQUARE)
    assert str(info.value) == \
        "curve 'path' leaves domain of 'square' " + message


@pytest.mark.parametrize("u, v", [("t/0", "0"), ("0.5", "-t/0 + 1")])
def test_affine_division_by_zero_keeps_error(u, v):
    with pytest.raises(EvalError, match="^division by zero$"):
        parse_curve(u, v, (0, 1), name="path").check_on(SQUARE)


def test_affine_path_with_inverted_range_keeps_message():
    path = parse_curve("t", "0.5", (0.8, 0.2), name="path")
    with pytest.raises(DomainError) as info:
        path.check_on(SQUARE)
    assert str(info.value) == "t=0.8 outside [0.8, 0.2] of curve 'path'"


@pytest.mark.parametrize("text, affine", [
    ("t", True), ("3", True), ("-t", True), ("2*t - 1", True),
    ("t*2 + t/4", True), ("-(t - 1)/3", True), ("2*pi/3", True),
    ("t*t", False), ("1/t", False), ("t^1", False), ("-2*t", False),
    ("sqrt(2)*t", False), ("cos(t)", False), ("t/(1 + 1)", False),
])
def test_is_affine(text, affine):
    assert expr.is_affine(expr.parse_expression(text, ("t",))) is affine


_SMALL = st.integers(-6, 6).map(lambda k: Const(k / 2))


def _affine_trees():
    return st.recursive(
        st.just(Var("t")) | _SMALL,
        lambda sub: (sub.map(lambda a: Unary("neg", a))
                     | st.tuples(st.sampled_from("+-"), sub, sub)
                     .map(lambda p: Binary(*p))
                     | st.tuples(sub, _SMALL).map(lambda p: Binary("*", *p))
                     | st.tuples(_SMALL, sub).map(lambda p: Binary("*", *p))
                     | st.tuples(sub, _SMALL).map(lambda p: Binary("/", *p))),
        max_leaves=6)


def _outcome(path):
    try:
        path.check_on(SQUARE)
    except (DomainError, EvalError) as exc:
        return type(exc), str(exc)
    return None


@given(_affine_trees(), _affine_trees(),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
@settings(max_examples=300, deadline=None)
def test_endpoint_check_matches_sampled_check(u, v, ends):
    """Every outcome of the endpoint check, pass or error text, is the one
    the sampled pass gives; an inverted range goes to the sampled pass."""
    path = CurvePath("path", u, v, (ends[0] / 4, ends[1] / 4))
    fast = _outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expr, "is_affine", lambda node: False)
        assert _outcome(path) == fast
