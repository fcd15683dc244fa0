"""The arc-length table against the two-pass table it replaced, and the
sampler's domain check, made once per curve and domain.

The table's first pass integrates the whole range's two panels and their
four halves together.  The oracle is the table as it was before, with the
whole range in a pass of its own, over ``ambient_jet``'s first-derivative
rows: the edges and cumulative lengths must agree bit for bit, and a curve
that fails must raise the same error with the same text.
"""

import math

import numpy as np
import pytest
from test_sampling import EXTRA

from tpcurves import parse_curve, parse_surface, sample_arclength
from tpcurves.curves import (_GL_NODES, _GL_WEIGHTS, _MAX_LEVELS,
                             _MAX_PANELS, _PANEL_TOL, _arclength_table,
                             _speed)
from tpcurves.errors import DomainError, GeometryError, IrregularCurve
from tpcurves.surface import CurvePath, ambient_jet

BUILTIN_CURVES = ("plane_circle", "cone_circle", "cone_circle_v2",
                  "cone_ruling", "sphere_latitude", "sphere_meridian",
                  "offset_latitude", "catenoid_line", "cylinder_helix")


def oracle_gauss(patch, curve, lo, hi, extra=()):
    """Gauss-Legendre integrals of the speed over the panels [lo, hi],
    and the speed at the parameters ``extra``, from one ambient-jet pass."""
    nodes = (lo[:, None] + (hi - lo)[:, None] * _GL_NODES).ravel()
    t = np.concatenate((nodes, extra))
    speed = _speed(curve, t, ambient_jet(patch, curve, t)[2])
    at_nodes = speed[:nodes.size].reshape(lo.size, _GL_NODES.size)
    return (hi - lo) * (at_nodes * _GL_WEIGHTS).sum(axis=1), speed[nodes.size:]


def oracle_table(patch, curve):
    """The table with the whole range's two panels in a pass of their own,
    then one pass per level."""
    t0, t1 = curve.t_range
    mid = 0.5 * (t0 + t1)
    lo, hi = np.array([t0, mid]), np.array([mid, t1])
    whole, _ = oracle_gauss(patch, curve, lo, hi, extra=[t0, mid, t1])
    settled_lo, settled_len = [], []
    for _ in range(_MAX_LEVELS):
        if lo.size > _MAX_PANELS:
            break
        mid = 0.5 * (lo + hi)
        halves, _ = oracle_gauss(patch, curve, np.concatenate((lo, mid)),
                                 np.concatenate((mid, hi)), extra=mid)
        left, right = halves[:lo.size], halves[lo.size:]
        both = left + right
        ok = np.abs(both - whole) <= _PANEL_TOL * both
        settled_lo += [lo[ok], mid[ok]]
        settled_len += [left[ok], right[ok]]
        split = ~ok
        if not split.any():
            edges, lengths = zip(*sorted(zip(
                np.concatenate(settled_lo).tolist(),
                np.concatenate(settled_len).tolist())))
            return (np.array(edges + (t1,)),
                    np.concatenate(([0.0], np.cumsum(lengths))))
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
        whole = np.concatenate((left[split], right[split]))
    raise IrregularCurve(
        f"arc length of curve '{curve.name}' not resolved within "
        f"{_MAX_LEVELS} refinement levels and {_MAX_PANELS} panels")


def outcome(table, patch, curve):
    try:
        edges, cumulative = table(patch, curve)
    except GeometryError as exc:
        return type(exc), str(exc)
    return edges.tobytes(), cumulative.tobytes()


def test_builtin_tables_match_the_oracle(scene):
    for name in BUILTIN_CURVES:
        patch, curve = scene.curve_host(name)
        got = outcome(_arclength_table, patch, curve)
        assert got == outcome(oracle_table, patch, curve), name
        assert len(got) == 2 and len(got[0]) == 5 * 8, name  # level one


@pytest.mark.parametrize("name", tuple(EXTRA))
def test_multilevel_tables_match_the_oracle(name):
    patch, curve = EXTRA[name]
    got = outcome(_arclength_table, patch, curve)
    assert got == outcome(oracle_table, patch, curve)
    # The spiral settles at level one, the others past it.
    assert (len(got[0]) > 5 * 8) == (name != "spiral")


STRIP = parse_surface("(u, v, 0)", (-1, 2), (-1, 2), name="strip")
# The first Gauss node of the first half of [0, 1]'s first panel [0, 0.5].
HALF_NODE = 0.25 * float(_GL_NODES[0])
# u = 2.01 at HALF_NODE and within 2e-9 of 1.99 at every node the load-time
# check, the first panels and the other halves evaluate.
BUMP = f"1.99 + 0.02*exp(-((t - {HALF_NODE!r})/0.0007)^2)"


@pytest.mark.parametrize("u, v, error, text", [
    # Speed zero at a split point of the first level, t0 + (t1 - t0)/4.
    ("(t - 0.25)^3", "0", IrregularCurve,
     "curve 'path' speed 0.0 at t=0.25"),
    # Off the domain only at a half's Gauss node.
    (BUMP, "t", DomainError,
     f"at t={HALF_NODE!r} outside domain of 'strip'"),
    # Both: the speed zero at t0 is in the first panels' pass, the domain
    # failure in the halves'; a pass per set raises the first.
    (BUMP, "t^2", IrregularCurve, "at t=0.0"),
])
def test_failures_keep_their_text(u, v, error, text):
    path = parse_curve(u, v, (0, 1), name="path")
    path.check_on(STRIP)  # passes: the failure is the table's
    got = outcome(_arclength_table, STRIP, path)
    assert got == outcome(oracle_table, STRIP, path)
    assert got[0] is error and got[1].endswith(text)
    with pytest.raises(error) as raised:
        sample_arclength(STRIP, path, 20)
    assert str(raised.value) == got[1]


# The domain check: one pass of CurvePath.jet at 129 parameters per curve
# and domain it passes on.

SQUARE = parse_surface("(u, v, 0)", (-3, 3), (-3, 3), name="square")
SMALL = parse_surface("(u, v, 0)", (-1.5, 1.5), (-1.5, 1.5), name="small")
WIDE = parse_surface("(u, v, u*v)", (-4, 4), (-4, 4), name="wide")


@pytest.fixture
def checks(monkeypatch):
    """The name of the curve at each 129-parameter pass of CurvePath.jet."""
    calls = []
    jet = CurvePath.jet

    def counted(self, t):
        if np.size(t) == 129:
            calls.append(self.name)
        return jet(self, t)

    monkeypatch.setattr(CurvePath, "jet", counted)
    return calls


def circle():
    return parse_curve("2*cos(t)", "2*sin(t)", (0, 2 * math.pi),
                       name="circle")


def test_a_passed_check_is_kept(checks):
    curve = circle()
    first = sample_arclength(SQUARE, curve, 20)
    assert checks == ["circle"]
    again = sample_arclength(SQUARE, curve, 20)
    assert checks == ["circle"]
    assert again.s.tobytes() == first.s.tobytes()


def test_a_loaded_curve_is_not_checked_again(scene, checks):
    # A scene's curves pass the check at load.
    patch, curve = scene.curve_host("plane_circle")  # not affine
    sample_arclength(patch, curve, 20)
    assert checks == []


def test_a_curve_on_another_domain_is_checked_there(checks):
    curve = circle()
    sample_arclength(SQUARE, curve, 20)
    sample_arclength(WIDE, curve, 20)  # not the host: checked on WIDE
    sample_arclength(WIDE, curve, 20)
    sample_arclength(SQUARE, curve, 20)
    assert checks == ["circle", "circle"]


def test_a_failed_check_is_not_kept(checks):
    curve = circle()
    text = ("curve 'circle' leaves domain of 'small' at t=0.0: "
            "(u, v)=(2.0, 0.0)")
    for _ in range(2):
        with pytest.raises(DomainError) as raised:
            sample_arclength(SMALL, curve, 20)
        assert str(raised.value) == text
    with pytest.raises(DomainError) as raised:
        curve.check_on(SMALL)
    assert str(raised.value) == text
    assert checks == ["circle"] * 3
    sample_arclength(SQUARE, curve, 20)  # still checked on a domain it fits
    assert checks == ["circle"] * 4
