"""Batched arc-length sampling: array evaluation, accuracy, failures.

The oracles are the scalar ``ambient_jet`` call (bit for bit) and arc
length integrated in mpmath at 20 digits.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from tpcurves import (
    curves,
    parse_curve,
    parse_surface,
    reparametrize_arclength,
)
from tpcurves.errors import DomainError, IrregularCurve
from tpcurves.surface import ambient_jet

BUILTIN_CURVES = ("plane_circle", "cone_circle", "cone_circle_v2",
                  "cone_ruling", "sphere_latitude", "sphere_meridian",
                  "offset_latitude", "catenoid_line", "cylinder_helix")
PLANE = parse_surface("(u, v, 0)", (-5, 5), (-5, 5), name="plane")
PARABOLOID = parse_surface("(u, v, u^2 + v^2)", (-2, 2), (-2, 2),
                           name="paraboloid")
ELLIPSE = parse_curve("3*cos(t)", "sin(t)", (0, 2 * math.pi), name="ellipse")
FIGURE_EIGHT = parse_curve("cos(t)", "0.5*sin(2*t)", (0, 2 * math.pi),
                           name="figure_eight")
SPIRAL = parse_curve("exp(t/3)*cos(t)", "exp(t/3)*sin(t)", (0, 4.5),
                     name="spiral")
EXTRA = {"ellipse": (PLANE, ELLIPSE),
         "paraboloid": (PARABOLOID, FIGURE_EIGHT),
         "spiral": (PLANE, SPIRAL)}


def _host(scene, name):
    return EXTRA[name] if name in EXTRA else scene.curve_host(name)


@pytest.mark.parametrize("name", BUILTIN_CURVES + tuple(EXTRA))
def test_array_ambient_jet_matches_scalar_bits(scene, name):
    patch, curve = _host(scene, name)
    t0, t1 = curve.t_range
    ts = np.concatenate((np.linspace(t0, t1, 23),
                         np.random.default_rng(7).uniform(t0, t1, 20)))
    cj, gamma, d1, d2, d3 = ambient_jet(patch, curve, ts)
    for i, t in enumerate(ts.tolist()):
        one = ambient_jet(patch, curve, t)
        for batch, scalar in zip((gamma, d1, d2, d3), one[1:]):
            assert batch[:, i].tobytes() == scalar.tobytes()
        for coord in ("u", "v"):
            for order in ("f", "d1", "d2", "d3"):
                value = np.broadcast_to(getattr(getattr(cj, coord), order),
                                        ts.shape)[i]
                scalar = np.float64(getattr(getattr(one[0], coord), order))
                assert value.tobytes() == scalar.tobytes()


def test_array_domain_checks_name_first_failing_node():
    line = parse_curve("t", "0", (0, 10), name="line")
    with pytest.raises(DomainError, match=r"^t=11.0 outside \[0.0, 10.0\]"):
        ambient_jet(PLANE, line, np.array([1.0, 11.0, 12.0]))
    with pytest.raises(DomainError, match=r"^curve point \(6.0, 0.0\) at t=6"):
        ambient_jet(PLANE, line, np.array([1.0, 6.0, 7.0]))


def test_samples_carry_floats_and_contiguous_vectors(scene):
    patch, curve = scene.curve_host("catenoid_line")
    for s in reparametrize_arclength(patch, curve, 9):
        for field in ("s", "t", "u", "v", "du", "dv", "ddu", "ddv", "dddu",
                      "dddv"):
            assert type(getattr(s, field)) is float
        for field in ("gamma", "dgamma", "ddgamma", "dddgamma"):
            vec = getattr(s, field)
            assert vec.shape == (3,) and vec.flags.c_contiguous


# Speed |dgamma/dt| of each extra curve, written out by hand in mpmath.
def _ellipse_speed(mp, t):
    return mp.sqrt(9 * mp.sin(t) ** 2 + mp.cos(t) ** 2)


def _figure_eight_speed(mp, t):
    u, v = mp.cos(t), mp.sin(2 * t) / 2
    du, dv = -mp.sin(t), mp.cos(2 * t)
    return mp.sqrt(du ** 2 + dv ** 2 + (2 * u * du + 2 * v * dv) ** 2)


def _spiral_speed(mp, t):
    return mp.exp(t / 3) * mp.sqrt(mp.mpf(10) / 9)


ORACLE_SPEEDS = {"ellipse": _ellipse_speed, "paraboloid": _figure_eight_speed,
                 "spiral": _spiral_speed}


@pytest.mark.parametrize("n", (9, 50, 200))
@pytest.mark.parametrize("name", tuple(EXTRA))
def test_arc_length_matches_mpmath(name, n):
    mpmath = pytest.importorskip("mpmath")
    patch, curve = EXTRA[name]
    speed = ORACLE_SPEEDS[name]
    worst = 0.0
    with mpmath.workdps(20):
        s_exact, t_prev = mpmath.mpf(0), mpmath.mpf(curve.t_range[0])
        for sample in reparametrize_arclength(patch, curve, n):
            t = mpmath.mpf(sample.t)
            s_exact += mpmath.quad(lambda x: speed(mpmath, x), [t_prev, t],
                                     method="gauss-legendre")
            t_prev = t
            worst = max(worst, abs(float(s_exact) - sample.s))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", (9, 50, 200))
@pytest.mark.parametrize("u_text", ("t^3", "t^2"))
def test_speed_zero_between_gauss_nodes_raises(u_text, n):
    """The speed vanishes only at t = 0, the midpoint of the range; no Gauss
    node lands there, the panel edge does."""
    stopped = parse_curve(u_text, "0", (-1, 1), name="stopped")
    with pytest.raises(IrregularCurve, match="speed 0.0 at t=0.0"):
        reparametrize_arclength(PLANE, stopped, n)


@pytest.mark.parametrize("constant, value, match", [
    ("_MAX_LEVELS", 1, "not resolved"),
    ("_MAX_PANELS", 2, "not resolved"),
    ("_NEWTON_ITERS", 1, "did not converge"),
])
def test_unconverged_sampling_raises(monkeypatch, constant, value, match):
    reparametrize_arclength(PLANE, ELLIPSE, 50)  # converges as shipped
    monkeypatch.setattr(curves, constant, value)
    with pytest.raises(IrregularCurve, match=match):
        reparametrize_arclength(PLANE, ELLIPSE, 50)


def test_empty_parameter_range_raises():
    point = parse_curve("t", "0", (1, 1), name="point")
    with pytest.raises(IrregularCurve, match="empty parameter range"):
        reparametrize_arclength(PLANE, point, 9)


def test_library_has_no_assert_statements():
    """``python -O`` strips ``assert``; library checks must raise."""
    package = Path(curves.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
