"""Batched arc-length sampling: array evaluation, accuracy, failures.

The oracles are the scalar ``ambient_jet`` call (bit for bit) and arc
length integrated in mpmath at 20 digits.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from sample_list import split_samples

from tpcurves import (
    CurveSample,
    cli,
    curves,
    parse_curve,
    parse_surface,
    sample_arclength,
)
from tpcurves.errors import DomainError, IrregularCurve
from tpcurves.scene import load_scene
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


@pytest.mark.parametrize("n", (2, 7, 50, 200))
@pytest.mark.parametrize("name", BUILTIN_CURVES)
def test_stacked_sampler_equals_stacked_list(scene, name, n):
    """Every field of the stacked sampler is laid out as a list of single
    samples stacked by ``np.array(rows).T``, constant coordinates
    included: a writeable float (n,) array, or the (3, n) transpose of a
    C-contiguous (n, 3) array."""
    patch, curve = scene.curve_host(name)
    got = sample_arclength(patch, curve, n)
    for field in dataclasses.fields(CurveSample):
        a = getattr(got, field.name)
        rows = [getattr(s, field.name) for s in split_samples(got)]
        want = np.array(rows).T
        assert (a.shape, a.dtype, a.strides, a.flags.writeable) == \
            (want.shape, want.dtype, want.strides, True), field.name
        assert a.tobytes() == want.tobytes(), field.name


def test_constant_coordinate_is_a_float_array(scene):
    patch, curve = scene.curve_host("cone_circle")
    batch = sample_arclength(patch, curve, 7)
    for name in ("v", "dv", "ddv", "dddv"):
        x = getattr(batch, name)
        assert x.shape == (7,) and x.dtype == np.float64
        assert np.unique(x).size == 1, name


FAILING_SCENE = """\
[surface disc]
components = (u, v, 0)
u_range = -2, 2
v_range = -2, 2

[surface square]
components = (u, v, u*v)
u_range = -1, 1
v_range = -1, 1

[curve loop]
surface = disc
u = 1.5*cos(t)
v = sin(t)
t_range = 0, 2*pi

[curve wobble]
surface = disc
u = 1.99 + 0.02*sin(128*pi*t)^2
v = t
t_range = 0, 1

[curve stall]
surface = disc
u = t^3
v = 0
t_range = -1, 1
"""


@pytest.mark.parametrize("surface, curve, error, match", [
    # Off the other patch at the first domain test.
    ("square", "loop", DomainError, "leaves domain of 'square' at t=0.0"),
    # Passes the load-time test between its test points, leaves at a node.
    ("disc", "wobble", DomainError, "^curve point .* outside domain"),
    ("disc", "stall", IrregularCurve, "speed 0.0 at t=0.0"),
])
def test_config_curve_failures_keep_their_text(tmp_path, capsys, surface,
                                               curve, error, match):
    path = tmp_path / "scene.ini"
    path.write_text(FAILING_SCENE)
    scene = load_scene(path)
    patch, path_curve = scene.surface(surface), scene.curve(curve)
    with pytest.raises(error, match=match) as raised:
        sample_arclength(patch, path_curve, 20)
    if surface == "disc":  # the curve's host: report-thm31 says the same
        rc = cli.main(["report-thm31", curve, "--config", str(path),
                       "--samples", "20"])
        assert rc == 2  # an analysis error
        assert capsys.readouterr().err == f"error: {raised.value}\n"


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
        for sample in split_samples(sample_arclength(patch, curve, n)):
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
        sample_arclength(PLANE, stopped, n)


@pytest.mark.parametrize("constant, value, match", [
    ("_MAX_LEVELS", 1, "not resolved"),
    ("_MAX_PANELS", 2, "not resolved"),
    ("_NEWTON_ITERS", 1, "did not converge"),
])
def test_unconverged_sampling_raises(monkeypatch, constant, value, match):
    sample_arclength(PLANE, ELLIPSE, 50)  # converges as shipped
    monkeypatch.setattr(curves, constant, value)
    with pytest.raises(IrregularCurve, match=match):
        sample_arclength(PLANE, ELLIPSE, 50)


def test_empty_parameter_range_raises():
    point = parse_curve("t", "0", (1, 1), name="point")
    with pytest.raises(IrregularCurve, match="empty parameter range"):
        sample_arclength(PLANE, point, 9)


def test_library_has_no_assert_statements():
    """``python -O`` strips ``assert``; library checks must raise."""
    package = Path(curves.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
