"""Position-vector decomposition, coefficient systems, component identities."""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from sample_list import split_samples

from tpcurves import (
    binormal_formula_check,
    frame_coefficients,
    frenet,
    geodesic_curvature_formula,
    point_geometry,
    position_component_report,
    ratio_identity_check,
    sample_arclength,
    surface_curvatures,
    tangency_gradient,
    velocity_coefficients,
)
from tpcurves.checks import _curve_residuals
from tpcurves.errors import FrameUndefined
from tpcurves.jets import dot3
from tpcurves.scene import load_scene_text

SQRT3 = math.sqrt(3.0)


# --- tangency residual ---------------------------------------------------

def test_plane_through_origin_tangency(scene):
    plane = scene.surface("plane")
    for u, v in [(0.0, 0.0), (3.0, -2.0), (-4.5, 4.5)]:
        assert tangency_gradient(plane, u, v)[0] == pytest.approx(
            0.0, abs=1e-14)


def test_origin_sphere_tangency_is_unit(scene):
    sphere = scene.surface("sphere")
    for u, v in [(0.5, 1.0), (2.0, 4.0), (math.pi / 2, 0.0)]:
        assert abs(tangency_gradient(sphere, u, v)[0]) == pytest.approx(
            1.0, abs=1e-13)


def test_offset_sphere_tangency_formula(scene):
    patch = scene.surface("offset_sphere")
    for theta in (0.5, 1.2, 2.0, 2.8):
        expected = 1.0 + 2.0 * math.cos(theta)
        assert tangency_gradient(patch, theta, 0.7)[0] == pytest.approx(
            expected, abs=1e-13)
    locus = 2 * math.pi / 3
    assert tangency_gradient(patch, locus, 1.0)[0] == pytest.approx(0.0,
                                                                 abs=1e-15)


# --- decomposition -------------------------------------------------------

def reconstruction_residual(geom):
    """| phi - lam phi_u - mu phi_v - g N | at the record's point."""
    jet = geom.jet
    diff = jet.value - (geom.lam.f * jet.du + geom.mu.f * jet.dv
                        + geom.g.f * geom.second.unit_normal)
    return math.sqrt(dot3(diff, diff))


def test_plane_decomposition_is_coordinates(scene):
    geom = point_geometry(scene.surface("plane"), 3.0, -2.0)
    assert geom.lam.f == pytest.approx(3.0, abs=1e-14)
    assert geom.mu.f == pytest.approx(-2.0, abs=1e-14)
    assert geom.g.f == pytest.approx(0.0, abs=1e-14)


def test_cone_decomposition_radial(scene):
    cone = scene.surface("cone")
    for u, v in [(0.3, 0.5), (2.0, 1.0), (4.0, 2.5)]:
        geom = point_geometry(cone, u, v)
        assert geom.lam.f == pytest.approx(0.0, abs=1e-13)
        assert geom.mu.f == pytest.approx(v, rel=1e-13)


def test_offset_sphere_circle_decomposition(scene):
    patch = scene.surface("offset_sphere")
    geom = point_geometry(patch, 2 * math.pi / 3, 2.4)
    assert geom.lam.f == pytest.approx(-SQRT3, rel=1e-12)
    assert geom.mu.f == pytest.approx(0.0, abs=1e-12)


def test_decomposition_exactness_everywhere(scene):
    rng = np.random.default_rng(17)
    for name in ("plane", "cone", "sphere", "offset_sphere",
                 "catenoid", "helicoid", "cylinder", "paraboloid"):
        patch = scene.surface(name)
        (u0, u1), (v0, v1) = patch.u_range, patch.v_range
        for _ in range(200):
            u = rng.uniform(u0 + 0.02 * (u1 - u0), u1 - 0.02 * (u1 - u0))
            v = rng.uniform(v0 + 0.02 * (v1 - v0), v1 - 0.02 * (v1 - v0))
            assert reconstruction_residual(point_geometry(patch, u, v)) \
                < 1e-10


# --- coefficient systems -------------------------------------------------

TP_CURVES = ("plane_circle", "cone_circle", "cone_circle_v2",
             "offset_latitude")


@pytest.mark.parametrize("name", TP_CURVES)
def test_velocity_identities_along_tangent_position_curves(scene, name):
    patch, curve = scene.curve_host(name)
    for s in split_samples(sample_arclength(patch, curve, 25)):
        geom = point_geometry(patch, s.u, s.v)
        co = frame_coefficients(geom, s)
        assert abs(co.a1 - s.du) < 1e-8
        assert abs(co.a2 - s.dv) < 1e-8
        assert abs(co.a3) < 1e-8
        assert abs(co.b3 - surface_curvatures(geom, s).kappa_n) < 1e-8


def test_plane_circle_coefficients_trivial(scene):
    patch, curve = scene.curve_host("plane_circle")
    s = split_samples(sample_arclength(patch, curve, 9))[2]
    co = frame_coefficients(point_geometry(patch, s.u, s.v), s)
    assert co.a1 == pytest.approx(s.du, abs=1e-12)
    assert co.a2 == pytest.approx(s.dv, abs=1e-12)
    assert co.a3 == pytest.approx(0.0, abs=1e-14)
    assert co.b3 == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("v0,curve_name", [(1.0, "cone_circle"),
                                           (2.0, "cone_circle_v2")])
def test_cone_circle_coefficients(scene, v0, curve_name):
    patch, curve = scene.curve_host(curve_name)
    s = split_samples(sample_arclength(patch, curve, 9))[3]
    co = frame_coefficients(point_geometry(patch, s.u, s.v), s)
    du = 1.0 / v0  # unit speed on E = v^2
    assert co.a1 == pytest.approx(du, rel=1e-12)
    assert co.a2 == pytest.approx(0.0, abs=1e-13)
    assert co.a3 == pytest.approx(0.0, abs=1e-13)
    assert co.b3 == pytest.approx((-v0 / math.sqrt(2)) * du * du, rel=1e-12)


def test_gamma_second_derivative_expansion(scene):
    """gamma'' must equal b1 phi_u + b2 phi_v + b3 N on locus curves."""
    patch, curve = scene.curve_host("offset_latitude")
    from tpcurves import second_form

    for s in split_samples(sample_arclength(patch, curve, 9)):
        co = frame_coefficients(point_geometry(patch, s.u, s.v), s)
        jet = patch.jet(s.u, s.v)
        normal = second_form(jet).unit_normal
        recon = co.b1 * jet.du + co.b2 * jet.dv + co.b3 * normal
        assert np.max(np.abs(recon - s.ddgamma)) < 1e-10


def test_velocity_route_b3_is_normal_curvature_everywhere(scene):
    # Off the locus the lam/mu route loses meaning, but the velocity route
    # reproduces kappa_n for any unit-speed curve.
    for name in ("catenoid_line", "cylinder_helix", "sphere_meridian"):
        patch, curve = scene.curve_host(name)
        for s in split_samples(sample_arclength(patch, curve, 15)):
            geom = point_geometry(patch, s.u, s.v)
            co = velocity_coefficients(geom, s)
            assert abs(co.b3 - surface_curvatures(geom, s).kappa_n) < 1e-10


@pytest.mark.parametrize("name", TP_CURVES)
def test_ratio_identity(scene, name):
    patch, curve = scene.curve_host(name)
    for s in split_samples(sample_arclength(patch, curve, 15)):
        geom = point_geometry(patch, s.u, s.v)
        assert abs(ratio_identity_check(geom, s)) < 1e-10


# --- component identities ------------------------------------------------

def test_offset_circle_component_values(scene):
    """Frozen hand values on the traced circle: rho = 3, <t,g> = 0,
    <n,g> = -sqrt(3)/2, <b,g> = 3/2, kappa = 2/sqrt(3)."""
    patch, curve = scene.curve_host("offset_latitude")
    for s in split_samples(sample_arclength(patch, curve, 9)):
        geom = point_geometry(patch, s.u, s.v)
        rep = position_component_report(geom, s)
        assert rep.rho == pytest.approx(3.0, abs=1e-12)
        assert rep.t_comp == pytest.approx(0.0, abs=1e-12)
        assert rep.n_comp == pytest.approx(-SQRT3 / 2, abs=1e-12)
        assert rep.b_comp == pytest.approx(1.5, abs=1e-12)
        assert rep.kappa == pytest.approx(2 / SQRT3, rel=1e-12)
        assert rep.lam == pytest.approx(-SQRT3, rel=1e-12)
        assert rep.mu == pytest.approx(0.0, abs=1e-12)
        assert rep.max_residual() < 1e-7


def test_plane_circle_tangential_component_zero(scene):
    patch, curve = scene.curve_host("plane_circle")
    for s in split_samples(sample_arclength(patch, curve, 9)):
        geom = point_geometry(patch, s.u, s.v)
        rep = position_component_report(geom, s)
        assert rep.t_comp == pytest.approx(0.0, abs=1e-12)
        assert rep.rho == pytest.approx(4.0, abs=1e-12)
        assert rep.max_residual() < 1e-7


@pytest.mark.parametrize("v0,curve_name", [(1.0, "cone_circle"),
                                           (2.0, "cone_circle_v2")])
def test_cone_circle_rho(scene, v0, curve_name):
    patch, curve = scene.curve_host(curve_name)
    for s in split_samples(sample_arclength(patch, curve, 9)):
        geom = point_geometry(patch, s.u, s.v)
        rep = position_component_report(geom, s)
        assert rep.rho == pytest.approx(2.0 * v0 * v0, rel=1e-12)
        assert rep.rho_direct == pytest.approx(2.0 * v0 * v0, rel=1e-12)
        assert rep.max_residual() < 1e-7


@pytest.mark.parametrize("name", TP_CURVES)
def test_component_residuals_on_locus_curves(scene, name):
    patch, curve = scene.curve_host(name)
    for s in split_samples(sample_arclength(patch, curve, 25)):
        geom = point_geometry(patch, s.u, s.v)
        assert position_component_report(geom, s).max_residual() < 1e-7


# --- binormal expansion --------------------------------------------------

@pytest.mark.parametrize("name,tol", [("offset_latitude", 1e-7),
                                      ("cone_circle", 1e-7),
                                      ("cone_circle_v2", 1e-7),
                                      ("plane_circle", 1e-9)])
def test_binormal_expansion(scene, name, tol):
    patch, curve = scene.curve_host(name)
    for s in split_samples(sample_arclength(patch, curve, 15)):
        geom = point_geometry(patch, s.u, s.v)
        assert binormal_formula_check(geom, s) < tol


def test_plane_circle_binormal_is_plane_normal(scene):
    patch, curve = scene.curve_host("plane_circle")
    s = split_samples(sample_arclength(patch, curve, 9))[1]
    co = frame_coefficients(point_geometry(patch, s.u, s.v), s)
    assert co.b3 == pytest.approx(0.0, abs=1e-14)
    b = np.cross(s.dgamma, s.ddgamma / np.linalg.norm(s.ddgamma))
    assert np.allclose(b, [0, 0, 1], atol=1e-12)


# --- geodesic curvature from coefficients --------------------------------

def test_plane_circle_kappa_g_value(scene):
    patch, curve = scene.curve_host("plane_circle")
    s = split_samples(sample_arclength(patch, curve, 9))[4]
    geom = point_geometry(patch, s.u, s.v)
    kg = geodesic_curvature_formula(frame_coefficients(geom, s), geom)
    assert kg == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("name", TP_CURVES + ("catenoid_line",
                                              "cylinder_helix",
                                              "sphere_latitude"))
def test_kappa_g_formula_matches_ambient_definition(scene, name):
    patch, curve = scene.curve_host(name)
    for s in split_samples(sample_arclength(patch, curve, 15)):
        geom = point_geometry(patch, s.u, s.v)
        direct = surface_curvatures(geom, s).kappa_g
        kg = geodesic_curvature_formula(velocity_coefficients(geom, s), geom)
        assert abs(kg - direct) < 1e-8


# --- one stacked sample with framed and unframed nodes -------------------

INFLECTION_SCENE = """\
[surface plane]
components = (u, v, 0)
u_range = -2, 2
v_range = -2, 2

[curve cubic]
surface = plane
u = t
v = t^3
t_range = -1, 1

[options]
samples = 9
"""


def test_frame_rule_at_an_inflection():
    """u = t, v = t^3 has curvature 0 at t = 0, the middle of an odd
    number of samples; every other sample has a frame."""
    scene = load_scene_text(INFLECTION_SCENE)
    patch, curve = scene.curve_host("cubic")
    s = sample_arclength(patch, curve, 9)
    mid = 4
    kappa = np.sqrt(dot3(s.ddgamma, s.ddgamma))
    assert kappa[mid] < 1e-9 < kappa[np.arange(9) != mid].min()

    with pytest.raises(FrameUndefined) as exc:
        frenet(s)
    assert str(exc.value) == f"curvature {kappa[mid]} at s={s.s[mid]}"

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = position_component_report(point_geometry(patch, s.u, s.v), s)
    parts = ("n_comp", "b_comp", "n_direct", "b_direct", "n_residual",
             "b_residual")
    for i, one in enumerate(split_samples(s)):
        single = position_component_report(
            point_geometry(patch, one.u, one.v), one)
        for name in parts:
            got = getattr(rep, name)[i]
            if i == mid:
                assert math.isnan(got), name
            else:
                assert struct.pack("<d", got) == \
                    struct.pack("<d", getattr(single, name)), (name, i)

    # The Pythagoras residual skips the unframed node: a NaN curvature
    # there leaves it unframed too, and the worst residual unchanged.
    def record(patch, sample):
        return point_geometry(patch, sample.u, sample.v)

    def nan_at_mid(patch, curve, count):
        sample = sample_arclength(patch, curve, count)
        ddgamma = sample.ddgamma.copy()
        ddgamma[:, mid] = math.nan
        return dataclasses.replace(sample, ddgamma=ddgamma)

    worst = _curve_residuals(patch, s, record, "cubic")
    assert worst["pythagoras"] < 1e-12
    assert _curve_residuals(patch, nan_at_mid(patch, curve, 9), record,
                            "cubic")["pythagoras"] == worst["pythagoras"]
