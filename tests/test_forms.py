"""Fundamental forms, Christoffel symbols, the moving-frame identity."""

import math

import numpy as np
import pytest

from tpcurves import (
    PointGeometry,
    christoffel,
    christoffel_from_metric,
    first_form,
    gauss_equation_residual,
    parse_surface,
    second_form,
)
from tpcurves import forms
from tpcurves.errors import DegeneratePoint, OracleMismatch


def random_points(patch, count, seed=3):
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    du, dv = u1 - u0, v1 - v0
    for _ in range(count):
        yield (rng.uniform(u0 + 0.02 * du, u1 - 0.02 * du),
               rng.uniform(v0 + 0.02 * dv, v1 - 0.02 * dv))


def test_plane_first_form(scene):
    form = first_form(scene.surface("plane").jet(1.3, -2.1))
    assert (form.E, form.F, form.G) == (1.0, 0.0, 1.0)
    assert form.E_u == form.E_v == form.G_u == form.G_v == 0.0


def test_cone_first_form(scene):
    form = first_form(scene.surface("cone").jet(0.5, 1.0))
    assert form.E == pytest.approx(1.0, abs=1e-14)
    assert form.F == pytest.approx(0.0, abs=1e-14)
    assert form.G == pytest.approx(2.0, abs=1e-14)
    assert form.E_v == pytest.approx(2.0, abs=1e-13)


def test_catenoid_first_form(scene):
    form = first_form(scene.surface("catenoid").jet(0.0, 0.5))
    c2 = math.cosh(0.5) ** 2
    assert form.E == pytest.approx(c2, rel=1e-14)
    assert form.G == pytest.approx(c2, rel=1e-14)
    assert form.F == pytest.approx(0.0, abs=1e-14)


def test_plane_second_form_flat(scene):
    sec = second_form(scene.surface("plane").jet(0.3, 0.4))
    assert (sec.L, sec.M, sec.N) == (0.0, 0.0, 0.0)
    assert np.allclose(sec.unit_normal, [0, 0, 1])


def test_cone_second_form(scene):
    sec = second_form(scene.surface("cone").jet(0.0, 1.0))
    assert sec.L == pytest.approx(-1 / math.sqrt(2), rel=1e-14)
    assert sec.M == pytest.approx(0.0, abs=1e-14)
    assert sec.N == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(sec.unit_normal,
                       [1 / math.sqrt(2), 0, -1 / math.sqrt(2)])


def test_sphere_second_form_equator(scene):
    # Outward normal: both coefficients come out negative.
    sec = second_form(scene.surface("sphere").jet(math.pi / 2, 1.0))
    assert abs(sec.L) == pytest.approx(1.0, rel=1e-13)
    assert abs(sec.N) == pytest.approx(1.0, rel=1e-13)
    assert sec.M == pytest.approx(0.0, abs=1e-13)
    assert sec.L < 0 and sec.N < 0


def test_unit_normal_invariants(scene):
    for name in ("cone", "sphere", "catenoid", "helicoid"):
        patch = scene.surface(name)
        for u, v in random_points(patch, 25):
            jet = patch.jet(u, v)
            sec = second_form(jet)
            assert abs(np.linalg.norm(sec.unit_normal) - 1.0) < 1e-12
            assert abs(np.dot(sec.unit_normal, jet.du)) < 1e-12 * max(
                1.0, np.linalg.norm(jet.du))
            assert abs(np.dot(sec.unit_normal, jet.dv)) < 1e-12 * max(
                1.0, np.linalg.norm(jet.dv))


def symbols(jet):
    """(g111, g112, g121, g122, g221, g222): the values of the checked
    connection symbols of the jet's record."""
    return tuple(x.f for x in christoffel(PointGeometry(jet)))


def test_plane_christoffel_zero(scene):
    assert symbols(scene.surface("plane").jet(0.0, 0.0)) == (0.0,) * 6


def test_cone_christoffel_spot_values(scene):
    g111, g112, g121, g122, g221, g222 = symbols(
        scene.surface("cone").jet(1.2, 1.0))
    assert g121 == pytest.approx(1.0, abs=1e-10)
    assert g112 == pytest.approx(-0.5, abs=1e-10)
    for value in (g111, g122, g221, g222):
        assert abs(value) < 1e-10


def test_sphere_christoffel_spot_values(scene):
    theta = math.pi / 3
    g122, g221 = symbols(scene.surface("sphere").jet(theta, 2.0))[3:5]
    assert g122 == pytest.approx(1 / math.tan(theta), rel=1e-12)
    assert g221 == pytest.approx(-math.sin(theta) * math.cos(theta),
                                 rel=1e-12)


def test_christoffel_routes_agree(scene):
    for name in ("cone", "sphere", "catenoid", "helicoid", "offset_sphere"):
        patch = scene.surface(name)
        for u, v in random_points(patch, 20):
            jet = patch.jet(u, v)
            form = first_form(jet)
            oracle = christoffel_from_metric(
                form.E, form.F, form.G, form.E_u, form.E_v,
                form.F_u, form.F_v, form.G_u, form.G_v)
            explicit = symbols(jet)
            assert max(abs(a - b) for a, b in zip(explicit, oracle)) < 1e-10


def test_christoffel_oracle_disagreement_raises(scene, monkeypatch):
    geom = PointGeometry(scene.surface("sphere").jet(0.7, 0.4))
    E, F, G = geom.E, geom.F, geom.G
    wrong = tuple(g + 1e-6 for g in christoffel_from_metric(
        E.f, F.f, G.f, E.fu, E.fv, F.fu, F.fv, G.fu, G.fv))
    monkeypatch.setattr(forms, "christoffel_from_metric",
                        lambda *args: wrong)
    with pytest.raises(OracleMismatch, match="Christoffel routes disagree"):
        christoffel(geom)


def test_christoffel_derivatives_match_finite_differences(scene):
    patch = scene.surface("sphere")
    h = 1e-6
    u, v = 1.1, 0.8

    def symbols_at(uu, vv):
        return np.array(symbols(patch.jet(uu, vv)))

    c = christoffel(PointGeometry(patch.jet(u, v)))
    ad_u = np.array([x.fu for x in c])
    ad_v = np.array([x.fv for x in c])
    fd_u = (symbols_at(u + h, v) - symbols_at(u - h, v)) / (2 * h)
    fd_v = (symbols_at(u, v + h) - symbols_at(u, v - h)) / (2 * h)
    assert np.max(np.abs(ad_u - fd_u)) < 1e-7
    assert np.max(np.abs(ad_v - fd_v)) < 1e-7


@pytest.mark.parametrize("name,tol,count", [
    ("plane", 1e-14, 10),
    ("cone", 1e-9, 50),
    ("catenoid", 1e-9, 50),
])
def test_gauss_residual(scene, name, tol, count):
    patch = scene.surface(name)
    for u, v in random_points(patch, count):
        residuals = gauss_equation_residual(PointGeometry(patch.jet(u, v)))
        assert max(float(np.max(np.abs(r))) for r in residuals) < tol


def test_orientation_covariance_on_swap(scene):
    """Swapping the parameter roles flips the normal and the second form,
    exchanges E with G, and permutes the connection symbols."""
    cone = scene.surface("cone")
    swapped = parse_surface("(u*cos(v), u*sin(v), u)",
                            cone.v_range, cone.u_range, name="cone_swapped")
    for (u, v) in [(0.4, 1.3), (2.0, 0.8)]:
        jet, jet_sw = cone.jet(u, v), swapped.jet(v, u)
        sec, sec_sw = second_form(jet), second_form(jet_sw)
        assert np.allclose(sec_sw.unit_normal, -sec.unit_normal, atol=1e-13)
        assert sec_sw.L == pytest.approx(-sec.N, abs=1e-13)
        assert sec_sw.M == pytest.approx(-sec.M, abs=1e-13)
        assert sec_sw.N == pytest.approx(-sec.L, abs=1e-13)
        f, f_sw = first_form(jet), first_form(jet_sw)
        assert f_sw.E == pytest.approx(f.G, rel=1e-13)
        assert f_sw.G == pytest.approx(f.E, rel=1e-13)
        assert f_sw.F == pytest.approx(f.F, abs=1e-13)
        g111, g112, g121, g122, g221, g222 = symbols(jet)
        g111_sw, g112_sw, g121_sw, g122_sw, g221_sw, g222_sw = \
            symbols(jet_sw)
        assert g111_sw == pytest.approx(g222, abs=1e-12)
        assert g112_sw == pytest.approx(g221, abs=1e-12)
        assert g121_sw == pytest.approx(g122, abs=1e-12)
        assert g122_sw == pytest.approx(g121, abs=1e-12)
        assert g221_sw == pytest.approx(g112, abs=1e-12)
        assert g222_sw == pytest.approx(g111, abs=1e-12)

    plane = scene.surface("plane")
    plane_sw = parse_surface("(v, u, 0)", plane.u_range, plane.v_range)
    sec, sec_sw = second_form(plane.jet(1.0, 2.0)), second_form(plane_sw.jet(2.0, 1.0))
    assert np.allclose(sec_sw.unit_normal, -sec.unit_normal)


def test_translation_invariance(scene):
    cone = scene.surface("cone")
    moved = parse_surface("(v*cos(u) + 3, v*sin(u) - 7, v + 11)",
                          cone.u_range, cone.v_range, name="cone_moved")
    for u, v in random_points(cone, 20):
        f0, f1 = first_form(cone.jet(u, v)), first_form(moved.jet(u, v))
        for key in ("E", "F", "G", "E_u", "E_v", "F_u", "F_v", "G_u", "G_v"):
            assert getattr(f0, key) == pytest.approx(getattr(f1, key),
                                                     abs=1e-10)
        s0, s1 = second_form(cone.jet(u, v)), second_form(moved.jet(u, v))
        for key in ("L", "M", "N"):
            assert getattr(s0, key) == pytest.approx(getattr(s1, key),
                                                     abs=1e-10)
        c0, c1 = symbols(cone.jet(u, v)), symbols(moved.jet(u, v))
        for a, b in zip(c0, c1):
            assert a == pytest.approx(b, abs=1e-10)


def test_degenerate_point_raises():
    # phi_u and phi_v become parallel along u = v.
    patch = parse_surface("(u + v, u + v, 0)", (-1, 1), (-1, 1))
    with pytest.raises(DegeneratePoint):
        first_form(patch.jet(0.2, 0.3))
