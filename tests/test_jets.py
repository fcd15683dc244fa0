"""Jet arithmetic: exactness against hand derivatives and finite differences."""

import math

import numpy as np
import pytest

from tpcurves import parse_surface
from tpcurves.errors import DomainError, EvalError
from tpcurves.expr import Var
from tpcurves.jets import Jet1, Jet2
from tpcurves.surface import parse_curve


def make(name):
    table = {
        "plane": ("(u, v, 0)", (-5, 5), (-5, 5)),
        "cone": ("(v*cos(u), v*sin(u), v)", (0, 2 * math.pi), (0.25, 3)),
        "sphere": ("(sin(u)*cos(v), sin(u)*sin(v), cos(u))",
                   (0.15, math.pi - 0.15), (0, 2 * math.pi)),
        "catenoid": ("(cosh(v)*cos(u), cosh(v)*sin(u), v)",
                     (0, 2 * math.pi), (-1.5, 1.5)),
        "mixed": ("(exp(u)*tanh(v), log(2 + u^2), sqrt(4 + u*v))",
                  (-1, 1), (-1, 1)),
    }
    text, ur, vr = table[name]
    return parse_surface(text, ur, vr, name=name)


def test_plane_jet_trivial():
    jet = make("plane").jet(1.0, 2.0)
    assert np.allclose(jet.value, [1, 2, 0])
    assert np.allclose(jet.du, [1, 0, 0])
    assert np.allclose(jet.duu, 0) and np.allclose(jet.duvv, 0)


def test_cone_jet_hand_values():
    jet = make("cone").jet(0.0, 1.0)
    assert np.allclose(jet.value, [1, 0, 1])
    assert np.allclose(jet.du, [0, 1, 0])
    assert np.allclose(jet.dv, [1, 0, 1])
    assert np.allclose(jet.duu, [-1, 0, 0])


def test_exp_jet():
    patch = parse_surface("(exp(u), v, 0)", (-1, 1), (-1, 1))
    jet = patch.jet(0.0, 0.0)
    for d in (jet.du, jet.duu, jet.duuu):
        assert np.allclose(d, [1, 0, 0])


def test_curve_jet_polynomial():
    curve = parse_curve("t^2", "t^3", (0, 3))
    cj = curve.jet(2.0)
    assert (cj.u.f, cj.u.d1, cj.u.d2, cj.u.d3) == (4.0, 4.0, 2.0, 0.0)
    assert (cj.v.f, cj.v.d1, cj.v.d2, cj.v.d3) == (8.0, 12.0, 12.0, 6.0)


def test_curve_jet_circle():
    curve = parse_curve("cos(t)", "sin(t)", (0, 2 * math.pi))
    cj = curve.jet(0.0)
    assert (cj.u.f, cj.u.d1, cj.u.d2) == (1.0, 0.0, -1.0)
    assert (cj.v.f, cj.v.d1) == (0.0, 1.0)


def test_curve_jet_linear():
    curve = parse_curve("t", "1", (0, 1))
    cj = curve.jet(0.5)
    assert (cj.u.f, cj.u.d1, cj.u.d2, cj.u.d3) == (0.5, 1.0, 0.0, 0.0)
    assert (cj.v.f, cj.v.d1, cj.v.d2, cj.v.d3) == (1.0, 0.0, 0.0, 0.0)


def test_builtin_surfaces_match_finite_differences(scene):
    """Jet first partials vs central differences on every built-in patch."""
    rng = np.random.default_rng(5)
    h = 1e-5
    for name in ("plane", "cone", "sphere", "offset_sphere", "catenoid",
                 "helicoid", "cylinder", "paraboloid"):
        patch = scene.surface(name)
        (u0, u1), (v0, v1) = patch.u_range, patch.v_range
        du, dv = u1 - u0, v1 - v0
        for _ in range(100):
            u = rng.uniform(u0 + 0.01 * du, u1 - 0.01 * du)
            v = rng.uniform(v0 + 0.01 * dv, v1 - 0.01 * dv)
            jet = patch.jet(u, v)
            fd_u = (patch.value(u + h, v) - patch.value(u - h, v)) / (2 * h)
            fd_v = (patch.value(u, v + h) - patch.value(u, v - h)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(jet.du))),
                        float(np.max(np.abs(jet.dv))))
            assert np.max(np.abs(jet.du - fd_u)) < 1e-6 * scale
            assert np.max(np.abs(jet.dv - fd_v)) < 1e-6 * scale


@pytest.mark.parametrize("name", ["cone", "sphere", "catenoid", "mixed"])
def test_first_partials_match_finite_differences(name):
    patch = make(name)
    rng = np.random.default_rng(7)
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    h = 1e-5
    for _ in range(100):
        u = rng.uniform(u0 + 0.01, u1 - 0.01)
        v = rng.uniform(v0 + 0.01, v1 - 0.01)
        jet = patch.jet(u, v)
        fd_u = (patch.value(u + h, v) - patch.value(u - h, v)) / (2 * h)
        fd_v = (patch.value(u, v + h) - patch.value(u, v - h)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(jet.du))),
                    float(np.max(np.abs(jet.dv))))
        assert np.max(np.abs(jet.du - fd_u)) < 1e-6 * scale
        assert np.max(np.abs(jet.dv - fd_v)) < 1e-6 * scale


def _swap_uv(node):
    if isinstance(node, Var):
        return Var("v" if node.name == "u" else "u")
    if hasattr(node, "arg"):
        return type(node)(node.op, _swap_uv(node.arg))
    if hasattr(node, "lhs"):
        return type(node)(node.op, _swap_uv(node.lhs), _swap_uv(node.rhs))
    return node


@pytest.mark.parametrize("name", ["cone", "sphere", "catenoid", "mixed"])
def test_mixed_partial_order_symmetric(name):
    """d_uv computed with the roles of u and v exchanged must agree to
    machine precision with the direct value."""
    patch = make(name)
    swapped = type(patch)(name=patch.name + "_swapped",
                          components=tuple(_swap_uv(c) for c in patch.components),
                          u_range=patch.v_range, v_range=patch.u_range)
    rng = np.random.default_rng(11)
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    for _ in range(25):
        u = rng.uniform(u0 + 0.01, u1 - 0.01)
        v = rng.uniform(v0 + 0.01, v1 - 0.01)
        direct = patch.jet(u, v)
        other = swapped.jet(v, u)
        assert np.max(np.abs(direct.duv - other.duv)) < 1e-13
        assert np.max(np.abs(direct.duuv - other.duvv)) < 1e-13


def test_second_third_partials_match_finite_differences():
    patch = make("catenoid")
    h = 1e-5

    def du_of(u, v):
        return patch.jet(u, v).du

    u, v = 2.0, 0.7
    jet = patch.jet(u, v)
    fd_uu = (du_of(u + h, v) - du_of(u - h, v)) / (2 * h)
    fd_uv = (du_of(u, v + h) - du_of(u, v - h)) / (2 * h)
    assert np.max(np.abs(jet.duu - fd_uu)) < 1e-6
    assert np.max(np.abs(jet.duv - fd_uv)) < 1e-6


def test_domain_enforced():
    patch = make("cone")
    with pytest.raises(DomainError):
        patch.jet(1.0, 0.0)  # v below range


def test_eval_singularities():
    patch = parse_surface("(log(u), v, 0)", (-1, 1), (-1, 1))
    with pytest.raises(EvalError):
        patch.jet(-0.5, 0.0)
    patch = parse_surface("(1/u, v, 0)", (-1, 1), (-1, 1))
    with pytest.raises(EvalError):
        patch.jet(0.0, 0.0)


def test_integer_pow_at_zero_base():
    # Repeated multiplication keeps integer powers exact at base 0.
    j = Jet2(0.0, fu=1.0).powc(3)
    assert (j.f, j.fu, j.fuu, j.fuuu) == (0.0, 0.0, 0.0, 6.0)
    t = Jet1(0.0, d1=1.0).powc(2)
    assert (t.f, t.d1, t.d2) == (0.0, 0.0, 2.0)


def test_integer_pow_computes_no_unused_square():
    """20^200 is finite; squaring the base past the top exponent bit
    (20^256) would overflow."""
    with np.errstate(over="raise"):
        j = Jet2(np.array([20.0]), fu=1.0)._ipow(200)
        t = Jet1(np.array([20.0]), d1=1.0)._ipow(200)
    assert j.f[0] == t.f[0] == Jet2(20.0, fu=1.0).powc(200).f
    assert math.isfinite(j.f[0])
    assert Jet2(3.0, fu=1.0)._ipow(0).f == 1.0


def test_fractional_pow_requires_positive_base():
    with pytest.raises(EvalError):
        Jet2(-1.0, fu=1.0).powc(0.5)
    j = Jet2(4.0, fu=1.0).powc(0.5)
    assert j.f == pytest.approx(2.0)
    assert j.fu == pytest.approx(0.25)
