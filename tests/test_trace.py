"""Tangency-locus tracer: main path, error classification, sample quality."""

import math

import numpy as np
import pytest

from tpcurves import (
    point_geometry,
    position_component_report,
    tangency_gradient,
    trace_tangent_curve,
)
from tpcurves.errors import (ConfigError, IdenticallyTangent, NoSeed,
                             SingularLocus)

LATITUDE = 2 * math.pi / 3


def test_offset_sphere_trace_closes(scene):
    patch = scene.surface("offset_sphere")
    traced = trace_tangent_curve(patch, (2.0, 0.0), h=0.01)
    assert traced.status == "closed"
    assert traced.closed
    # One full turn in the free parameter, steps of h.
    assert len(traced.vertices) == pytest.approx(2 * math.pi / 0.01, abs=5)
    assert np.max(np.abs(traced.residuals)) < 1e-8
    assert np.max(np.abs(traced.vertices[:, 0] - LATITUDE)) < 1e-6
    # Polyline length differs from the circumference by at most the
    # closure-wrap remainder, about half an ambient step.
    assert traced.arc_length == pytest.approx(math.pi * math.sqrt(3),
                                              abs=0.01)


def test_traced_vertices_on_locus(scene):
    patch = scene.surface("offset_sphere")
    traced = trace_tangent_curve(patch, (2.2, 1.0), h=0.02)
    for u, v in traced.vertices:
        assert abs(tangency_gradient(patch, u, v)[0]) < 1e-8


def test_traced_samples_carry_unit_speed_data(scene):
    patch = scene.surface("offset_sphere")
    traced = trace_tangent_curve(patch, (2.0, 0.0), h=0.01, resample=40)
    samples = traced.samples
    assert len(samples.s) == 40
    ss = samples.s.tolist()
    assert all(b > a for a, b in zip(ss, ss[1:]))
    for dgamma, ddgamma in zip(samples.dgamma.T, samples.ddgamma.T):
        assert abs(np.linalg.norm(dgamma) - 1.0) < 1e-10
        assert abs(np.dot(dgamma, ddgamma)) < 1e-10
    assert samples.dddgamma is None  # tracer data stops at second order


def test_traced_samples_satisfy_component_identities(scene):
    patch = scene.surface("offset_sphere")
    traced = trace_tangent_curve(patch, (2.0, 0.0), h=0.01, resample=50)
    s = traced.samples
    assert len(s.s) == 50
    rep = position_component_report(point_geometry(patch, s.u, s.v), s)
    assert (rep.max_residual() < 1e-7).all()
    assert rep.rho == pytest.approx(3.0, abs=1e-6)
    assert rep.lam == pytest.approx(-math.sqrt(3), abs=1e-7)
    assert rep.mu == pytest.approx(0.0, abs=1e-7)


def test_origin_sphere_has_no_locus(scene):
    sphere = scene.surface("sphere")
    with pytest.raises(NoSeed, match="no tangent-position locus"):
        trace_tangent_curve(sphere, (2.0, 0.0))


def test_paraboloid_isolated_zero(scene):
    paraboloid = scene.surface("paraboloid")
    with pytest.raises(SingularLocus):
        trace_tangent_curve(paraboloid, (0.1, 0.1))
    with pytest.raises(SingularLocus):
        trace_tangent_curve(paraboloid, (0.0, 0.0))


def test_cone_identically_tangent(scene):
    with pytest.raises(IdenticallyTangent):
        trace_tangent_curve(scene.surface("cone"), (1.0, 1.0))
    with pytest.raises(IdenticallyTangent):
        trace_tangent_curve(scene.surface("plane"), (0.5, -1.5))


def test_domain_exit_reported_as_status(scene):
    # Restrict the parameter window so the locus line leaves it.
    import tpcurves

    patch = tpcurves.parse_surface(
        "(sin(u)*cos(v), sin(u)*sin(v), 2 + cos(u))",
        (0.15, math.pi - 0.15), (-0.5, 0.5), name="offset_narrow")
    traced = trace_tangent_curve(patch, (2.0, 0.0), h=0.01)
    assert traced.status == "domain_exit"
    assert not traced.closed
    assert np.max(np.abs(traced.residuals)) < 1e-8


def test_max_steps_cap(scene):
    patch = scene.surface("offset_sphere")
    traced = trace_tangent_curve(patch, (2.0, 0.0), h=0.01, max_steps=50)
    assert traced.status == "max_steps"
    assert len(traced.vertices) == 51


def test_halving_step_keeps_vertices_on_locus(scene):
    patch = scene.surface("offset_sphere")
    coarse = trace_tangent_curve(patch, (2.0, 0.0), h=0.01)
    fine = trace_tangent_curve(patch, (2.0, 0.0), h=0.005)
    assert np.max(np.abs(coarse.residuals)) < 1e-8
    assert np.max(np.abs(fine.residuals)) < 1e-8
    # Polyline length error is bounded by the closure-wrap remainder (at
    # most about half a step) at either resolution.
    exact = math.pi * math.sqrt(3)
    assert abs(coarse.arc_length - exact) < 0.01
    assert abs(fine.arc_length - exact) < 0.005


@pytest.mark.parametrize("h", [0.0, -0.01, math.nan, math.inf])
def test_step_must_be_positive_and_finite(scene, h):
    with pytest.raises(ConfigError, match="h must be positive and finite"):
        trace_tangent_curve(scene.surface("offset_sphere"), (2.0, 0.0), h=h)
