"""Arc-length sampling, Frenet frames, geodesic/normal curvature."""

import math

import numpy as np
import pytest
from sample_list import split_samples

from tpcurves import (
    KAPPA_MIN,
    frenet,
    parse_curve,
    point_geometry,
    sample_arclength,
    surface_curvatures,
    trace_tangent_curve,
    transfer_sample,
)
from tpcurves.errors import FrameUndefined, IrregularCurve
from tpcurves.jets import cross3, dot3


def test_unit_circle_length(scene):
    plane = scene.surface("plane")
    circle = parse_curve("cos(t)", "sin(t)", (0, 2 * math.pi))
    samples = sample_arclength(plane, circle, 21)
    assert samples.s[-1] == pytest.approx(2 * math.pi, abs=1e-9)


def test_cone_ruling_length(scene):
    patch, curve = scene.curve_host("cone_ruling")
    samples = sample_arclength(patch, curve, 11)
    assert samples.s[-1] == pytest.approx(math.sqrt(2), abs=1e-9)


def test_sphere_latitude_length(scene):
    patch, curve = scene.curve_host("sphere_latitude")
    samples = sample_arclength(patch, curve, 11)
    assert samples.s[-1] == pytest.approx(math.pi * math.sqrt(3), abs=1e-9)


def test_unit_speed_invariants(scene):
    for name in ("plane_circle", "cone_circle", "sphere_latitude",
                 "offset_latitude", "catenoid_line", "cylinder_helix"):
        patch, curve = scene.curve_host(name)
        for s in split_samples(sample_arclength(patch, curve, 25)):
            assert abs(np.linalg.norm(s.dgamma) - 1.0) < 1e-8
            assert abs(np.dot(s.dgamma, s.ddgamma)) < 1e-8


def test_samples_equally_spaced(scene):
    patch, curve = scene.curve_host("catenoid_line")
    samples = split_samples(sample_arclength(patch, curve, 9))
    gaps = np.diff([s.s for s in samples])
    assert np.allclose(gaps, gaps[0], atol=1e-12)
    # s increments must match ambient displacement to discretization order
    for a, b in zip(samples, samples[1:]):
        chord = np.linalg.norm(b.gamma - a.gamma)
        assert chord <= (b.s - a.s) + 1e-9


def test_frenet_plane_circle(scene):
    patch, curve = scene.curve_host("plane_circle")
    for s in split_samples(sample_arclength(patch, curve, 9)):
        fr = frenet(s)
        assert fr.kappa == pytest.approx(0.5, abs=1e-10)
        assert fr.tau == pytest.approx(0.0, abs=1e-10)
        assert abs(np.dot(fr.t, fr.n)) < 1e-9
        assert np.allclose(np.cross(fr.t, fr.n), fr.b)


def test_frenet_undefined_on_ruling(scene):
    patch, curve = scene.curve_host("cone_ruling")
    sample = split_samples(sample_arclength(patch, curve, 5))[2]
    with pytest.raises(FrameUndefined):
        frenet(sample)


def scalar_frenet(sample):
    """The one-sample frame in Python floats: the reference for the
    batched frenet."""
    kappa = math.sqrt(dot3(sample.ddgamma, sample.ddgamma))
    if kappa <= KAPPA_MIN:
        raise FrameUndefined(f"curvature {kappa} at s={sample.s}")
    n = sample.ddgamma / kappa
    if sample.dddgamma is None:
        tau = math.nan
    else:
        tau = float(dot3(cross3(sample.dgamma, sample.ddgamma),
                         sample.dddgamma)) / (kappa * kappa)
    return np.array(cross3(sample.dgamma, n)), n, kappa, tau


@pytest.mark.parametrize("name", ("plane_circle", "cone_circle",
                                  "sphere_latitude", "offset_latitude",
                                  "cylinder_helix", "traced"))
def test_frenet_of_stacked_samples_has_per_sample_bits(scene, name):
    if name == "traced":
        stacked = trace_tangent_curve(scene.surface("catenoid"), (1.0, 1.2),
                                      h=0.02, resample=15).samples
    else:
        stacked = sample_arclength(*scene.curve_host(name), 20)
    fr = frenet(stacked)
    assert fr.t is stacked.dgamma
    for i, s in enumerate(split_samples(stacked)):
        b, n, kappa, tau = scalar_frenet(s)
        assert fr.b[:, i].tobytes() == b.tobytes()
        assert fr.n[:, i].tobytes() == n.tobytes()
        assert fr.kappa[i] == kappa
        tau_i = np.broadcast_to(fr.tau, stacked.s.shape)[i]
        assert tau_i == tau or math.isnan(tau_i) and math.isnan(tau)


def test_frenet_of_stacked_samples_names_first_straight_sample(scene):
    patch, curve = scene.curve_host("cone_ruling")
    stacked = sample_arclength(patch, curve, 5)
    with pytest.raises(FrameUndefined) as scalar:
        scalar_frenet(split_samples(stacked)[0])
    with pytest.raises(FrameUndefined) as batched:
        frenet(stacked)
    assert str(batched.value) == str(scalar.value)


def test_helix_curvature_torsion(scene):
    patch, curve = scene.curve_host("cylinder_helix")
    for s in split_samples(sample_arclength(patch, curve, 7)):
        fr = frenet(s)
        assert fr.kappa == pytest.approx(0.5, rel=1e-9)
        assert fr.tau == pytest.approx(0.5, rel=1e-9)


def test_torsion_zero_on_planar_curves(scene):
    cases = [("plane_circle", None),
             ("cone_circle", None), ("sphere_latitude", None)]
    for name, _ in cases:
        patch, curve = scene.curve_host(name)
        for s in split_samples(sample_arclength(patch, curve, 9)):
            assert abs(frenet(s).tau) < 1e-8


def test_plane_circle_curvatures(scene):
    patch, curve = scene.curve_host("plane_circle")
    for s in split_samples(sample_arclength(patch, curve, 9)):
        geom = point_geometry(patch, s.u, s.v)
        rep = surface_curvatures(geom, s)
        assert rep.kappa_g == pytest.approx(0.5, abs=1e-9)
        assert rep.kappa_n == pytest.approx(0.0, abs=1e-9)


def test_sphere_latitude_curvatures(scene):
    theta = 2 * math.pi / 3
    patch, curve = scene.curve_host("sphere_latitude")
    for s in split_samples(sample_arclength(patch, curve, 9)):
        geom = point_geometry(patch, s.u, s.v)
        rep = surface_curvatures(geom, s)
        assert abs(rep.kappa_g) == pytest.approx(abs(1 / math.tan(theta)),
                                                 rel=1e-9)
        assert abs(rep.kappa_n) == pytest.approx(1.0, rel=1e-9)
        # Signs under the phi_u x phi_v (outward) orientation.
        assert rep.kappa_g == pytest.approx(1 / math.tan(theta), rel=1e-9)
        assert rep.kappa_n == pytest.approx(-1.0, rel=1e-9)


def test_great_circle_is_geodesic(scene):
    patch, curve = scene.curve_host("sphere_meridian")
    for s in split_samples(sample_arclength(patch, curve, 9)):
        geom = point_geometry(patch, s.u, s.v)
        rep = surface_curvatures(geom, s)
        assert abs(rep.kappa_g) < 1e-9
        assert abs(rep.kappa_n) == pytest.approx(1.0, rel=1e-9)


def test_curvature_pythagoras(scene):
    for name in ("plane_circle", "cone_circle", "sphere_latitude",
                 "offset_latitude", "catenoid_line", "cylinder_helix"):
        patch, curve = scene.curve_host(name)
        for s in split_samples(sample_arclength(patch, curve, 15)):
            kappa = float(np.linalg.norm(s.ddgamma))
            if kappa <= 1e-9:
                continue
            geom = point_geometry(patch, s.u, s.v)
            rep = surface_curvatures(geom, s)
            assert abs(rep.kappa_g ** 2 + rep.kappa_n ** 2
                       - kappa ** 2) < 1e-8


def test_irregular_curve_rejected(scene):
    plane = scene.surface("plane")
    stopped = parse_curve("t^3", "0", (-1, 1))  # speed vanishes at t = 0
    with pytest.raises(IrregularCurve):
        sample_arclength(plane, stopped, 9)


def test_transfer_sample_consistency(scene):
    """Rebuilding ambient data from parameter data through the same patch
    must reproduce the sample exactly."""
    patch, curve = scene.curve_host("catenoid_line")
    for s in split_samples(sample_arclength(patch, curve, 7)):
        t = transfer_sample(point_geometry(patch, s.u, s.v), s)
        assert np.max(np.abs(t.gamma - s.gamma)) < 1e-12
        assert np.max(np.abs(t.dgamma - s.dgamma)) < 1e-12
        assert np.max(np.abs(t.ddgamma - s.ddgamma)) < 1e-11
        assert np.max(np.abs(t.dddgamma - s.dddgamma)) < 1e-10
