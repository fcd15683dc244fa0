"""Pair registration, metric matching, invariance and the counterexample."""

import math

import numpy as np
import pytest
from sample_list import split_samples

from tpcurves import (
    IsometryPair,
    invariance_report,
    parse_surface,
    register_pair,
    sample_arclength,
    second_form_relation,
    tangent_position_preservation,
    verify_metric_match,
)
from tpcurves.errors import MetricMismatch


def test_catenoid_helicoid_metric_match(scene):
    pair = scene.pair("catenoid_helicoid")
    report = verify_metric_match(pair, (20, 20))
    assert report.max_residual < 1e-10
    assert report.skipped == 0
    assert set(report.residuals) == {"E", "F", "G", "E_u", "E_v",
                                     "F_u", "F_v", "G_u", "G_v"}


def test_identity_pair_exact(scene):
    pair = scene.pair("identity_catenoid")
    report = verify_metric_match(pair, (10, 10))
    assert report.max_residual == 0.0


def test_plane_cylinder_metric_match(scene):
    pair = scene.pair("plane_cylinder")
    assert verify_metric_match(pair, (20, 20)).max_residual < 1e-10


def test_mismatched_pair_rejected(scene):
    plane = scene.surface("plane")
    scaled = parse_surface("(2*u, v, 0)", plane.u_range, plane.v_range,
                           name="stretched")
    with pytest.raises(MetricMismatch):
        register_pair(plane, scaled, "intrinsic")


def test_non_finite_residual_rejects_pair():
    """E overflows to inf on both sides, and inf - inf is NaN: a NaN
    residual must reject the pair and be reported, never read as 0."""
    source = parse_surface("(u^200, v, 0)", (10, 20), (0, 1), name="steep")
    target = parse_surface("(3*u^200, v, 0)", (10, 20), (0, 1),
                           name="steeper")
    with pytest.raises(MetricMismatch):
        register_pair(source, target, "intrinsic")
    unchecked = IsometryPair(source=source, target=target, kind="intrinsic",
                             u_range=(10.0, 20.0), v_range=(0.0, 1.0),
                             registration_residual=math.nan)
    report = verify_metric_match(unchecked, (20, 20))
    assert not math.isfinite(report.residuals["E"])
    assert not math.isfinite(report.max_residual)


def test_all_degenerate_grid_rejects_pair():
    """A line as source makes every grid node degenerate; with nothing
    compared the residual is NaN, so the stretched target is rejected."""
    line = parse_surface("(u, 0, 0)", (0, 1), (0, 1), name="line")
    stretched = parse_surface("(2*u, v, 0)", (0, 1), (0, 1), name="stretched")
    with pytest.raises(MetricMismatch, match="nan"):
        register_pair(line, stretched, "intrinsic")
    unchecked = IsometryPair(source=line, target=stretched, kind="intrinsic",
                             u_range=(0.0, 1.0), v_range=(0.0, 1.0),
                             registration_residual=math.nan)
    report = verify_metric_match(unchecked, (20, 20))
    assert report.skipped == 400
    assert all(math.isnan(r) for r in report.residuals.values())
    assert math.isnan(report.max_residual)


def test_bad_kind_rejected(scene):
    plane = scene.surface("plane")
    with pytest.raises(ValueError):
        register_pair(plane, plane, "affine")


def test_rigid_rotation_preserves_everything(scene):
    pair = scene.pair("offset_rotation")
    _, curve = scene.curve_host("offset_latitude")
    rep = invariance_report(
        pair, sample_arclength(pair.source, curve, 50))
    assert rep.max_rho_residual < 1e-9
    assert rep.max_t_comp_residual < 1e-9
    assert rep.max_lam_residual < 1e-9
    assert rep.max_mu_residual < 1e-9
    assert rep.max_kappa_g_residual < 1e-9
    assert rep.source_tangent_position
    assert rep.tangent_position_preserved
    assert tangent_position_preservation(
        pair, sample_arclength(pair.source, curve, 50)) < 1e-9


def test_catenoid_helicoid_invariance(scene):
    pair = scene.pair("catenoid_helicoid")
    _, curve = scene.curve_host("catenoid_line")
    rep = invariance_report(
        pair, sample_arclength(pair.source, curve, 50))
    # Intrinsic: geodesic curvature transfers exactly.
    assert rep.max_kappa_g_residual < 1e-7
    # Extrinsic: length of the position vector does not.
    assert rep.max_rho_residual > 1.0
    assert not rep.source_tangent_position


def test_kappa_g_invariance_all_pairs_all_curves(scene):
    cases = [("catenoid_helicoid", "catenoid_line"),
             ("plane_cylinder", "plane_circle"),
             ("offset_rotation", "offset_latitude"),
             ("identity_catenoid", "catenoid_line")]
    for pair_name, curve_name in cases:
        pair = scene.pair(pair_name)
        _, curve = scene.curve_host(curve_name)
        rep = invariance_report(
        pair, sample_arclength(pair.source, curve, 25))
        assert rep.max_kappa_g_residual < 1e-7, pair_name


def test_plane_cylinder_counterexample(scene):
    """The image of the tangent-position plane circle is not
    tangent-position on the cylinder: g-bar is identically 1."""
    pair = scene.pair("plane_cylinder")
    _, curve = scene.curve_host("plane_circle")
    rep = invariance_report(
        pair, sample_arclength(pair.source, curve, 50))
    assert rep.source_tangent_position
    assert not rep.tangent_position_preserved
    assert np.max(np.abs(rep.target_tangency - 1.0)) < 1e-9
    gbar = tangent_position_preservation(
        pair, sample_arclength(pair.source, curve, 50))
    assert abs(gbar - 1.0) < 1e-9


def test_preservation_requires_tangent_position_source(scene):
    pair = scene.pair("catenoid_helicoid")
    _, curve = scene.curve_host("catenoid_line")
    with pytest.raises(ValueError, match="not tangent-position"):
        tangent_position_preservation(
        pair, sample_arclength(pair.source, curve, 10))


def test_second_form_relation_identity_pair(scene):
    pair = scene.pair("identity_catenoid")
    _, curve = scene.curve_host("catenoid_line")
    for s in split_samples(sample_arclength(pair.source, curve, 15)):
        residual, _ = second_form_relation(pair, s)
        assert residual == 0.0


def test_second_form_relation_rigid_pair(scene):
    pair = scene.pair("offset_rotation")
    _, curve = scene.curve_host("offset_latitude")
    for s in split_samples(sample_arclength(pair.source, curve, 15)):
        residual, premise = second_form_relation(pair, s)
        assert premise
        assert abs(residual) < 1e-10


def test_second_form_relation_premise_fails_on_counterexample(scene):
    pair = scene.pair("plane_cylinder")
    _, curve = scene.curve_host("plane_circle")
    s = split_samples(sample_arclength(pair.source, curve, 9))[2]
    residual, premise = second_form_relation(pair, s)
    assert not premise  # image curve is not tangent-position
    assert math.isfinite(residual)


def test_rho_and_t_comp_invariance_formulas(scene):
    """For the rigid pair the closed forms themselves agree sample by
    sample, not just the ambient dot products."""
    from tpcurves import point_geometry, position_component_report

    pair = scene.pair("offset_rotation")
    _, curve = scene.curve_host("offset_latitude")
    samples = split_samples(sample_arclength(pair.source, curve, 15))
    from tpcurves import transfer_sample

    for s in samples:
        src = point_geometry(pair.source, s.u, s.v)
        tgt = point_geometry(pair.target, s.u, s.v)
        rep_src = position_component_report(src, s)
        rep_tgt = position_component_report(tgt, transfer_sample(tgt, s))
        assert rep_src.rho == pytest.approx(rep_tgt.rho, abs=1e-9)
        assert rep_src.t_comp == pytest.approx(rep_tgt.t_comp, abs=1e-9)
        assert rep_src.lam == pytest.approx(rep_tgt.lam, abs=1e-9)
        assert rep_src.mu == pytest.approx(rep_tgt.mu, abs=1e-9)
