"""Acceptance suite: one test per numbered criterion.

Every test prints one line `criterion N: PASS|FAIL (details)` before
asserting, so a plain `pytest -s tests/test_acceptance.py` doubles as the
acceptance report.  All tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
from sample_list import split_samples

from tpcurves import (
    PointGeometry,
    christoffel,
    christoffel_from_metric,
    first_form,
    frame_coefficients,
    gauss_equation_residual,
    geodesic_curvature_formula,
    invariance_report,
    point_geometry,
    position_component_report,
    sample_arclength,
    surface_curvatures,
    tangency_gradient,
    tangent_position_preservation,
    trace_tangent_curve,
    velocity_coefficients,
    verify_metric_match,
)

LATITUDE = 2 * math.pi / 3
SQRT3 = math.sqrt(3.0)

GAUSS_SURFACES = ("plane", "cone", "sphere", "offset_sphere",
                  "catenoid", "helicoid")
TP_CURVES = ("plane_circle", "cone_circle", "cone_circle_v2",
             "offset_latitude")
ALL_CURVES = TP_CURVES + ("sphere_latitude", "sphere_meridian",
                          "catenoid_line", "cylinder_helix")


def report(number, ok, details):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({details})")


def random_points(patch, count, rng):
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    du, dv = u1 - u0, v1 - v0
    us = rng.uniform(u0 + 0.02 * du, u1 - 0.02 * du, count)
    vs = rng.uniform(v0 + 0.02 * dv, v1 - 0.02 * dv, count)
    return zip(us.tolist(), vs.tolist())


def test_c01_gauss_identity(scene):
    """Moving-frame expansion residual below 1e-8 at 100 random regular
    points on each of six surfaces, in under 5 seconds."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for name in GAUSS_SURFACES:
        patch = scene.surface(name)
        for u, v in random_points(patch, 100, rng):
            residuals = gauss_equation_residual(
                PointGeometry(patch.jet(u, v)))
            worst = max(worst, max(float(np.max(np.abs(r)))
                                   for r in residuals))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    report(1, ok, f"max residual {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_c02_christoffel_cross_validation(scene):
    """Explicit formulas vs metric-formula oracle within 1e-10; cone spot
    values at v = 1."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for name in GAUSS_SURFACES:
        patch = scene.surface(name)
        for u, v in random_points(patch, 40, rng):
            jet = patch.jet(u, v)
            form = first_form(jet)
            oracle = christoffel_from_metric(
                form.E, form.F, form.G, form.E_u, form.E_v,
                form.F_u, form.F_v, form.G_u, form.G_v)
            explicit = [x.f for x in christoffel(PointGeometry(jet))]
            worst = max(worst, max(abs(a - b)
                                   for a, b in zip(explicit, oracle)))
    chris = christoffel(PointGeometry(scene.surface("cone").jet(0.7, 1.0)))
    spot_dev = max(abs(chris[2].f - 1.0), abs(chris[1].f + 0.5))
    ok = worst < 1e-10 and spot_dev < 1e-10
    report(2, ok, f"oracle dev {worst:.3e}, cone spot dev {spot_dev:.3e}")
    assert worst < 1e-10
    assert spot_dev < 1e-10


def test_c03_coefficient_identities(scene):
    """|A1 - u'|, |A2 - v'|, |A3|, |B3 - kappa_n| below 1e-8 along the
    unit-speed tangent-position test curves (the identities presuppose the
    position vector lies in the tangent plane)."""
    worst = 0.0
    for name in TP_CURVES:
        patch, curve = scene.curve_host(name)
        for s in split_samples(sample_arclength(patch, curve, 50)):
            geom = point_geometry(patch, s.u, s.v)
            co = frame_coefficients(geom, s)
            kn = surface_curvatures(geom, s).kappa_n
            worst = max(worst, abs(co.a1 - s.du), abs(co.a2 - s.dv),
                        abs(co.a3), abs(co.b3 - kn))
    # The gamma''-expansion route reproduces kappa_n on every curve.
    for name in ALL_CURVES:
        patch, curve = scene.curve_host(name)
        for s in split_samples(sample_arclength(patch, curve, 50)):
            geom = point_geometry(patch, s.u, s.v)
            co = velocity_coefficients(geom, s)
            kn = surface_curvatures(geom, s).kappa_n
            worst = max(worst, abs(co.b3 - kn))
    ok = worst < 1e-8
    report(3, ok, f"max identity deviation {worst:.3e}")
    assert worst < 1e-8


def test_c04_component_reproduction_on_trace(scene):
    """Along the traced offset-sphere circle: closed-form components match
    ambient dot products within 1e-7; rho = 3 within 1e-6; lam = -sqrt(3)
    and mu = 0 within 1e-7."""
    patch = scene.surface("offset_sphere")
    traced = trace_tangent_curve(patch, (2.0, 0.0), h=0.01, resample=50)
    s = traced.samples
    assert len(s.s) == 50
    rep = position_component_report(point_geometry(patch, s.u, s.v), s)
    # np.max: a NaN anywhere fails the bounds below.
    comp = float(np.max(rep.max_residual()))
    rho_dev = float(np.max(abs(rep.rho - 3.0)))
    lam_dev = float(np.max(abs(rep.lam + SQRT3)))
    mu_dev = float(np.max(abs(rep.mu)))
    ok = comp < 1e-7 and rho_dev < 1e-6 and lam_dev < 1e-7 and mu_dev < 1e-7
    report(4, ok, f"components {comp:.3e}, rho dev {rho_dev:.3e}, "
                  f"lam dev {lam_dev:.3e}, mu dev {mu_dev:.3e}")
    assert comp < 1e-7
    assert rho_dev < 1e-6
    assert lam_dev < 1e-7
    assert mu_dev < 1e-7


def test_c05_curvature_pythagoras(scene):
    """kappa_g^2 + kappa_n^2 = kappa^2 within 1e-8 wherever kappa > 1e-9."""
    worst = 0.0
    for name in ALL_CURVES:
        patch, curve = scene.curve_host(name)
        for s in split_samples(sample_arclength(patch, curve, 50)):
            kappa = float(np.linalg.norm(s.ddgamma))
            if kappa <= 1e-9:
                continue
            geom = point_geometry(patch, s.u, s.v)
            rep = surface_curvatures(geom, s)
            worst = max(worst, abs(rep.kappa_g ** 2 + rep.kappa_n ** 2
                                   - kappa * kappa))
    ok = worst < 1e-8
    report(5, ok, f"max deviation {worst:.3e}")
    assert worst < 1e-8


def test_c06_kappa_g_consistency(scene):
    """Ambient definition equals (A1 B2 - A2 B1) sqrt(EG - F^2) within
    1e-8; plane circle of radius 2 gives kappa_g = 0.5 within 1e-9."""
    worst = 0.0
    for name in ALL_CURVES:
        patch, curve = scene.curve_host(name)
        for s in split_samples(sample_arclength(patch, curve, 50)):
            geom = point_geometry(patch, s.u, s.v)
            direct = surface_curvatures(geom, s).kappa_g
            intrinsic = geodesic_curvature_formula(
                velocity_coefficients(geom, s), geom)
            worst = max(worst, abs(direct - intrinsic))
    patch, curve = scene.curve_host("plane_circle")
    sample = split_samples(sample_arclength(patch, curve, 9))[4]
    geom = point_geometry(patch, sample.u, sample.v)
    circle_dev = abs(surface_curvatures(geom, sample).kappa_g - 0.5)
    ok = worst < 1e-8 and circle_dev < 1e-9
    report(6, ok, f"max consistency dev {worst:.3e}, "
                  f"plane-circle dev {circle_dev:.3e}")
    assert worst < 1e-8
    assert circle_dev < 1e-9


def test_c07_intrinsic_invariance_catenoid_helicoid(scene):
    """Catenoid/helicoid pair, constant-v curve: |kappa_g - kappa_g_bar|
    below 1e-7 at 50 samples; metric residuals below 1e-10 on 20x20."""
    pair = scene.pair("catenoid_helicoid")
    match = verify_metric_match(pair, (20, 20))
    _, curve = scene.curve_host("catenoid_line")
    rep = invariance_report(
        pair, sample_arclength(pair.source, curve, 50))
    ok = match.max_residual < 1e-10 and rep.max_kappa_g_residual < 1e-7
    report(7, ok, f"metric {match.max_residual:.3e}, "
                  f"kappa_g dev {rep.max_kappa_g_residual:.3e}")
    assert match.max_residual < 1e-10
    assert rep.max_kappa_g_residual < 1e-7


def test_c08_rigid_invariance(scene):
    """z-axis rotation of the offset-sphere configuration preserves rho,
    <t, gamma>, lam, mu and the tangent-position status within 1e-9."""
    pair = scene.pair("offset_rotation")
    _, curve = scene.curve_host("offset_latitude")
    rep = invariance_report(
        pair, sample_arclength(pair.source, curve, 50))
    preserved = tangent_position_preservation(
        pair, sample_arclength(pair.source, curve, 50))
    worst = max(rep.max_rho_residual, rep.max_t_comp_residual,
                rep.max_lam_residual, rep.max_mu_residual, preserved)
    ok = worst < 1e-9
    report(8, ok, f"max residual {worst:.3e}")
    assert worst < 1e-9


def test_c09_counterexample_regression(scene):
    """Plane-to-cylinder pair: the source circle is tangent-position, its
    image has tangency residual identically 1; geodesic curvature still
    transfers.  The extrinsic preservation claim is flagged as empirically
    failing without affecting the exit status."""
    pair = scene.pair("plane_cylinder")
    _, curve = scene.curve_host("plane_circle")
    samples = split_samples(sample_arclength(pair.source, curve, 50))
    src_g = max(abs(tangency_gradient(pair.source, s.u, s.v)[0])
                for s in samples)
    gbar = [tangency_gradient(pair.target, s.u, s.v)[0] for s in samples]
    gbar_dev = max(abs(g - 1.0) for g in gbar)
    rep = invariance_report(
        pair, sample_arclength(pair.source, curve, 50))
    kappa_ok = rep.max_kappa_g_residual < 1e-7
    flagged = not rep.tangent_position_preserved
    ok = src_g < 1e-8 and gbar_dev < 1e-9 and kappa_ok and flagged
    report(9, ok, f"source max|g| {src_g:.3e}, image g-1 dev {gbar_dev:.3e}, "
                  f"kappa_g dev {rep.max_kappa_g_residual:.3e}, "
                  f"preservation flagged failing: {flagged}")
    assert src_g < 1e-8
    assert gbar_dev < 1e-9
    assert kappa_ok
    assert flagged


def test_c10_tracer_convergence(scene):
    """Halving h from 0.01 to 0.005 must reduce the max vertex deviation
    from the exact latitude by a factor in [3, 5]; all vertices satisfy
    |g| < 1e-8; runtime under 2 seconds.

    The deviation-ratio clause cannot hold on this configuration: the
    locus is an exact parameter-coordinate line (g depends on u only), so
    every predictor direction is exactly parallel to the line and vertex
    deviation is set by the corrector tolerance alone, independent of h.
    The assertion is kept as stated and fails honestly; see the Tests
    section of the README.
    """
    patch = scene.surface("offset_sphere")
    start = time.perf_counter()
    coarse = trace_tangent_curve(patch, (2.0, 0.0), h=0.01)
    fine = trace_tangent_curve(patch, (2.0, 0.0), h=0.005)
    elapsed = time.perf_counter() - start
    g_worst = max(float(np.max(np.abs(coarse.residuals))),
                  float(np.max(np.abs(fine.residuals))))
    dev_coarse = float(np.max(np.abs(coarse.vertices[:, 0] - LATITUDE)))
    dev_fine = float(np.max(np.abs(fine.vertices[:, 0] - LATITUDE)))
    ratio = dev_coarse / dev_fine if dev_fine > 0 else math.inf
    ok = g_worst < 1e-8 and elapsed < 2.0 and 3.0 <= ratio <= 5.0
    report(10, ok, f"max|g| {g_worst:.3e}, runtime {elapsed:.2f}s, "
                   f"deviations {dev_coarse:.3e}/{dev_fine:.3e}, "
                   f"ratio {ratio:.2f} (required [3, 5])")
    assert g_worst < 1e-8
    assert elapsed < 2.0
    assert 3.0 <= ratio <= 5.0, (
        f"deviation ratio {ratio:.2f} outside [3, 5]: both deviations are "
        "corrector-limited because the locus is a parameter-coordinate "
        "line (see README, Tests)")
