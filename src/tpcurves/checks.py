"""Named verification checks over a scene, grouped by target.

Each check is either *asserted* (it tests a mathematical identity that
must hold to a pinned tolerance; a failure is an implementation bug) or
*empirical* (it evaluates a claim that is known to fail off its premises,
such as extrinsic invariance under a non-rigid pair; the observed verdict
is reported and never affects the exit status).

Targets:

* ``gauss``  -- moving-frame expansion residuals of the second partials.
* ``thm31``  -- position-vector component identities on tangent-position
  curves, coefficient identities, curvature consistency.
* ``thm32``  -- metric matching and invariance behaviour of registered
  pairs, including the plane-to-cylinder counterexample regression.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import (
    KAPPA_MIN,
    reparametrize_arclength,
    stack_samples,
    surface_curvatures,
)
from .forms import (
    christoffel,
    first_form,
    gauss_equation_residual,
    point_geometry,
    second_form,
)
from .isometry import (
    invariance_report,
    second_form_relation,
    verify_metric_match,
)
from .jets import dot3
from .tangent import (
    binormal_formula_check,
    frame_coefficients,
    geodesic_curvature_formula,
    position_component_report,
    ratio_identity_check,
    trace_tangent_curve,
    velocity_coefficients,
)

__all__ = ["Check", "run_checks", "TARGETS"]

TARGETS = ("gauss", "thm31", "thm32", "all")

_GAUSS_SURFACES = ("plane", "cone", "sphere", "offset_sphere",
                   "catenoid", "helicoid")
# Curves lying inside tangent-position loci; the coefficient identities
# are only defined there.
_TP_CURVES = ("plane_circle", "cone_circle", "cone_circle_v2",
              "offset_latitude")
_ALL_CURVES = ("plane_circle", "cone_circle", "cone_circle_v2",
               "sphere_latitude", "sphere_meridian", "offset_latitude",
               "catenoid_line", "cylinder_helix")
# The curve whose closed-form components and binormal expansion are checked.
_COMPONENT_CURVE = "offset_latitude"

_RNG_SEED = 20260810
_LATITUDE = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class Check:
    name: str
    target: str
    kind: str  # "asserted" | "empirical"
    value: float
    threshold: Optional[float]
    passed: Optional[bool]  # None for empirical checks
    note: str = ""

    def verdict(self):
        if self.kind == "asserted":
            return "PASS" if self.passed else "FAIL"
        return "empirical: holds" if self.value < 1e-8 else "empirical: fails"


def _asserted(name, target, value, threshold, note=""):
    return Check(name=name, target=target, kind="asserted", value=value,
                 threshold=threshold, passed=bool(value < threshold), note=note)


def _empirical(name, target, value, note=""):
    return Check(name=name, target=target, kind="empirical", value=value,
                 threshold=None, passed=None, note=note)


def _random_points(patch, count, rng, margin=0.02):
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    du, dv = u1 - u0, v1 - v0
    us = rng.uniform(u0 + margin * du, u1 - margin * du, count)
    vs = rng.uniform(v0 + margin * dv, v1 - margin * dv, count)
    return zip(us.tolist(), vs.tolist())


def _gauss_checks(scene):
    rng = np.random.default_rng(_RNG_SEED)
    out = []
    for name in _GAUSS_SURFACES:
        patch = scene.surface(name)
        worst = 0.0
        for u, v in _random_points(patch, 100, rng):
            jet = patch.jet(u, v)
            form = first_form(jet)
            residuals = gauss_equation_residual(
                jet, second_form(jet), christoffel(form))
            worst = max(worst, max(float(np.max(np.abs(r)))
                                   for r in residuals))
        out.append(_asserted(f"gauss-residual/{name}", "gauss", worst, 1e-8))
    return out


def _worst(values):
    """The running max from 0 over the values, sample by sample, as
    Python's ``max`` takes it: a NaN never replaces the current worst."""
    return max([0.0, *np.ravel(values).tolist()])


def _curve_residuals(scene, sample, curve_name):
    """Worst residual of each per-sample thm31 identity along one curve,
    from one PointGeometry over all its samples."""
    patch, curve = scene.curve_host(curve_name)
    s = stack_samples(sample(patch, curve, scene.options.samples))
    geom = point_geometry(patch, s.u, s.v)
    curv = surface_curvatures(geom, s)
    kappa = np.sqrt(dot3(s.ddgamma, s.ddgamma))
    framed = kappa > KAPPA_MIN
    # x ** 2 on Python floats is libm's pow, which differs from x * x in the
    # last place for about one value in a thousand; keep its bits.
    kg2, kn2 = (np.fromiter((x ** 2 for x in k.tolist()), float, k.size)
                for k in (curv.kappa_g, curv.kappa_n))
    intrinsic = geodesic_curvature_formula(
        velocity_coefficients(geom, s), geom).normalized
    worst = {
        "pythagoras": _worst(abs(kg2 + kn2 - kappa * kappa)[framed]),
        "kappa_g": _worst(abs(curv.kappa_g - intrinsic)),
    }
    if curve_name in _TP_CURVES:
        coeffs = frame_coefficients(geom, s)
        worst.update(a1=_worst(abs(coeffs.a1 - s.du)),
                     a2=_worst(abs(coeffs.a2 - s.dv)),
                     a3=_worst(abs(coeffs.a3)),
                     b3=_worst(abs(coeffs.b3 - curv.kappa_n)),
                     ratio=_worst(abs(ratio_identity_check(geom, s))))
    if curve_name == _COMPONENT_CURVE:
        worst.update(
            components=_worst(position_component_report(geom, s)
                              .max_residual()),
            binormal=_worst(binormal_formula_check(geom, s)))
    return worst


def _thm31_checks(scene, sample):
    worst = {name: _curve_residuals(scene, sample, name)
             for name in _ALL_CURVES}
    out = []
    for name in _TP_CURVES:
        w = worst[name]
        out.append(_asserted(f"coeff-a1-identity/{name}", "thm31",
                             w["a1"], 1e-8))
        out.append(_asserted(f"coeff-a2-identity/{name}", "thm31",
                             w["a2"], 1e-8))
        out.append(_asserted(f"tangency-a3/{name}", "thm31", w["a3"], 1e-8))
        out.append(_asserted(f"b3-normal-curvature/{name}", "thm31",
                             w["b3"], 1e-8))
        out.append(_asserted(f"ratio-identity/{name}", "thm31",
                             w["ratio"], 1e-8))
    for name in _ALL_CURVES:
        out.append(_asserted(f"curvature-pythagoras/{name}", "thm31",
                             worst[name]["pythagoras"], 1e-8))
    for name in _ALL_CURVES:
        out.append(_asserted(f"kappa-g-consistency/{name}", "thm31",
                             worst[name]["kappa_g"], 1e-8))
    patch, curve = scene.curve_host("plane_circle")
    s = sample(patch, curve, 9)[3]
    value = surface_curvatures(point_geometry(patch, s.u, s.v), s).kappa_g
    out.append(_asserted("kappa-g-plane-circle-value", "thm31",
                         abs(value - 0.5), 1e-9,
                         note="radius-2 circle, counterclockwise"))

    w = worst[_COMPONENT_CURVE]
    out.append(_asserted(f"components-closed-vs-ambient/{_COMPONENT_CURVE}",
                         "thm31", w["components"], 1e-7))
    out.append(_asserted(f"binormal-expansion/{_COMPONENT_CURVE}", "thm31",
                         w["binormal"], 1e-7))

    patch, _ = scene.curve_host(_COMPONENT_CURVE)
    traced = trace_tangent_curve(patch, (2.0, 0.0), h=scene.options.h,
                                 max_steps=scene.options.max_steps,
                                 resample=scene.options.samples)
    vertex_g = float(np.max(np.abs(traced.residuals)))
    theta_dev = float(np.max(np.abs(traced.vertices[:, 0] - _LATITUDE)))
    out.append(_asserted("trace-vertex-tangency/offset_sphere", "thm31",
                         vertex_g, 1e-8))
    out.append(_asserted("trace-latitude-deviation/offset_sphere", "thm31",
                         theta_dev, 1e-6))
    comp_dev = rho_dev = lam_dev = mu_dev = 0.0
    for s, geom in zip(traced.samples, traced.geometry):
        rep = position_component_report(geom, s)
        comp_dev = max(comp_dev, rep.max_residual())
        rho_dev = max(rho_dev, abs(rep.rho - 3.0))
        lam_dev = max(lam_dev, abs(rep.lam + math.sqrt(3.0)))
        mu_dev = max(mu_dev, abs(rep.mu))
    out.append(_asserted("components-closed-vs-ambient/traced", "thm31",
                         comp_dev, 1e-7))
    out.append(_asserted("rho-value/traced", "thm31", rho_dev, 1e-6,
                         note="squared position length, expected 3"))
    out.append(_asserted("lam-value/traced", "thm31", lam_dev, 1e-7,
                         note="expected -sqrt(3)"))
    out.append(_asserted("mu-value/traced", "thm31", mu_dev, 1e-7,
                         note="expected 0"))
    return out


def _pair_checks(scene, sample):
    out = []
    grid = scene.options.grid
    nsamp = scene.options.samples

    # Intrinsic pair: only the metric and geodesic curvature are asserted.
    pair = scene.pair("catenoid_helicoid")
    match = verify_metric_match(pair, grid)
    out.append(_asserted("metric-match/catenoid_helicoid", "thm32",
                         match.max_residual, 1e-10))
    _, curve = scene.curve_host("catenoid_line")
    rep = invariance_report(pair, sample(pair.source, curve, nsamp))
    out.append(_asserted("kappa-g-invariance/catenoid_helicoid", "thm32",
                         rep.max_kappa_g_residual, 1e-7))
    out.append(_empirical("rho-invariance/catenoid_helicoid", "thm32",
                          rep.max_rho_residual,
                          note="extrinsic; no assertion for non-rigid pairs"))
    out.append(_empirical("tangent-position-preserved/catenoid_helicoid",
                          "thm32", rep.max_target_tangency,
                          note="extrinsic; no assertion for non-rigid pairs"))

    # Rigid origin-fixing pair: everything is preserved.
    pair = scene.pair("offset_rotation")
    match = verify_metric_match(pair, grid)
    out.append(_asserted("metric-match/offset_rotation", "thm32",
                         match.max_residual, 1e-9))
    _, curve = scene.curve_host("offset_latitude")
    rep = invariance_report(pair, sample(pair.source, curve, nsamp))
    out.append(_asserted("rigid-rho-invariance/offset_rotation", "thm32",
                         rep.max_rho_residual, 1e-9))
    out.append(_asserted("rigid-t-comp-invariance/offset_rotation", "thm32",
                         rep.max_t_comp_residual, 1e-9))
    out.append(_asserted("rigid-lam-invariance/offset_rotation", "thm32",
                         rep.max_lam_residual, 1e-9))
    out.append(_asserted("rigid-mu-invariance/offset_rotation", "thm32",
                         rep.max_mu_residual, 1e-9))
    out.append(_asserted("rigid-kappa-g-invariance/offset_rotation", "thm32",
                         rep.max_kappa_g_residual, 1e-7))
    out.append(_asserted("rigid-tangent-position-preserved/offset_rotation",
                         "thm32", rep.max_target_tangency, 1e-9))

    # Counterexample pair: metric matches, geodesic curvature transfers,
    # but the image of a tangent-position curve is not tangent-position.
    pair = scene.pair("plane_cylinder")
    match = verify_metric_match(pair, grid)
    out.append(_asserted("metric-match/plane_cylinder", "thm32",
                         match.max_residual, 1e-10))
    _, curve = scene.curve_host("plane_circle")
    src_samples = sample(pair.source, curve, nsamp)
    rep = invariance_report(pair, src_samples)
    out.append(_asserted("kappa-g-invariance/plane_cylinder", "thm32",
                         rep.max_kappa_g_residual, 1e-7))
    gbar = rep.max_target_tangency
    out.append(_empirical("tangent-position-preserved/plane_cylinder",
                          "thm32", gbar,
                          note="documented counterexample: image tangency "
                               "residual is identically 1"))
    out.append(_asserted("counterexample-gbar-value/plane_cylinder", "thm32",
                         abs(gbar - 1.0), 1e-9,
                         note="image tangency residual must equal 1"))
    residual, _ = second_form_relation(pair, stack_samples(src_samples),
                                       rep.geometry)
    rel_worst = _worst(abs(residual))
    out.append(_empirical("second-form-relation/plane_cylinder", "thm32",
                          rel_worst,
                          note="premise fails: image is not tangent-position"))

    # Identity pair: exact zeros everywhere, including the relation above.
    pair = scene.pair("identity_catenoid")
    _, curve = scene.curve_host("catenoid_line")
    src_samples = sample(pair.source, curve, nsamp)
    rep = invariance_report(pair, src_samples)
    out.append(_asserted("identity-all-residuals/identity_catenoid", "thm32",
                         max(rep.max_rho_residual, rep.max_t_comp_residual,
                             rep.max_kappa_g_residual, rep.max_lam_residual,
                             rep.max_mu_residual), 1e-12))
    residual, _ = second_form_relation(pair, stack_samples(src_samples),
                                       rep.geometry)
    rel_worst = _worst(abs(residual))
    out.append(_asserted("second-form-relation/identity_catenoid", "thm32",
                         rel_worst, 1e-12))
    return out


def run_checks(scene, target="all"):
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    # One sample list per (patch, curve, n), kept for this call only.
    sample = functools.cache(reparametrize_arclength)
    out = []
    if target in ("gauss", "all"):
        out.extend(_gauss_checks(scene))
    if target in ("thm31", "all"):
        out.extend(_thm31_checks(scene, sample))
    if target in ("thm32", "all"):
        out.extend(_pair_checks(scene, sample))
    return out
