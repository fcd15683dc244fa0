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
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import _frame, sample_arclength, surface_curvatures
from .errors import GeometryError
from .forms import gauss_equation_residual, point_geometry
from .isometry import (
    invariance_report,
    second_form_relation,
    verify_metric_match,
)
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
# The curve each pair's invariance checks sample on the pair's source.
_PAIR_CURVES = {"catenoid_helicoid": "catenoid_line",
                "offset_rotation": "offset_latitude",
                "plane_cylinder": "plane_circle",
                "identity_catenoid": "catenoid_line"}

_RNG_SEED = 20260810
# Random points keep this share of each parameter range from its ends.
_MARGIN = 0.02
_LATITUDE = 2.0 * math.pi / 3.0

# A surface's gauss points, read by a record as a sample's u and v are.
_Nodes = namedtuple("_Nodes", "u v")


class _NodeSets(dict):
    """(patches, nodes) of each node set the checks read, by key, drawn
    from ``entries``, an iterator of (key, patches, nodes) in the order the
    checks read them (:func:`_node_sets`).  A key draws the sets as far as
    its own, so a check that reads its set first draws it then, as it would
    sample it itself; :meth:`drain` draws the rest."""

    def __init__(self, entries):
        super().__init__()
        self._entries = entries

    def __missing__(self, key):
        for k, patches, nodes in self._entries:
            self[k] = patches, nodes
            if k == key:
                return self[k]
        raise KeyError(key)

    def drain(self):
        for key, patches, nodes in self._entries:
            self[key] = patches, nodes
        return self.values()


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


def _random_points(patch, count, rng):
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    du, dv = u1 - u0, v1 - v0
    us = rng.uniform(u0 + _MARGIN * du, u1 - _MARGIN * du, count)
    vs = rng.uniform(v0 + _MARGIN * dv, v1 - _MARGIN * dv, count)
    return us, vs


def _gauss_checks(sets, record):
    """Worst moving-frame residual of each surface, from one PointGeometry
    over its random points; the Christoffel oracle checks every node."""
    out = []
    for name in _GAUSS_SURFACES:
        (patch,), nodes = sets["gauss", name]
        residuals = gauss_equation_residual(record(patch, nodes))
        worst = float(np.max(np.abs(residuals)))
        out.append(_asserted(f"gauss-residual/{name}", "gauss", worst, 1e-8))
    return out


def _worst(values):
    """The largest of 0 and the values; a NaN anywhere makes it NaN, so
    an asserted check with a NaN residual fails."""
    return float(np.max(values, initial=0.0))


def _curve_residuals(patch, s, record, curve_name):
    """Worst residual of each per-sample thm31 identity along one curve,
    from one PointGeometry over all its samples ``s`` on ``patch``."""
    geom = record(patch, s)
    curv = surface_curvatures(geom, s)
    kappa, framed = _frame(s)[:2]
    # x ** 2 on Python floats is libm's pow, which differs from x * x in the
    # last place for about one value in a thousand; keep its bits.
    kg2, kn2 = (np.fromiter((x ** 2 for x in k.tolist()), float, k.size)
                for k in (curv.kappa_g, curv.kappa_n))
    intrinsic = geodesic_curvature_formula(velocity_coefficients(geom, s),
                                           geom)
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


def _thm31_checks(scene, sets, record):
    worst = {}
    for name in _ALL_CURVES:
        (patch,), s = sets["curve", name]
        worst[name] = _curve_residuals(patch, s, record, name)
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
    (patch,), s = sets["value", "plane_circle"]
    value = surface_curvatures(record(patch, s), s).kappa_g[3]
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
    rep = position_component_report(traced.geometry, traced.samples)
    out.append(_asserted("components-closed-vs-ambient/traced", "thm31",
                         _worst(rep.max_residual()), 1e-7))
    out.append(_asserted("rho-value/traced", "thm31",
                         _worst(abs(rep.rho - 3.0)), 1e-6,
                         note="squared position length, expected 3"))
    out.append(_asserted("lam-value/traced", "thm31",
                         _worst(abs(rep.lam + math.sqrt(3.0))), 1e-7,
                         note="expected -sqrt(3)"))
    out.append(_asserted("mu-value/traced", "thm31", _worst(abs(rep.mu)),
                         1e-7, note="expected 0"))
    return out


def _pair_checks(scene, sets, record):
    out = []
    grid = scene.options.grid

    def report(pair, samples):
        return invariance_report(pair, samples,
                                 geometry=(record(pair.source, samples),
                                           record(pair.target, samples)))

    # Intrinsic pair: only the metric and geodesic curvature are asserted.
    pair = scene.pair("catenoid_helicoid")
    match = verify_metric_match(pair, grid)
    out.append(_asserted("metric-match/catenoid_helicoid", "thm32",
                         match.max_residual, 1e-10))
    rep = report(pair, sets["pair", "catenoid_helicoid"][1])
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
    rep = report(pair, sets["pair", "offset_rotation"][1])
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
    src_samples = sets["pair", "plane_cylinder"][1]
    rep = report(pair, src_samples)
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
    residual, _ = second_form_relation(pair, src_samples, rep.geometry)
    rel_worst = _worst(abs(residual))
    out.append(_empirical("second-form-relation/plane_cylinder", "thm32",
                          rel_worst,
                          note="premise fails: image is not tangent-position"))

    # Identity pair: exact zeros everywhere, including the relation above.
    pair = scene.pair("identity_catenoid")
    src_samples = sets["pair", "identity_catenoid"][1]
    rep = report(pair, src_samples)
    out.append(_asserted("identity-all-residuals/identity_catenoid", "thm32",
                         max(rep.max_rho_residual, rep.max_t_comp_residual,
                             rep.max_kappa_g_residual, rep.max_lam_residual,
                             rep.max_mu_residual), 1e-12))
    residual, _ = second_form_relation(pair, src_samples, rep.geometry)
    rel_worst = _worst(abs(residual))
    out.append(_asserted("second-form-relation/identity_catenoid", "thm32",
                         rel_worst, 1e-12))
    return out


def _node_sets(scene, target, sample):
    """(key, patches, nodes) of each node set the checks of ``target`` read,
    in the order they read them, and the patches they read it on: each
    gauss surface's random points, drawn from one generator in order
    (("gauss", surface)); each thm31 curve's samples on its host
    (("curve", curve)) and plane_circle's 9 whose geodesic curvature is
    checked by value (("value", "plane_circle")); and each pair's samples of
    its curve on its source, read on its source and its target (("pair",
    pair)).  Pairs are looked up by ``scene.pair_def``: ``scene.pair``
    registers one, a grid sweep."""
    n = scene.options.samples
    if target in ("gauss", "all"):
        rng = np.random.default_rng(_RNG_SEED)
        for name in _GAUSS_SURFACES:
            patch = scene.surface(name)
            nodes = _Nodes(*_random_points(patch, 100, rng))
            yield ("gauss", name), (patch,), nodes
    if target in ("thm31", "all"):
        counts = [("curve", name, n) for name in _ALL_CURVES]
        for kind, name, count in counts + [("value", "plane_circle", 9)]:
            patch, curve = scene.curve_host(name)
            yield (kind, name), (patch,), sample(patch, curve, count)
    if target in ("thm32", "all"):
        for name, curve in _PAIR_CURVES.items():
            pdef = scene.pair_def(name)
            source = scene.surface(pdef.source)
            yield (("pair", name), (source, scene.surface(pdef.target)),
                   sample(source, scene.curve(curve), n))


def _plan(sets, records):
    """Draw every node set of ``sets`` and fill ``records`` with one
    PointGeometry per patch over all the sets read on it, split into a
    record per set (:meth:`~tpcurves.forms.PointGeometry.split`)."""
    groups = {}
    for patches, nodes in sets.drain():
        for patch in patches:
            groups.setdefault(patch, {})[id(nodes)] = nodes
    for patch, group in groups.items():
        nodes = list(group.values())
        u, v = (np.concatenate([getattr(x, k) for x in nodes]) for k in "uv")
        whole = point_geometry(patch, u, v)
        for x, part in zip(nodes, whole.split([x.u.size for x in nodes])):
            records[patch, id(x)] = x, part


def run_checks(scene, target="all"):
    """The checks of ``target`` on ``scene``, in order.

    A plan comes first (:func:`_plan`): it draws every node set the checks
    read (:func:`_node_sets`: the gauss points and the curves' samples) and
    builds one PointGeometry per patch over all of that patch's sets, a part
    of it for each set, with slices of its second form and symbols.  The
    checks then read their sets and records from the plan.  Where planning
    raises an error of the geometry, the plan is dropped and each check
    draws its own set and builds its own record, as it needs them, so the
    checks raise the error they meet first, in their own order.  Sets and
    records are kept for this call only.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    # One stacked sample per (patch, curve, n), and one PointGeometry per
    # (patch, node set).
    sample = functools.cache(sample_arclength)
    records = {}

    def record(patch, nodes):
        key = patch, id(nodes)  # a node set holds arrays, so it has no hash
        if key not in records:  # the entry keeps the set, and so its id
            records[key] = nodes, point_geometry(patch, nodes.u, nodes.v)
        return records[key][1]

    sets = _NodeSets(_node_sets(scene, target, sample))
    try:
        _plan(sets, records)
    except (GeometryError, ArithmeticError):  # a record's divide="raise"
        # The plan only fills the tables: any error it meets, the checks
        # meet too, or an earlier one, and they are left to raise it.
        records.clear()
        sets = _NodeSets(_node_sets(scene, target, sample))
    out = []
    if target in ("gauss", "all"):
        out.extend(_gauss_checks(sets, record))
    if target in ("thm31", "all"):
        out.extend(_thm31_checks(scene, sets, record))
    if target in ("thm32", "all"):
        out.extend(_pair_checks(scene, sets, record))
    return out
