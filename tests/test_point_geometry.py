"""The per-point geometry record against independent oracles, and the
one-record-per-sample, one-sampling-per-curve contracts built on it."""

import numpy as np
import pytest
from sample_list import split_samples

from tpcurves import (
    PointGeometry,
    binormal_formula_check,
    christoffel,
    first_form,
    frame_coefficients,
    geodesic_curvature_formula,
    parse_surface,
    point_geometry,
    position_component_report,
    ratio_identity_check,
    sample_arclength,
    surface_curvatures,
    transfer_sample,
    velocity_coefficients,
)
from tpcurves import checks
from tpcurves.errors import DegeneratePoint
from tpcurves.surface import SurfacePatch

_FORM_KEYS = ("E", "F", "G", "E_u", "E_v", "F_u", "F_v", "G_u", "G_v",
              "E_uu", "E_uv", "E_vv", "F_uu", "F_uv", "F_vv",
              "G_uu", "G_uv", "G_vv")
_SYMBOLS = ("g111", "g112", "g121", "g122", "g221", "g222")


def _points(patch, count, rng):
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    du, dv = u1 - u0, v1 - v0
    us = rng.uniform(u0 + 0.02 * du, u1 - 0.02 * du, count)
    vs = rng.uniform(v0 + 0.02 * dv, v1 - 0.02 * dv, count)
    return zip(us.tolist(), vs.tolist())


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


def test_record_fields_match_oracles(scene):
    rng = np.random.default_rng(20261018)
    for name, patch in scene.surfaces.items():
        for u, v in _points(patch, 25, rng):
            geom = point_geometry(patch, u, v)
            jet = patch.jet(u, v)

            form = first_form(jet)
            for key in _FORM_KEYS:
                name, _, partial = key.partition("_")
                assert getattr(getattr(geom, name), "f" + partial) == \
                    getattr(form, key), key
            assert geom.det.f == form.det

            # An independent route through np.cross and np.linalg.norm.
            w = np.cross(jet.du, jet.dv)
            normal = w / np.linalg.norm(w)
            for got, want in ((geom.second.L, np.dot(jet.duu, normal)),
                              (geom.second.M, np.dot(jet.duv, normal)),
                              (geom.second.N, np.dot(jet.dvv, normal)),
                              *zip(geom.second.unit_normal, normal)):
                assert _close(got, float(want), 1e-15), name

            chris = christoffel(PointGeometry(jet))
            for key, field, want in zip(_SYMBOLS, geom.chris, chris):
                assert field.f == want.f, (name, key)
                assert field.fu == want.fu, (name, key)
                assert field.fv == want.fv, (name, key)

            # g = phi . N; (lam, mu) solve the Gram system of phi.
            gram = np.array([[form.E, form.F], [form.F, form.G]])
            lam, mu = np.linalg.solve(
                gram, [np.dot(jet.value, jet.du), np.dot(jet.value, jet.dv)])
            assert _close(geom.g.f, float(np.dot(jet.value, normal)), 1e-12)
            assert _close(geom.lam.f, float(lam), 1e-12), name
            assert _close(geom.mu.f, float(mu), 1e-12), name


def test_record_rejects_degenerate_point():
    patch = parse_surface("(u + v, u + v, 0)", (-1, 1), (-1, 1))
    with pytest.raises(DegeneratePoint):
        point_geometry(patch, 0.2, 0.3)


def test_per_sample_functions_evaluate_no_jet(scene, monkeypatch):
    patch, curve = scene.curve_host("offset_latitude")
    samples = split_samples(sample_arclength(patch, curve, 5))
    geoms = [point_geometry(patch, s.u, s.v) for s in samples]

    def no_jet(self, u, v):
        raise AssertionError("patch.jet called with a record at hand")

    monkeypatch.setattr(SurfacePatch, "jet", no_jet)
    for geom, s in zip(geoms, samples):
        geodesic_curvature_formula(frame_coefficients(geom, s), geom)
        geodesic_curvature_formula(velocity_coefficients(geom, s), geom)
        ratio_identity_check(geom, s)
        position_component_report(geom, s)
        binormal_formula_check(geom, s)
        surface_curvatures(geom, s)
        transfer_sample(geom, s)


def test_run_checks_samples_each_curve_once(scene, monkeypatch):
    calls = {}
    sample = checks.sample_arclength

    def counting(patch, curve, samples=50):
        key = (patch.name, curve.name, samples)
        calls[key] = calls.get(key, 0) + 1
        return sample(patch, curve, samples)

    monkeypatch.setattr(checks, "sample_arclength", counting)
    checks.run_checks(scene, "all")
    assert calls
    assert all(n == 1 for n in calls.values()), calls
