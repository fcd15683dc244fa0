"""Batched records and identities against the per-sample scalar path.

One PointGeometry over a whole curve and one stacked sample must give, at
every sample, the bits of the same identity evaluated on that sample's own
record, NaN positions included.  The per-sample loops that
``report-thm31``, the thm31 checks and ``invariance_report`` ran before
are kept here as the oracle.
"""

import contextlib
import dataclasses
import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sample_list import split_samples
from test_batch_compile import counting
from test_expr import _ast_strategy
from test_tracer_oracle import one_point_locus

from tpcurves import (
    CurveSample,
    binormal_formula_check,
    cli,
    frame_coefficients,
    geodesic_curvature_formula,
    invariance_report,
    parse_surface,
    point_geometry,
    position_component_report,
    ratio_identity_check,
    register_pair,
    sample_arclength,
    second_form,
    second_form_relation,
    surface_curvatures,
    trace_tangent_curve,
    transfer_sample,
    velocity_coefficients,
    verify_metric_match,
)
from tpcurves import checks, curves
from tpcurves.curves import KAPPA_MIN
from tpcurves.errors import DegeneratePoint, EvalError, FrameUndefined
from tpcurves.expr import Binary, Const, Unary, Var
from tpcurves.jets import dot3
from tpcurves.report import fmt
from tpcurves.surface import SurfacePatch

CURVES = ("plane_circle", "cone_circle", "cone_circle_v2", "cone_ruling",
          "sphere_latitude", "sphere_meridian", "offset_latitude",
          "catenoid_line", "cylinder_helix")
PAIRS = (("catenoid_helicoid", "catenoid_line"),
         ("plane_cylinder", "plane_circle"),
         ("offset_rotation", "offset_latitude"),
         ("identity_catenoid", "catenoid_line"))
FIELD2 = ("f", "fu", "fv", "fuu", "fuv", "fvv")


def assert_bits(batch, scalars, what=""):
    """``batch`` holds at each sample the bits of ``scalars`` there, NaN
    where the scalar is NaN."""
    want = np.array(scalars, float)
    got = np.array(np.broadcast_to(batch, want.shape), float)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan, err_msg=what)
    assert got[~nan].tobytes() == want[~nan].tobytes(), what


def assert_vectors(batch, scalars, what=""):
    """(3, n) columns against (3,) vectors."""
    for row in range(3):
        assert_bits(np.broadcast_to(batch, (3, len(scalars)))[row],
                    [x[row] for x in scalars], f"{what}[{row}]")


def assert_fields(batch, scalars, names, what=""):
    for name in names:
        assert_bits(getattr(batch, name), [getattr(x, name) for x in scalars],
                    f"{what}.{name}")


def assert_records(batch, scalars):
    for name in ("E", "F", "G", "det", "area", "g", "lam", "mu"):
        assert_fields(getattr(batch, name),
                      [getattr(r, name) for r in scalars], FIELD2, name)
    assert_fields(batch.second, [r.second for r in scalars],
                  ("L", "M", "N", "area_element"), "second")
    assert_vectors(batch.second.unit_normal,
                   [r.second.unit_normal for r in scalars], "unit_normal")
    for k, field in enumerate(batch.chris):
        assert_fields(field, [r.chris[k] for r in scalars], ("f", "fu", "fv"),
                      f"chris[{k}]")


def assert_identities(batch_geom, batch, geoms, samples):
    """Every ring-generic identity, batched against per sample."""
    coeff_names = [f.name for f in dataclasses.fields(
        frame_coefficients(geoms[0], samples[0]))]
    for fn in (frame_coefficients, velocity_coefficients):
        got = fn(batch_geom, batch)
        want = [fn(g, s) for g, s in zip(geoms, samples)]
        assert_fields(got, want, coeff_names, fn.__name__)
        assert_bits(geodesic_curvature_formula(got, batch_geom),
                    [geodesic_curvature_formula(c, g)
                     for c, g in zip(want, geoms)],
                    fn.__name__ + " kappa_g")
    assert_bits(ratio_identity_check(batch_geom, batch),
                [ratio_identity_check(g, s) for g, s in zip(geoms, samples)],
                "ratio")
    assert_fields(surface_curvatures(batch_geom, batch),
                  [surface_curvatures(g, s) for g, s in zip(geoms, samples)],
                  ("kappa_g", "kappa_n"), "curvatures")

    rep = position_component_report(batch_geom, batch)
    reps = [position_component_report(g, s) for g, s in zip(geoms, samples)]
    assert_fields(rep, reps, [f.name for f in dataclasses.fields(rep)],
                  "components")
    assert_bits(rep.max_residual(), [r.max_residual() for r in reps],
                "max_residual")

    try:
        want = [binormal_formula_check(g, s) for g, s in zip(geoms, samples)]
    except FrameUndefined as exc:
        with pytest.raises(FrameUndefined) as raised:
            binormal_formula_check(batch_geom, batch)
        assert str(raised.value) == str(exc)
    else:
        assert_bits(binormal_formula_check(batch_geom, batch), want,
                    "binormal")

    moved = transfer_sample(batch_geom, batch)
    moved_each = [transfer_sample(g, s) for g, s in zip(geoms, samples)]
    assert_fields(moved, moved_each, ("s", "u", "v", "du", "dv", "ddu", "ddv"),
                  "transfer")
    for name in ("gamma", "dgamma", "ddgamma", "dddgamma"):
        if getattr(batch, name) is not None:
            assert_vectors(getattr(moved, name),
                           [getattr(m, name) for m in moved_each], name)


def check_curve(patch, batch, samples):
    """``batch`` and its samples one by one, ``samples``."""
    geom = point_geometry(patch, batch.u, batch.v)
    geoms = [point_geometry(patch, s.u, s.v) for s in samples]
    assert_records(geom, geoms)
    assert_identities(geom, batch, geoms, samples)


@pytest.mark.parametrize("name", CURVES)
def test_builtin_curves_batch_equals_scalar(scene, name):
    patch, curve = scene.curve_host(name)
    batch = sample_arclength(patch, curve, 40)
    check_curve(patch, batch, split_samples(batch))


def test_traced_samples_batch_equals_scalar(scene):
    """The tracer's stacked sample and record against one-point records
    and samples.  Tracer samples carry no third derivatives: they stack
    to None."""
    patch = scene.surface("catenoid")
    traced = trace_tangent_curve(patch, (1.0, 1.2), h=0.02, resample=15)
    geoms, samples = zip(*one_point_locus(patch, traced))
    assert traced.samples.dddu is None and traced.samples.dddgamma is None
    assert_records(traced.geometry, geoms)
    assert_identities(traced.geometry, traced.samples, geoms, samples)


def test_stacked_sample_shapes(scene):
    patch, curve = scene.curve_host("offset_latitude")
    batch = sample_arclength(patch, curve, 7)
    assert isinstance(batch, CurveSample)
    assert batch.u.shape == (7,) and batch.gamma.shape == (3, 7)
    assert batch.dddgamma.shape == (3, 7)


def _skeleton(s, u, v, du, dv, ddu, ddv, dddu, dddv):
    return CurveSample(s=s, t=s, u=u, v=v, du=du, dv=dv, ddu=ddu, ddv=ddv,
                       dddu=dddu, dddv=dddv, gamma=None, dgamma=None,
                       ddgamma=None, dddgamma=None)


def _samples_on(patch, us, vs, derivs):
    """Samples with the parameter derivatives ``derivs`` (one row per
    node) at the nodes, their ambient data from each node's scalar
    record."""
    return [transfer_sample(point_geometry(patch, u, v),
                            _skeleton(0.0, u, v, *d))
            for u, v, d in zip(us, vs, derivs.tolist())]


@given(_ast_strategy(), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
# log(cos v) / exp(u - c): the loop fails regularity at node 0, the batch's
# evaluation would fail first at a later node.
@example(node=Binary("/", Unary("log", Unary("cos", Var("v"))),
                     Unary("exp", Binary("-", Var("u"),
                                         Const(70.85007553569945)))),
         seed=3628800)
def test_random_surfaces_batch_equals_scalar(node, seed):
    # phi_u x phi_v = (-1, f_v, f_u): regular wherever f is finite.
    patch = SurfacePatch(name="tree", components=(node, Var("v"), Var("u")),
                         u_range=(-1.5, 2.0), v_range=(0.0, 3.0))
    rng = np.random.default_rng(seed)
    us = rng.uniform(-1.5, 2.0, 12).tolist()
    vs = rng.uniform(0.0, 3.0, 12).tolist()
    derivs = rng.uniform(-2.0, 2.0, (12, 6))
    u, v = np.array(us), np.array(vs)
    with np.errstate(all="ignore"):
        try:
            samples = _samples_on(patch, us, vs, derivs)
        except (EvalError, DegeneratePoint) as exc:
            with pytest.raises(type(exc)):
                point_geometry(patch, u, v)
            return
        batch = transfer_sample(point_geometry(patch, u, v),
                                _skeleton(np.zeros(12), u, v, *derivs.T))
        check_curve(patch, batch, samples)


@pytest.mark.parametrize("text, v_range", [
    ("(u, v^3, 0)", (-1.0, 1.0)),  # phi_v = 0 on v = 0 only
    ("(u + v, u + v, 0)", (-1.0, 1.0)),  # degenerate everywhere
    ("(u, v, 0)", (0.0, 1.0)),  # regular: no error on either side
])
def test_degenerate_node_raises_like_first_scalar_failure(text, v_range):
    patch = parse_surface(text, (0.0, 1.0), v_range)
    us = np.linspace(0.1, 0.9, 9)
    vs = np.linspace(v_range[0], v_range[1], 9)[::-1].copy()
    try:
        for u, v in zip(us.tolist(), vs.tolist()):
            point_geometry(patch, u, v)
    except DegeneratePoint as exc:
        with pytest.raises(DegeneratePoint) as raised:
            point_geometry(patch, us, vs)
        assert str(raised.value) == str(exc)
    else:
        point_geometry(patch, us, vs)


def test_second_form_names_first_degenerate_node():
    patch = parse_surface("(u, v^3, 0)", (0.0, 1.0), (-1.0, 1.0))
    us, vs = np.array([0.2, 0.4, 0.6]), np.array([0.5, 0.0, 0.0])
    with pytest.raises(DegeneratePoint) as raised:
        second_form(patch.jet_batch(us, vs))
    with pytest.raises(DegeneratePoint) as scalar:
        second_form(patch.jet(0.4, 0.0))
    assert str(raised.value) == str(scalar.value)


def test_binormal_names_first_sample_below_frame_threshold(scene):
    patch, curve = scene.curve_host("cone_ruling")  # a straight line
    batch = sample_arclength(patch, curve, 5)
    samples = split_samples(batch)
    with pytest.raises(FrameUndefined) as scalar:
        binormal_formula_check(point_geometry(patch, samples[0].u,
                                              samples[0].v), samples[0])
    with pytest.raises(FrameUndefined) as raised:
        binormal_formula_check(point_geometry(patch, batch.u, batch.v), batch)
    assert str(raised.value) == str(scalar.value)
    rep = position_component_report(point_geometry(patch, batch.u, batch.v),
                                     batch)
    assert np.isnan(rep.n_comp).all() and np.isnan(rep.b_residual).all()
    assert math.isnan(position_component_report(
        point_geometry(patch, samples[2].u, samples[2].v),
        samples[2]).n_comp)


# --- the report-thm31 "max residual" line --------------------------------

NAN = math.nan
# rho, t, n, b residuals of six samples: a NaN in first place hides the 9
# behind it, as Python's max does; NaN elsewhere never wins.
RESIDUALS = {
    "rho_residual": [NAN, 1.0, 1.0, 1.0, 1.0, 1.0],
    "t_residual": [9.0, NAN, 1.0, 1.0, 1.0, 2.0],
    "n_residual": [1.0, 1.0, NAN, 1.0, 7.0, NAN],
    "b_residual": [1.0, 3.0, 1.0, NAN, 1.0, NAN],
}


def _report_line_max(columns):
    """The loop report-thm31 ran before, per-sample max_residual over the
    parts present, then a running max from 0, but NaN once a rho or t
    residual is NaN: that identity went unchecked."""
    worst = 0.0
    for rho, t, n, b in zip(*columns):
        if math.isnan(rho) or math.isnan(t):
            return NAN
        vals = [rho, t] + [x for x in (n, b) if not math.isnan(x)]
        worst = max(worst, max(vals))
    return worst


def test_max_residual_keeps_python_max_semantics(scene):
    patch, curve = scene.curve_host("offset_latitude")
    batch = sample_arclength(patch, curve, 6)
    rep = dataclasses.replace(
        position_component_report(point_geometry(patch, batch.u, batch.v),
                                  batch),
        **{k: np.array(v) for k, v in RESIDUALS.items()})
    per_sample = [max([r, t] + [x for x in (n, b) if not math.isnan(x)])
                  for r, t, n, b in zip(*RESIDUALS.values())]
    assert_bits(rep.max_residual(), per_sample)
    assert math.isnan(rep.max_residual()[0])


# NaN n and b residuals alone (below the frame threshold): they never win.
N_B_NAN = dict(RESIDUALS, rho_residual=[1.0] * 6,
               t_residual=[9.0, 1.0, 1.0, 1.0, 1.0, 2.0])
# Every rho residual NaN: each sample's max is NaN, and so is the line's
# (Python's running max from 0 would stay at 0).
ALL_NAN_FIRST = dict(RESIDUALS, rho_residual=[NAN] * 6)


@pytest.mark.parametrize("residuals, expected", [(N_B_NAN, 9.0),
                                                 (RESIDUALS, NAN),
                                                 (ALL_NAN_FIRST, NAN)])
def test_report_line_max_skips_only_n_and_b_nans(scene, monkeypatch,
                                                 tmp_path, residuals,
                                                 expected):
    real = cli.position_component_report

    def with_nans(geom, sample):
        return dataclasses.replace(
            real(geom, sample), **{k: np.array(v)
                                   for k, v in residuals.items()})

    monkeypatch.setattr(cli, "position_component_report", with_nans)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["report-thm31", "offset_latitude", "--samples", "6",
                         "--out", str(tmp_path)]) == 0
    assert fmt(_report_line_max(residuals.values())) == fmt(expected)
    assert stdout.getvalue().endswith(f"max residual {fmt(expected)}\n")


# --- a NaN residual fails an asserted check --------------------------------

def test_worst_keeps_a_nan_wherever_it_sits():
    assert checks._worst(np.array([1e-12, 3e-12])) == 3e-12
    assert checks._worst(np.array([])) == 0.0
    for values in ([1e-12, NAN], [NAN, 1e-12]):
        assert math.isnan(checks._worst(np.array(values)))


def test_nan_on_the_traced_curve_fails_its_check(scene, monkeypatch):
    """One NaN rho at the second traced sample makes rho-value/traced NaN,
    and the check fails."""
    real = checks.position_component_report

    def with_nan(geom, sample):
        rep = real(geom, sample)
        return dataclasses.replace(rep, rho=np.where(
            np.arange(np.size(rep.rho)) == 1, NAN, rep.rho))

    monkeypatch.setattr(checks, "position_component_report", with_nan)
    (check,) = [c for c in checks.run_checks(scene, "thm31")
                if c.name == "rho-value/traced"]
    assert math.isnan(check.value) and check.passed is False


# --- the per-sample loops the batched callers replaced, as oracles ---------

def scalar_invariance(pair, samples):
    """invariance_report's former loop: two records per sample."""
    out = {k: [] for k in ("rho_source", "rho_target", "t_comp_source",
                           "t_comp_target", "kappa_g_source",
                           "kappa_g_target", "lam_residuals", "mu_residuals",
                           "source_tangency", "target_tangency")}
    relation = []
    for s in samples:
        src = point_geometry(pair.source, s.u, s.v)
        tgt = point_geometry(pair.target, s.u, s.v)
        t = transfer_sample(tgt, s)
        out["rho_source"].append(float(np.dot(s.gamma, s.gamma)))
        out["rho_target"].append(float(np.dot(t.gamma, t.gamma)))
        out["t_comp_source"].append(float(np.dot(s.dgamma, s.gamma)))
        out["t_comp_target"].append(float(np.dot(t.dgamma, t.gamma)))
        out["kappa_g_source"].append(geodesic_curvature_formula(
            velocity_coefficients(src, s), src))
        out["kappa_g_target"].append(geodesic_curvature_formula(
            velocity_coefficients(tgt, t), tgt))
        out["lam_residuals"].append(abs(src.lam.f - tgt.lam.f))
        out["mu_residuals"].append(abs(src.mu.f - tgt.mu.f))
        out["source_tangency"].append(src.g.f)
        out["target_tangency"].append(tgt.g.f)
        relation.append(second_form_relation(pair, s, (src, tgt)))
    return out, relation


@pytest.mark.parametrize("pair_name, curve_name", PAIRS)
def test_invariance_report_equals_scalar_loop(scene, pair_name, curve_name):
    pair = scene.pair(pair_name)
    _, curve = scene.curve_host(curve_name)
    batch = sample_arclength(pair.source, curve, 30)
    rep = invariance_report(pair, batch)
    want, relation = scalar_invariance(pair, split_samples(batch))
    for key, values in want.items():
        assert_bits(getattr(rep, key), values, key)
    residual, premise = second_form_relation(pair, batch, rep.geometry)
    assert_bits(residual, [r for r, _ in relation], "relation")
    assert premise.tolist() == [p for _, p in relation]


def scalar_curve_residuals(scene, curve_name):
    """checks._curve_residuals' former loop: one record per sample."""
    patch, curve = scene.curve_host(curve_name)
    worst = dict.fromkeys(("a1", "a2", "a3", "b3", "ratio", "pythagoras",
                           "kappa_g", "components", "binormal"), 0.0)

    def record(key, value):
        worst[key] = max(worst[key], value)

    for s in split_samples(sample_arclength(patch, curve,
                                            scene.options.samples)):
        geom = point_geometry(patch, s.u, s.v)
        curv = checks.surface_curvatures(geom, s)
        # surface_curvatures returned Python floats then.
        kappa_g, kappa_n = float(curv.kappa_g), float(curv.kappa_n)
        kappa = math.sqrt(dot3(s.ddgamma, s.ddgamma))
        if kappa > KAPPA_MIN:
            record("pythagoras", abs(kappa_g ** 2 + kappa_n ** 2
                                     - kappa * kappa))
        intrinsic = geodesic_curvature_formula(
            velocity_coefficients(geom, s), geom)
        record("kappa_g", abs(kappa_g - intrinsic))
        if curve_name in checks._TP_CURVES:
            coeffs = frame_coefficients(geom, s)
            record("a1", abs(coeffs.a1 - s.du))
            record("a2", abs(coeffs.a2 - s.dv))
            record("a3", abs(coeffs.a3))
            record("b3", abs(coeffs.b3 - kappa_n))
            record("ratio", abs(ratio_identity_check(geom, s)))
        if curve_name == checks._COMPONENT_CURVE:
            record("components",
                   position_component_report(geom, s).max_residual())
            record("binormal", binormal_formula_check(geom, s))
    return worst


def build_record(patch, s):
    """A new PointGeometry over a stacked sample, as ``run_checks`` builds
    each (patch, sample) record the first time."""
    return point_geometry(patch, s.u, s.v)


def curve_residuals(scene, name):
    """``checks._curve_residuals`` over the curve's samples on its host."""
    patch, curve = scene.curve_host(name)
    s = sample_arclength(patch, curve, scene.options.samples)
    return checks._curve_residuals(patch, s, build_record, name)


@pytest.mark.parametrize("name", checks._ALL_CURVES)
def test_curve_residuals_equal_scalar_loop(scene, name):
    got = curve_residuals(scene, name)
    want = scalar_curve_residuals(scene, name)
    for key, value in want.items():
        assert got.get(key, 0.0).hex() == float(value).hex(), key


def test_pythagoras_squares_as_python_floats(scene, monkeypatch):
    """x ** 2 on a Python float (libm's pow) can differ from x * x in the
    last place; the batched check keeps the former.  Sample 0 gets a
    geodesic curvature at which the two give different residuals."""
    patch, curve = scene.curve_host("plane_circle")
    first = split_samples(sample_arclength(patch, curve,
                                           scene.options.samples))[0]
    curv = surface_curvatures(point_geometry(patch, first.u, first.v), first)
    c = float(curv.kappa_n) ** 2 - dot3(first.ddgamma, first.ddgamma)
    rng = random.Random(20261018)
    candidates = (rng.uniform(1.0, 4.0) for _ in range(100000))
    x0 = next((x for x in candidates
               if abs(x ** 2 + c) != abs(x * x + c)), 2.0)
    real = checks.surface_curvatures

    def steep(geom, sample):
        rep = real(geom, sample)
        kappa_g = np.where(np.equal(sample.s, 0.0), x0, 0.0)[()]
        return dataclasses.replace(rep, kappa_g=kappa_g)

    monkeypatch.setattr(checks, "surface_curvatures", steep)
    got = curve_residuals(scene, "plane_circle")
    want = scalar_curve_residuals(scene, "plane_circle")
    assert got["pythagoras"].hex() == want["pythagoras"].hex()


# --- curves are sampled straight into stacked arrays ---------------------

def count_curve_samples(monkeypatch):
    """Record, for each CurveSample built, whether it is a single sample
    (a scalar ``s``) rather than a stacked one."""
    single = []
    init = CurveSample.__init__

    def counted(self, *args, **kwargs):
        single.append(np.ndim(args[0] if args else kwargs["s"]) == 0)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CurveSample, "__init__", counted)
    return single


def test_report_builds_no_per_sample_object(scene, monkeypatch, tmp_path):
    calls = []
    counting(monkeypatch, calls, "_record_batch")
    single = count_curve_samples(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report-thm31", "catenoid_line", "--samples", "40",
                         "--out", str(tmp_path)]) == 0
    assert single and not any(single)
    # One record, all samples.
    assert calls == [("_record_batch", "catenoid", 40)]


def test_verify_stacks_no_sample_list(scene, monkeypatch):
    """One ``verify`` builds no single sample and samples each (patch,
    curve, n) once, its final pass included."""
    sampled = {}
    samples_at = curves._samples_at

    def counted_samples_at(patch, curve, t, s):
        key = (patch.name, curve.name, len(t))
        sampled[key] = sampled.get(key, 0) + 1
        return samples_at(patch, curve, t, s)

    monkeypatch.setattr(curves, "_samples_at", counted_samples_at)
    single = count_curve_samples(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--target", "all"]) == 0
    assert sampled and all(n == 1 for n in sampled.values()), sampled
    assert not any(single)


def test_verify_builds_each_record_once(scene, monkeypatch):
    """One ``verify`` builds one PointGeometry per patch, over every node set
    its checks read there (``checks._plan``): the gauss points, the curves'
    samples on their hosts, the 9-sample plane circle, and each pair's
    source sample on its source and its target.  The 9 are the 8 planned
    patches and the traced locus, the one second record on offset_sphere."""
    calls = []
    counting(monkeypatch, calls, "_record_batch")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--target", "all"]) == 0
    assert len(calls) == 9, calls
    patches = [name for _, name, _ in calls]
    assert patches.count("offset_sphere") == 2, calls
    assert len(set(patches)) == 8, calls
    assert calls.count(("_record_batch", "catenoid",
                        100 + scene.options.samples)) == 1


# --- the registration sweep is kept ---------------------------------------

def test_metric_match_reuses_the_registration_sweep(scene, monkeypatch):
    calls = []
    # A sweep evaluates the metric program alone, never the order-3 jets.
    counting(monkeypatch, calls, "metric_batch", "jet_batch")
    sweep = [("metric_batch", name, 84) for name in ("catenoid", "helicoid")]
    source, target = scene.surface("catenoid"), scene.surface("helicoid")
    pair = register_pair(source, target, "intrinsic", (12, 7))
    assert calls == sweep
    kept = verify_metric_match(pair, [12, 7])
    assert calls == sweep
    fresh = verify_metric_match(dataclasses.replace(pair, metric=None),
                                (12, 7))
    assert calls == sweep * 2
    assert kept == fresh
    verify_metric_match(pair, (7, 12))  # another grid sweeps again
    assert calls == sweep * 3
