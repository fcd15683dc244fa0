"""The tracer's generated walk against the record-based Python loop it
replaced, pinned outputs of ``tpcurves trace``, and the tracer's evaluation
counts."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
from collections import Counter

import numpy as np
import pytest

from tpcurves import (CurveSample, builtin_scene, cli, parse_surface,
                      point_geometry, tangent)
from tpcurves.forms import tangency_gradient
from tpcurves.surface import _PROGRAMS, SurfacePatch
from tpcurves.tangent import (_CORRECTOR_MAX, GRAD_FLOOR, LOCUS_TOL,
                              TRACE_TOL, TracedCurve, trace_tangent_curve)

# Off-axis ellipsoid: its locus is no coordinate line, so the corrector
# iterates at every vertex.
ELLIPSOID = "(2*sin(u)*cos(v) + 0.6, sin(u)*sin(v) + 0.4, 1.5*cos(u) + 2.2)"


def newton_over(point, geometry=point_geometry):
    """The corrector before the order-2 kernel, kept as the oracle: every
    iterate builds a full record, ``geometry(patch, u, v)``, and the point
    is ``point(patch, record)``."""
    def newton(patch, u, v, max_iter, tol):
        def result(u, v, b):
            return u, v, (b.g.f, b.g.fu, b.g.fv, point(patch, b))

        b = geometry(patch, u, v)
        for _ in range(max_iter):
            g = b.g.f
            if abs(g) <= tol:
                return result(u, v, b)
            gu, gv = b.g.fu, b.g.fv
            norm2 = gu * gu + gv * gv
            if norm2 <= GRAD_FLOOR * GRAD_FLOOR:
                return result(u, v, b)
            u -= g * gu / norm2
            v -= g * gv / norm2
            if not patch.contains(u, v):
                return u, v, None
            b = geometry(patch, u, v)
        return result(u, v, b)
    return newton


def value_point(patch, b):
    """The point from SurfacePatch.value: on the built-in surfaces (no / and
    no ^ but u^2), the kernel's bits."""
    return tuple(patch.value(b.jet.u, b.jet.v))


def jet_point(patch, b):
    """The point from the record's jet: the kernel's bits on any tree."""
    return tuple(b.jet.value.tolist())


def record_gradient(patch, u, v):
    """``tangency_gradient`` from the record alone, its fallback path."""
    b = point_geometry(patch, u, v)
    return b.g.f, b.g.fu, b.g.fv, jet_point(patch, b)


@contextlib.contextmanager
def program_free(patch, newton):
    """The tracer's Python parts with no generated program: ``newton``
    corrects the seed, g and its gradient come from the record, and
    records, g's Hessian at the seed among them, run on the rings."""
    with pytest.MonkeyPatch.context() as m:
        m.setitem(vars(patch), "tangency_walk", newton)
        m.setattr(tangent, "tangency_gradient", record_gradient)
        m.setitem(_PROGRAMS, "record", (*_PROGRAMS["record"][:3], math.inf))
        yield


def oracle_trace(patch, seed, h, newton, max_steps=4000, resample=100):
    """``trace_tangent_curve`` as the plain Python loop it was before the
    walk was generated, over the corrector ``newton`` and with no generated
    program (:func:`program_free`)."""
    with program_free(patch, newton):
        u, v, t = tangent._correct_seed(patch, seed, h)
        seed_t = t
        verts, resid, ambient = [(u, v)], [t[0]], [t[3]]
        u0, v0 = u, v
        x0, y0, z0 = t[3]
        tu, tv = tangent._tangent_dir(t)
        if (abs(tu) >= abs(tv) and tu < 0.0) or \
                (abs(tu) < abs(tv) and tv < 0.0):
            tu, tv = -tu, -tv
        closed = False
        status = "max_steps"
        chord_sum = 0.0
        for step in range(1, max_steps + 1):
            pu, pv = u + h * tu, v + h * tv
            if not patch.contains(pu, pv):
                status = "domain_exit"
                break
            cu, cv, ct = newton(patch, pu, pv, _CORRECTOR_MAX, TRACE_TOL)
            if ct is None:
                status = "domain_exit"
                break
            if abs(ct[0]) > LOCUS_TOL:
                if math.hypot(ct[1], ct[2]) <= GRAD_FLOOR:
                    raise tangent.SingularLocus(
                        "gradient vanished during trace")
                status = "corrector_stalled"
                break
            u, v, t = cu, cv, ct
            (x, y, z), (lx, ly, lz) = t[3], ambient[-1]
            dx, dy, dz = x - lx, y - ly, z - lz
            chord_sum += math.sqrt(dx * dx + dy * dy + dz * dz)
            verts.append((u, v))
            resid.append(t[0])
            ambient.append(t[3])
            ntu, ntv = tangent._tangent_dir(t)
            if ntu * tu + ntv * tv < 0.0:
                ntu, ntv = -ntu, -ntv
            tu, tv = ntu, ntv
            if step >= 10:
                mean_chord = chord_sum / step
                param_dist = math.hypot(u - u0, v - v0)
                dx, dy, dz = x - x0, y - y0, z - z0
                amb_dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                if param_dist < 0.5 * h or amb_dist < 0.5 * mean_chord:
                    closed = True
                    status = "closed"
                    break
        vertices = np.array(verts)
        samples, geometry, length = oracle_resample(
            patch, vertices, np.array(ambient), closed, resample, seed_t,
            newton)
    return TracedCurve(
        vertices=vertices, residuals=np.array(resid), closed=closed,
        status=status, seed=(float(seed[0]), float(seed[1])), h=h,
        arc_length=length, samples=samples, geometry=geometry)


def oracle_resample(patch, vertices, ambient, closed, count, start, newton):
    """The tracer's resampling as a per-target Python loop, as it was
    before the walk took it: each target interpolated in floats and
    corrected by its own call of ``newton``."""
    def batch(accepted, sign):
        us, vs, ss = np.array(accepted, dtype=float).reshape(-1, 3).T
        geom = point_geometry(patch, us, vs)
        return tangent._locus_sample(geom, ss, sign), geom

    if len(vertices) < 2 or count < 2:
        return (*batch((), 1.0), 0.0)
    if closed:
        d = ambient[-1] - ambient[-2]
        tau = (ambient[0] - ambient[-2]).dot(d) / d.dot(d)
        if 0.0 <= tau < 1.0:
            ambient, vertices = ambient.copy(), vertices.copy()
            ambient[-1] = ambient[-2] + tau * d
            vertices[-1] = vertices[-2] + tau * (vertices[-1] - vertices[-2])
    segs = np.linalg.norm(np.diff(ambient, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(segs)])
    total = float(cum[-1])
    if closed:
        total += float(np.linalg.norm(ambient[0] - ambient[-1]))
    if total <= 0.0:
        return (*batch((), 1.0), 0.0)

    tu, tv = tangent._tangent_dir(start)
    step_u = vertices[1][0] - vertices[0][0]
    step_v = vertices[1][1] - vertices[0][1]
    sign = 1.0 if (tu * step_u + tv * step_v) >= 0.0 else -1.0

    targets = [total * i / (count - 1) for i in range(count)]
    if not closed:
        targets = [min(s, total) for s in targets]
    idxs = (np.searchsorted(cum, targets, side="right") - 1).tolist()
    cum, segs, vertices = cum.tolist(), segs.tolist(), vertices.tolist()
    accepted = []
    for s, idx in zip(targets, idxs):
        if idx >= len(segs):
            if closed:
                frac = (s - cum[-1]) / max(total - cum[-1], 1e-300)
                base, nxt = vertices[-1], vertices[0]
            else:
                frac = 1.0
                base, nxt = vertices[-2], vertices[-1]
        else:
            idx = max(idx, 0)
            den = segs[idx] if segs[idx] > 0.0 else 1.0
            frac = (s - cum[idx]) / den
            base, nxt = vertices[idx], vertices[min(idx + 1, len(vertices) - 1)]
        u = base[0] + frac * (nxt[0] - base[0])
        v = base[1] + frac * (nxt[1] - base[1])
        u, v, t = newton(patch, u, v, _CORRECTOR_MAX, TRACE_TOL)
        if t is None or abs(t[0]) > LOCUS_TOL:
            continue
        accepted.append((u, v, s))
    return (*batch(accepted, sign), total)


def one_point_locus(patch, traced):
    """The tracer's former per-sample path, kept as the oracle: one record
    and one ``_locus_sample`` at each traced (u, v, s), oriented by the
    tracer's rule (+1 where the first step follows (-g_v, g_u) at the
    first vertex).  Returns (record, sample) pairs."""
    (u0, v0), (u1, v1) = traced.vertices[:2].tolist()
    tu, tv = tangent._tangent_dir(tangency_gradient(patch, u0, v0))
    sign = 1.0 if tu * (u1 - u0) + tv * (v1 - v0) >= 0.0 else -1.0
    out = []
    batch = traced.samples
    for u, v, s in zip(batch.u.tolist(), batch.v.tolist(), batch.s.tolist()):
        geom = point_geometry(patch, u, v)
        out.append((geom, tangent._locus_sample(geom, s, sign)))
    return out


def _patch(scene, name):
    if name == "ellipsoid":
        return parse_surface(ELLIPSOID, (0.05, 3.09), (-10.0, 10.0),
                             name="ellipsoid")
    return scene.surface(name)


@pytest.mark.parametrize("name,seed", [
    ("offset_sphere", (2.0, 0.0)),
    ("catenoid", (1.0, 1.2)),
    ("helicoid", (1.0, 0.05)),
    ("ellipsoid", (2.0, -1.0)),
])
def test_kernel_corrector_matches_record_corrector(scene, name, seed):
    patch = _patch(scene, name)
    records = Counter()

    def counted(patch, u, v):
        records["corrector"] += 1
        return point_geometry(patch, u, v)

    fast = trace_tangent_curve(patch, seed, h=0.01)
    slow = oracle_trace(patch, seed, 0.01, newton_over(value_point, counted))

    assert fast.status == slow.status
    assert fast.vertices.tobytes() == slow.vertices.tobytes()
    assert fast.residuals.tobytes() == slow.residuals.tobytes()
    assert fast.arc_length.hex() == slow.arc_length.hex()
    for field in ("s", "u", "v"):
        assert getattr(fast.samples, field).tobytes() == \
            getattr(slow.samples, field).tobytes(), field
    if name == "ellipsoid":
        # Newton iterates here: the comparison covers its steps, not only
        # predictor points that already lie on the locus.
        assert fast.status == "closed"
        assert records["corrector"] > 2 * len(fast.vertices)


# sha256 of stdout, trace.csv and trace.svg of ``tpcurves trace``, taken
# with the record-based corrector.
PINNED = [
    ("offset_sphere", "2.0,0.0", None,
     "debe2f66a38ec038f345967581c06272c8293d96b635a73d47e9ca4c80c2cc88",
     "1ddc60c017fa5486a85bd4da7dc5e21ddb5e672145510c8a518180331abc838c",
     "7fe2c1aeea150591b89248478376bc2c499f2d9016addd77c22c232d6a7e35ac"),
    ("offset_sphere", "2.2,1.0", "0.02",
     "f13ca4bb2b8356c643242f12033427207e7f3d02633f756de11817db0229a43f",
     "f04201eb9920b2d97a010b3f1a9c8cd2f57f34aa3df979393d43408f8c4ba9db",
     "a6814c7a96cc93c222ad33ae1f3aa56daf15a399093d543397045538345e3955"),
    ("catenoid", "1.0,1.2", None,
     "b02ce06a5674d1e72d5e4c62683810197092458a89442111ed36cf2dd591f505",
     "bab707f35c9e9e877c5e5ecf0ff019a4e0027f175a329881ac2f82f10e513fca",
     "19edb2de8fc332f61112e9489d0dcc1d643c509c1d3a3843861b7dfa4c4429f5"),
    ("catenoid", "0.95,-1.15", "0.02",
     "b9f6dda9db411286c8e3e07a530a0587bf3135ce2f0ead54d5cc3a9239cb2024",
     "a90e73320979eb624c227058480850b90cfe68102f5c397d430b3ded58ef8c36",
     "abce40b09abd094d3f699f77fac2546952a964584e0a7ad2843a364100188ed9"),
    ("helicoid", "1.0,0.05", None,
     "b326da1643af241b9234cb38b9fa4d6d22e7f9a7af5017b1cca2e7f720c2118f",
     "aa92aa026a5325e97ad64bd060b224fc2bbb7530ef331a6bcf249d98d8a949dd",
     "1603fcdbba6fdda092c2c058fec847eee4f20bacf1347d60c224258eb0805999"),
    ("helicoid", "0.9,-0.08", "0.02",
     "761f5cf32e9805abb3eb7973556e453e2d7930e7a8c7cb8ba48bc0d441f106ff",
     "97ae5c5158c8280dc25ee62b7f91cf4609502d718c29fe574d4630fc4c4589b3",
     "fd60b3e072ba8a0902c15472c4d2b4e58894e1bea6cb2c8be8425d4f8be780ef"),
    # One vertex (the first step leaves the domain): a header-only CSV.
    ("helicoid", "6.28,0.0", "0.01",
     "94cc70f74a4a73af9cb48936c2d1ff0016e80de2b2af70ee0d83a800cc53fe3b",
     "42e78f03c63c14c73d48413439d2777ffb0e00e2d50a90b1fb662d07da8d80a7",
     "e98e87d7979fcdfc8cee840097add105282ba6f40bafbdb7443f24f1bf7b793a"),
]


def _run_trace(out, surface, seed, h):
    argv = ["trace", surface, "--seed", seed, "--out", str(out)]
    if h is not None:
        argv += ["--h", h]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    return stdout.getvalue()


@pytest.mark.parametrize("surface,seed,h,stdout_sha,csv_sha,svg_sha", PINNED)
def test_trace_outputs_pinned(tmp_path, surface, seed, h, stdout_sha,
                              csv_sha, svg_sha):
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    stdout = _run_trace(tmp_path, surface, seed, h)
    assert sha(stdout.encode()) == stdout_sha
    assert sha((tmp_path / "trace.csv").read_bytes()) == csv_sha
    assert sha((tmp_path / "trace.svg").read_bytes()) == svg_sha


@pytest.fixture
def patch_calls(monkeypatch):
    """Counts of SurfacePatch.jet and value calls, and of the patch's
    batched records (``_record_batch``)."""
    calls = Counter()
    for method in ("jet", "_record_batch", "value"):
        original = getattr(SurfacePatch, method)

        def counted(self, u, v, _original=original, _method=method):
            calls[_method] += 1
            return _original(self, u, v)

        monkeypatch.setattr(SurfacePatch, method, counted)
    return calls


# The record kind's tier pinned on either side: g's Hessian at the
# corrected seed comes from the record build on the rings, or from the
# record program, and neither side calls ``patch.jet``.  The built-in scene
# is shared by every test, so the side taken would otherwise depend on how
# many traces ran before.
RECORD_TIERS = (math.inf, 0)


def _pin_record_tier(monkeypatch, tier):
    monkeypatch.setitem(_PROGRAMS, "record", (*_PROGRAMS["record"][:3], tier))


@pytest.mark.parametrize("max_steps", [50, 400])
def test_accepted_vertices_cost_no_jet(scene, patch_calls, monkeypatch,
                                       max_steps):
    patch = scene.surface("offset_sphere")
    walk = patch.tangency_walk
    walks = []
    monkeypatch.setitem(vars(patch), "tangency_walk",
                        lambda *a, **k: walks.append(a) or walk(*a, **k))
    for tier in RECORD_TIERS:
        _pin_record_tier(monkeypatch, tier)
        patch_calls.clear()
        walks.clear()
        traced = trace_tangent_curve(patch, (2.0, 0.0), h=0.01,
                                     max_steps=max_steps, resample=20)
        assert len(traced.vertices) == max_steps + 1
        # One batched record over the resampled samples, however many
        # vertices were accepted.
        assert patch_calls["jet"] == 0, tier
        assert patch_calls["_record_batch"] == 1
        assert patch_calls["value"] == 0
        # The walk runs three times: the seed's correction, the vertex
        # loop and the resampling.
        assert len(walks) == 3
        assert len(traced.samples.s) == 20
        assert traced.geometry.jet.u.tobytes() == traced.samples.u.tobytes()
        assert traced.geometry.jet.v.tobytes() == traced.samples.v.tobytes()


def test_cli_trace_reuses_the_tracer_records(tmp_path, patch_calls,
                                             monkeypatch):
    for tier in RECORD_TIERS:
        _pin_record_tier(monkeypatch, tier)
        patch_calls.clear()
        _run_trace(tmp_path, "offset_sphere", "2.0,0.0", None)
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert all(abs(float(r["g"])) < 1e-8 for r in rows)
        assert patch_calls["jet"] == 0, tier
        assert patch_calls["_record_batch"] == 1
        assert patch_calls["value"] == 0


def test_one_domain_test_precedes_each_kernel_call(tmp_path, monkeypatch):
    """``tpcurves trace offset_sphere``: each point the walk evaluates the
    kernel's body at (seed, predictor points, Newton iterates, resample
    targets) is tested against the domain once, and the outputs keep their
    pinned bytes.  The walk's globals are its hooks: a test reads each
    lower bound once, and the body calls ``sin`` at u and at v once."""
    patch = builtin_scene().surface("offset_sphere")
    scope = patch.tangency_walk.__globals__
    events = []

    class Low(float):
        def __le__(self, x):
            events.append((self.axis, x))
            return float(self) <= x

    for name, axis in (("U_LO", "u"), ("V_LO", "v")):
        bound = Low(scope[name])
        bound.axis = axis
        monkeypatch.setitem(scope, name, bound)
    monkeypatch.setitem(scope, "sin",
                        lambda w: events.append(("sin", w)) or math.sin(w))
    surface, seed, h, *shas = PINNED[0]
    stdout = _run_trace(tmp_path, surface, seed, h)
    tests, args, evaluations = [], [], 0
    for kind, x in events:
        if kind == "sin":
            args.append(x)
            if len(args) == 2:  # one evaluation at (u, v): since the last
                assert sorted(tests) == [("u", args[0]), ("v", args[1])]
                tests, args = [], []
                evaluations += 1
        else:
            tests.append((kind, x))
    assert args == [] and evaluations > 600
    outputs = (stdout.encode(), (tmp_path / "trace.csv").read_bytes(),
               (tmp_path / "trace.svg").read_bytes())
    assert [hashlib.sha256(x).hexdigest() for x in outputs] == shas


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_resampled_records_are_the_samples_records(scene, monkeypatch):
    """On the catenoid and on the off-axis ellipsoid, where Newton moves
    the resample points: (u_i, v_i) are the walk's corrections, and
    column i of the stacked sample and of the batched record carries the
    bits of the one-point record and sample at (u_i, v_i, s_i)."""
    for name, seed in (("catenoid", (1.0, -1.2)), ("ellipsoid", (2.0, -1.0))):
        patch = _patch(scene, name)
        corrected = []
        walk = patch.tangency_walk

        def recorded(*args, walk=walk, **kwargs):
            status = walk(*args, **kwargs)
            if "out" in kwargs:  # the resampling: its accepted (u, v, s)
                out = kwargs["out"]
                corrected.extend(zip(out[0::3], out[1::3]))
            return status

        monkeypatch.setitem(vars(patch), "tangency_walk", recorded)
        traced = trace_tangent_curve(patch, seed, h=0.02, resample=10)
        batch, record = traced.samples, traced.geometry
        n = len(batch.s)
        assert n == 10, name
        # The resampling's corrections, all ten accepted.
        assert list(zip(batch.u.tolist(), batch.v.tolist())) == corrected, \
            name
        oracle = one_point_locus(patch, traced)
        for f in dataclasses.fields(CurveSample):
            got = getattr(batch, f.name)
            if f.name.startswith("ddd"):
                assert got is None and all(getattr(one, f.name) is None
                                           for _, one in oracle), f.name
                continue
            assert got.shape == ((3, n) if f.name.endswith("gamma")
                                 else (n,)), (name, f.name)
            for i, (_, one) in enumerate(oracle):
                assert _bits(got[..., i]) == _bits(getattr(one, f.name)), \
                    (name, f.name, i)
        for field in ("g", "lam", "mu", "E", "F", "G"):
            for part in ("f", "fu", "fv", "fuu", "fuv", "fvv"):
                got = np.broadcast_to(getattr(getattr(record, field), part),
                                      (n,))
                for i, (geom, _) in enumerate(oracle):
                    want = getattr(getattr(geom, field), part)
                    assert _bits(got[i]) == _bits(want), \
                        (name, field, part, i)
        assert all(math.isfinite(geom.g.f) for geom, _ in oracle), name
