"""The tracer's float vertex loop and resampling against their numpy forms.

``trace_tangent_curve`` keeps each vertex's ambient point as the walk's
3-tuple and sums chords in floats; the walk's resampling finds every
target's segment by bisection and interpolates in floats.
The oracle is the earlier code, kept verbatim: one numpy array per vertex,
chord and closure distances as ``sqrt(d.dot(d))``, and one ``searchsorted``
per target.  Only the closure test reads the chord sums, so the traces
must agree bit for bit wherever no closure test sits within an ulp of its
threshold.
"""

import math

import numpy as np
import pytest
from test_tracer_oracle import ELLIPSOID

from tpcurves import parse_surface
from tpcurves.errors import SingularLocus
from tpcurves.forms import point_geometry
from tpcurves.tangent import (_CORRECTOR_MAX, GRAD_FLOOR, LOCUS_TOL,
                              TRACE_TOL, TracedCurve, _correct_seed,
                              _locus_sample, _tangent_dir, trace_tangent_curve)


def numpy_trace(patch, seed, h, max_steps=4000, resample=100):
    u, v, t = _correct_seed(patch, seed, h)
    seed_t = t
    verts = [(u, v)]
    resid = [t[0]]
    ambient = [np.array(t[3])]
    tu, tv = _tangent_dir(t)
    if (abs(tu) >= abs(tv) and tu < 0.0) or (abs(tu) < abs(tv) and tv < 0.0):
        tu, tv = -tu, -tv

    closed = False
    status = "max_steps"
    chord_sum = 0.0
    for step in range(1, max_steps + 1):
        pu, pv = u + h * tu, v + h * tv
        if not patch.contains(pu, pv):
            status = "domain_exit"
            break
        cu, cv, ct = patch.tangency_walk(patch, pu, pv, _CORRECTOR_MAX,
                                         TRACE_TOL)
        if ct is None:
            status = "domain_exit"
            break
        if abs(ct[0]) > LOCUS_TOL:
            if math.hypot(ct[1], ct[2]) <= GRAD_FLOOR:
                raise SingularLocus("gradient vanished during trace")
            status = "corrector_stalled"
            break
        u, v, t = cu, cv, ct
        pos = np.array(t[3])
        chord = pos - ambient[-1]
        chord_sum += math.sqrt(chord.dot(chord))
        verts.append((u, v))
        resid.append(t[0])
        ambient.append(pos)
        ntu, ntv = _tangent_dir(t)
        if ntu * tu + ntv * tv < 0.0:
            ntu, ntv = -ntu, -ntv
        tu, tv = ntu, ntv
        if step >= 10:
            mean_chord = chord_sum / step
            param_dist = math.hypot(u - verts[0][0], v - verts[0][1])
            back = pos - ambient[0]
            amb_dist = math.sqrt(back.dot(back))
            if param_dist < 0.5 * h or amb_dist < 0.5 * mean_chord:
                closed = True
                status = "closed"
                break

    vertices = np.array(verts)
    ambient = np.array(ambient)
    samples, geometry, length = numpy_resample(patch, vertices, ambient,
                                               closed, resample, seed_t)
    return TracedCurve(
        vertices=vertices, residuals=np.array(resid), closed=closed,
        status=status, seed=(float(seed[0]), float(seed[1])), h=h,
        arc_length=length, samples=samples, geometry=geometry)


def numpy_resample(patch, vertices, ambient, closed, count, start):
    def batch(accepted, sign):
        us, vs, ss = np.array(accepted, dtype=float).reshape(-1, 3).T
        geom = point_geometry(patch, us, vs)
        return _locus_sample(geom, ss, sign), geom

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

    tu, tv = _tangent_dir(start)
    step_u = vertices[1][0] - vertices[0][0]
    step_v = vertices[1][1] - vertices[0][1]
    sign = 1.0 if (tu * step_u + tv * step_v) >= 0.0 else -1.0

    accepted = []
    targets = [total * i / (count - 1) for i in range(count)]
    for s in targets:
        if not closed:
            s = min(s, float(cum[-1]))
        idx = int(np.searchsorted(cum, s, side="right")) - 1
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
        u = float(base[0] + frac * (nxt[0] - base[0]))
        v = float(base[1] + frac * (nxt[1] - base[1]))
        u, v, t = patch.tangency_walk(patch, u, v, _CORRECTOR_MAX, TRACE_TOL)
        if t is None or abs(t[0]) > LOCUS_TOL:
            continue
        accepted.append((u, v, s))
    return (*batch(accepted, sign), total)


@pytest.mark.parametrize("h", [0.02, 0.01, 0.005])
@pytest.mark.parametrize("name,seed", [
    ("offset_sphere", (2.0, 0.0)),
    ("catenoid", (1.0, 1.2)),
    ("helicoid", (1.0, 0.05)),
    ("ellipsoid", (2.0, -1.0)),
])
def test_float_loop_matches_numpy_loop(scene, name, seed, h):
    patch = (parse_surface(ELLIPSOID, (0.05, 3.09), (-10.0, 10.0),
                           name="ellipsoid")
             if name == "ellipsoid" else scene.surface(name))
    fast = trace_tangent_curve(patch, seed, h=h)
    slow = numpy_trace(patch, seed, h)
    assert (fast.status, fast.closed) == (slow.status, slow.closed)
    assert fast.vertices.tobytes() == slow.vertices.tobytes()
    assert fast.residuals.tobytes() == slow.residuals.tobytes()
    assert fast.arc_length.hex() == slow.arc_length.hex()
    for field in ("s", "u", "v"):
        assert getattr(fast.samples, field).tobytes() == \
            getattr(slow.samples, field).tobytes(), field
