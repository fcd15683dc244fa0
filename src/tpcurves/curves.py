"""Arc-length parametrization, Frenet frames, geodesic and normal curvature.

Every downstream identity assumes unit speed, so curves enter the rest of
the library only through :func:`reparametrize_arclength`, which works in a
few batched passes over 1-D arrays of parameters (one ``ambient_jet`` call
each):

* a table of cumulative arc length over composite Gauss-Legendre panels of
  order 8, each panel halved until its integral and the sum over its halves
  agree to 1e-13 relative, with the speed also tested at every panel edge;
* Newton's method with a bisection safeguard (steps below 1e-12 in t) for
  all targets at once, each inside its own panel, integrating the speed
  with the same rule from the panel start;
* one final pass building every sample, its derivatives of (u, v) and of
  gamma with respect to s taken from the exact inverse-function chain rule
  through order 3 (torsion is too noise sensitive for finite differences).

A speed at or below 1e-10, a table that does not settle, or a Newton loop
that does not converge raises IrregularCurve.  On the test curves the
sampled arc length agrees with an mpmath quadrature to within 4e-15.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import FrameUndefined, IrregularCurve
from .jets import cross3, dot3
from .surface import ambient_jet

__all__ = [
    "CurveSample", "FrenetData", "CurvatureReport",
    "reparametrize_arclength", "stack_samples", "frenet",
    "surface_curvatures", "transfer_sample", "KAPPA_MIN",
]

# Below this curvature the principal normal is numerically meaningless.
KAPPA_MIN = 1e-9

_SPEED_FLOOR = 1e-10
# A panel settles when its Gauss integral and the sum over its two halves
# agree to this relative tolerance; the halves are kept.
_PANEL_TOL = 1e-13
_MAX_LEVELS = 48  # refinement levels before the table gives up
_MAX_PANELS = 4096  # unsettled panels in one level before it gives up
_NEWTON_ITERS = 60
_INVERT_TOL = 1e-12  # Newton step, relative to max(1, |t|)

# Gauss-Legendre rule of order 8 mapped to [0, 1] (nodes ascending); exact
# for polynomials of degree 15.
_GL_NODES = np.array([
    0.019855071751231884, 0.10166676129318664, 0.2372337950418355,
    0.4082826787521751, 0.591717321247825, 0.7627662049581645,
    0.8983332387068134, 0.9801449282487681])
_GL_WEIGHTS = np.array([
    0.05061426814518813, 0.11119051722668724, 0.15685332293894363,
    0.181341891689181, 0.181341891689181, 0.15685332293894363,
    0.11119051722668724, 0.05061426814518813])


@dataclass(frozen=True)
class CurveSample:
    """One arc-length point of a unit-speed surface curve.

    ``du``/``ddu``/``dddu`` are derivatives of u with respect to arc
    length.  Third-derivative fields are None for samples produced by the
    tangency-locus tracer, which carries only second-order data.  A
    stacked sample (:func:`stack_samples`) holds a whole curve: (n,)
    arrays for the scalars and (3, n) arrays for the vectors.
    """

    s: float
    t: float
    u: float
    v: float
    du: float
    dv: float
    ddu: float
    ddv: float
    dddu: Optional[float]
    dddv: Optional[float]
    gamma: np.ndarray
    dgamma: np.ndarray
    ddgamma: np.ndarray
    dddgamma: Optional[np.ndarray]


@dataclass(frozen=True)
class FrenetData:
    """Orthonormal moving frame of a unit-speed space curve.

    ``tau`` is NaN when the sample lacks third-derivative data.
    """

    t: np.ndarray
    n: np.ndarray
    b: np.ndarray
    kappa: float
    tau: float


@dataclass(frozen=True)
class CurvatureReport:
    kappa_g: float
    kappa_n: float


def _speed(curve, t, d1):
    """|dgamma/dt| from the first derivatives ``d1`` (shape (3, nodes)) at
    the parameters ``t``.

    A speed at or below the floor, or one that is not finite, raises
    IrregularCurve naming the first such node.
    """
    speed = np.sqrt(dot3(d1, d1))
    regular = (speed > _SPEED_FLOOR) & np.isfinite(speed)
    if not regular.all():
        i = int(np.argmin(regular))
        raise IrregularCurve(
            f"curve '{curve.name}' speed {speed[i]} at t={t[i]}")
    return speed


def _gauss(patch, curve, lo, hi, extra=()):
    """Gauss-Legendre integrals of the speed over the panels [lo, hi],
    and the speed at the parameters ``extra``, from one ambient-jet pass."""
    nodes = (lo[:, None] + (hi - lo)[:, None] * _GL_NODES).ravel()
    t = np.concatenate((nodes, extra))
    speed = _speed(curve, t, ambient_jet(patch, curve, t)[2])
    at_nodes = speed[:nodes.size].reshape(lo.size, _GL_NODES.size)
    return (hi - lo) * (at_nodes * _GL_WEIGHTS).sum(axis=1), speed[nodes.size:]


def _arclength_table(patch, curve):
    """Panel edges and cumulative arc length at each edge.

    Panels start as the two halves of the parameter range.  Each level
    compares every unsettled panel's integral with the sum over its two
    halves, in one batched pass; a panel settles as its halves when they
    agree to ``_PANEL_TOL`` relative, and is split otherwise.  The speed is
    also tested at every edge, so a zero of the speed at t0, t1, the
    midpoint or any split point raises even where no Gauss node sees it.
    """
    t0, t1 = curve.t_range
    mid = 0.5 * (t0 + t1)
    lo, hi = np.array([t0, mid]), np.array([mid, t1])
    whole, _ = _gauss(patch, curve, lo, hi, extra=[t0, mid, t1])
    settled_lo, settled_len = [], []
    for _ in range(_MAX_LEVELS):
        if lo.size > _MAX_PANELS:
            break
        mid = 0.5 * (lo + hi)
        halves, _ = _gauss(patch, curve, np.concatenate((lo, mid)),
                           np.concatenate((mid, hi)), extra=mid)
        left, right = halves[:lo.size], halves[lo.size:]
        both = left + right
        ok = np.abs(both - whole) <= _PANEL_TOL * both
        settled_lo += [lo[ok], mid[ok]]
        settled_len += [left[ok], right[ok]]
        split = ~ok
        if not split.any():
            # A Python sort: numpy's pulls in sorting code worth ~0.25 MiB
            # of resident memory for a few dozen panels.
            edges, lengths = zip(*sorted(zip(
                np.concatenate(settled_lo).tolist(),
                np.concatenate(settled_len).tolist())))
            return (np.array(edges + (t1,)),
                    np.concatenate(([0.0], np.cumsum(lengths))))
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
        whole = np.concatenate((left[split], right[split]))
    raise IrregularCurve(
        f"arc length of curve '{curve.name}' not resolved within "
        f"{_MAX_LEVELS} refinement levels and {_MAX_PANELS} panels")


def _invert(patch, curve, edges, cumulative, targets):
    """Parameters where the arc length reaches each target.

    Each target's panel comes from the table; inside it Newton's method,
    kept inside a shrinking bracket by bisection, solves
    S(a) + Q[a, t] - s = 0 for all unsettled targets in one pass per
    iteration, with Q the table's Gauss rule on [a, t].
    """
    last = edges.size - 2
    panel = np.minimum(np.searchsorted(cumulative, targets, side="right") - 1,
                       last)
    a, b = edges[panel], edges[panel + 1]
    s_a = cumulative[panel]
    lo, hi = a.copy(), b.copy()
    t = a + (b - a) * (targets - s_a) / (cumulative[panel + 1] - s_a)
    out = np.empty_like(targets)
    todo = np.arange(targets.size)
    for _ in range(_NEWTON_ITERS):
        if not todo.size:
            return out
        partial, speed = _gauss(patch, curve, a[todo], t, extra=t)
        F = s_a[todo] + partial - targets[todo]
        above = F > 0.0
        hi[todo] = np.where(above, t, hi[todo])
        lo[todo] = np.where(above, lo[todo], t)
        t_new = t - F / speed
        bracket_lo, bracket_hi = lo[todo], hi[todo]
        outside = ~((bracket_lo <= t_new) & (t_new <= bracket_hi))
        t_new[outside] = 0.5 * (bracket_lo + bracket_hi)[outside]
        done = np.abs(t_new - t) <= _INVERT_TOL * np.maximum(1.0, np.abs(t))
        out[todo[done]] = t_new[done]
        todo, t = todo[~done], t_new[~done]
    if todo.size:
        raise IrregularCurve(
            f"arc-length inversion on curve '{curve.name}' did not converge "
            f"in {_NEWTON_ITERS} iterations at s={targets[todo[0]]}")
    return out


def reparametrize_arclength(patch, curve, samples=50):
    """Sample a curve at equally spaced arc-length values.

    Returns ``samples`` CurveSamples covering [t0, t1], endpoints included.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    curve.check_on(patch)
    t0, t1 = curve.t_range
    if not t0 < t1:
        raise IrregularCurve(
            f"curve '{curve.name}' has an empty parameter range [{t0}, {t1}]")
    edges, cumulative = _arclength_table(patch, curve)
    total = float(cumulative[-1])
    s = total * np.arange(samples) / (samples - 1)
    t = np.empty(samples)
    t[0], t[-1] = t0, t1
    t[1:-1] = np.clip(_invert(patch, curve, edges, cumulative, s[1:-1]),
                      t0, t1)
    return _samples_at(patch, curve, t, s)


def _samples_at(patch, curve, t, s):
    """CurveSamples at parameters ``t`` and arc lengths ``s`` from one
    ambient-jet pass, via the exact inverse-function chain rule."""
    cj, gamma, g1, g2, g3 = ambient_jet(patch, curve, t)
    sd1 = _speed(curve, t, g1)  # ds/dt
    sd2 = dot3(g1, g2) / sd1
    sd3 = (dot3(g2, g2) + dot3(g1, g3)) / sd1 - sd2 * sd2 / sd1
    # Derivatives of the inverse map t(s).
    ts1 = 1.0 / sd1
    ts2 = -sd2 / sd1 ** 3
    ts3 = (3.0 * sd2 * sd2 - sd1 * sd3) / sd1 ** 5

    def by_s(d1, d2, d3):
        return (d1 * ts1,
                d2 * ts1 * ts1 + d1 * ts2,
                d3 * ts1 ** 3 + 3.0 * d2 * ts1 * ts2 + d1 * ts3)

    def floats(x):
        return np.broadcast_to(x, t.shape).tolist()

    def rows(x):
        return np.ascontiguousarray(x.T)  # one (3,) row per sample

    du, ddu, dddu = map(floats, by_s(cj.u.d1, cj.u.d2, cj.u.d3))
    dv, ddv, dddv = map(floats, by_s(cj.v.d1, cj.v.d2, cj.v.d3))
    dg, ddg, dddg = map(rows, by_s(g1, g2, g3))
    fields = (s.tolist(), t.tolist(), floats(cj.u.f), floats(cj.v.f),
              du, dv, ddu, ddv, dddu, dddv, rows(gamma), dg, ddg, dddg)
    return [CurveSample(*values) for values in zip(*fields)]  # field order


def frenet(sample):
    """Frenet frame of a unit-speed sample; requires positive curvature."""
    kappa = math.sqrt(dot3(sample.ddgamma, sample.ddgamma))
    if kappa <= KAPPA_MIN:
        raise FrameUndefined(f"curvature {kappa} at s={sample.s}")
    t = sample.dgamma
    n = sample.ddgamma / kappa
    b = np.array(cross3(t, n))
    if sample.dddgamma is None:
        tau = math.nan
    else:
        tau = float(dot3(cross3(sample.dgamma, sample.ddgamma),
                         sample.dddgamma)) / (kappa * kappa)
    return FrenetData(t=t, n=n, b=b, kappa=kappa, tau=tau)


def stack_samples(samples):
    """One CurveSample holding every sample of ``samples``: (n,) arrays for
    the scalar fields and (3, n) arrays for the vectors.  A field that is
    None in any sample (the tracer's third derivatives) is None."""
    def stack(name):
        values = [getattr(s, name) for s in samples]
        if any(x is None for x in values):
            return None
        return np.array(values).T  # (n,) stays (n,); (n, 3) becomes (3, n)

    return CurveSample(*(stack(f.name) for f in fields(CurveSample)))


def ambient_dot(a, b):
    """np.dot of two ambient vectors, or of each column pair of two (3, n)
    arrays.  np.dot rounds differently from :func:`~tpcurves.jets.dot3`
    (it may fuse a multiply into an add), so the ambient side of an
    identity keeps it, one contiguous row at a time."""
    if a.ndim == 1:
        return np.dot(a, b)
    rows_a, rows_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    return np.fromiter(map(np.dot, rows_a, rows_b), float, len(rows_a))


def surface_curvatures(geom, sample):
    """Geodesic and normal curvature of a unit-speed sample, or of every
    sample of a stacked one.

    kappa_g = gamma'' . (N x gamma'), kappa_n = gamma'' . N, with N the
    unit normal of ``geom``, the PointGeometry at the sample's parameter
    point (or points).
    """
    normal = geom.second.unit_normal
    kappa_g = dot3(sample.ddgamma, cross3(normal, sample.dgamma))
    kappa_n = dot3(sample.ddgamma, normal)
    return CurvatureReport(kappa_g=kappa_g, kappa_n=kappa_n)


def transfer_sample(geom, sample):
    """A sample's ambient data through the patch of ``geom``, the
    PointGeometry at the sample's parameter point.

    The parameter data (u, v and its s-derivatives) is intrinsic and kept;
    gamma and its derivatives follow by the chain rule from the record's
    jet.  Used to push a curve across a coordinate-matched surface pair
    and to complete the tracer's samples.
    """
    jet = geom.jet
    du, dv, ddu, ddv = sample.du, sample.dv, sample.ddu, sample.ddv
    gamma = jet.value
    dgamma = jet.du * du + jet.dv * dv
    ddgamma = (jet.duu * du * du + 2.0 * jet.duv * du * dv
               + jet.dvv * dv * dv + jet.du * ddu + jet.dv * ddv)
    if sample.dddu is None or sample.dddv is None:
        dddgamma = None
    else:
        dddu, dddv = sample.dddu, sample.dddv
        dddgamma = (
            jet.duuu * du * du * du + 3.0 * jet.duuv * du * du * dv
            + 3.0 * jet.duvv * du * dv * dv + jet.dvvv * dv * dv * dv
            + 3.0 * (jet.duu * du * ddu + jet.duv * (du * ddv + dv * ddu)
                     + jet.dvv * dv * ddv)
            + jet.du * dddu + jet.dv * dddv)
    return CurveSample(
        s=sample.s, t=sample.t, u=sample.u, v=sample.v,
        du=du, dv=dv, ddu=ddu, ddv=ddv,
        dddu=sample.dddu, dddv=sample.dddv,
        gamma=gamma, dgamma=dgamma, ddgamma=ddgamma, dddgamma=dddgamma,
    )
