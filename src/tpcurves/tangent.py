"""Tangent-plane decomposition of the position vector and its consequences.

A point of a patch lies on the *tangent-position locus* when the position
vector phi(u, v) lies in the tangent plane there, i.e. when the tangency
residual g(u, v) = phi . N vanishes.  Curves inside that locus satisfy a
family of closed-form identities relating the decomposition coordinates
(lam, mu) of the position vector, the moving-basis coefficients of gamma'
and gamma'', the fundamental forms and the Frenet frame.  This module
computes every ingredient exactly from jet data and provides the ambient
dot products the closed forms are checked against.

Every per-sample function takes ``(geom, sample)``: ``sample`` is a
curve's stacked :class:`~tpcurves.curves.CurveSample`
(:func:`~tpcurves.curves.sample_arclength`) and ``geom`` the
:class:`~tpcurves.forms.PointGeometry` over all its parameter points,
built once by :func:`~tpcurves.forms.point_geometry` and shared by every
identity; none of them evaluates the patch again.  One call evaluates
every sample, each with the bits the same call gives at that one point
(a one-point record and a sample of floats and (3,) vectors).  The
tracer builds no record per vertex: its walk, the seed correction, the
vertex loop and the resampling (interpolation and correction of every
target), is one float program generated per patch on first use
(:func:`compile_tangency_walk`), with g's recorded body inline, that
serves :func:`~tpcurves.forms.tangency_gradient` too; g's Hessian at the
corrected seed comes from the patch's record kind
(:meth:`~tpcurves.surface.SurfacePatch._run`).  A traced locus is one
batched record like any other curve: its accepted samples are stacked in
:attr:`TracedCurve.samples` and one record over them is kept in
:attr:`TracedCurve.geometry`.

Conventions, fixed once:

* The decomposition solves the Gram system [E F; F G](lam, mu)^T =
  (phi . phi_u, phi . phi_v)^T by direct 2x2 elimination.
* ``rho`` is the squared length <gamma, gamma>, matching the closed form
  lam^2 E + 2 lam mu F + mu^2 G; the report carries both it and the
  ambient value.
* The tangency condition is always checked in the product form
  lam(u'L + v'M) + mu(u'M + v'N) = 0, never as a ratio of the two factors
  (the denominator vanishes on flat directions).
* The binormal and binormal-component identities carry a 1/sqrt(EG - F^2)
  normalization on their B3 terms; that factor converts the unnormalized
  cross products phi_u x N, phi_v x N to the unit-normal convention used
  everywhere else, and with it both identities are exact.
* lam', mu', lam'', mu'' come from analytic differentiation of the Gram
  solution (order-2 jet fields), never finite differences: the B
  coefficients are second-order quantities and difference noise would
  dominate every stated tolerance.
"""

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

import numpy as np

from .curves import (CurveSample, _frame, ambient_dot, frenet,
                     transfer_sample)
from .errors import (ConfigError, DomainError, GeometryError,
                     IdenticallyTangent, NoSeed, SingularLocus)
# second_form is no longer called here; bench/test_bench.py still checks
# that the benchmark tracer wraps and restores this binding.
from .forms import (PointGeometry, _record_gradient,  # noqa: F401
                    _tangency_fields, point_geometry, second_form,
                    tangency_gradient)
from .jets import Field2, _record, _render, cross3, dot3

__all__ = [
    "FrameCoefficients", "PositionComponentReport", "TracedCurve",
    "frame_coefficients", "velocity_coefficients", "ratio_identity_check",
    "position_component_report", "binormal_formula_check",
    "geodesic_curvature_formula", "trace_tangent_curve",
    "compile_tangency_walk",
]

# Tracer defaults: corrector keeps |g| two orders below the 1e-8 vertex
# assertion; gradients below the floor mean the locus is not a regular curve.
TRACE_TOL = 1e-10
GRAD_FLOOR = 1e-8
LOCUS_TOL = 1e-8
_NEWTON_MAX = 25
_CORRECTOR_MAX = 10


@dataclass(frozen=True)
class FrameCoefficients:
    """Moving-basis coefficients of gamma' and gamma'' along a curve.

    gamma'  = a1 phi_u + a2 phi_v + a3 N
    gamma'' = b1 phi_u + b2 phi_v + b3 N   (valid where a3 vanishes)

    ``a1_s``/``a2_s`` are arc-length derivatives of a1/a2.
    """

    a1: float
    a2: float
    a3: float
    a1_s: float
    a2_s: float
    b1: float
    b2: float
    b3: float


@dataclass(frozen=True)
class PositionComponentReport:
    """Closed-form position-vector components versus ambient dot products.

    The normal and binormal parts (``n_*``/``b_*``) are NaN where the
    curvature is below the frame threshold; the first two parts survive.
    Over a stacked sample every field is an array.
    """

    rho: float
    t_comp: float
    n_comp: float
    b_comp: float
    rho_direct: float
    t_direct: float
    n_direct: float
    b_direct: float
    rho_residual: float
    t_residual: float
    n_residual: float
    b_residual: float
    kappa: float
    lam: float
    mu: float
    normal_component: float

    def max_residual(self):
        """The largest residual as Python's ``max`` takes it over rho, t, n
        and b, in that order, sample by sample: a later value replaces the
        current one only when greater, so a NaN counts only in first
        place, and a normal or binormal part that is NaN below the frame
        threshold is skipped."""
        worst = self.rho_residual
        for r in (self.t_residual, self.n_residual, self.b_residual):
            worst = np.where(r > worst, r, worst)[()]
        return worst


def _along2(field, sample):
    """Value and first two s-derivatives of a parameter-plane field along a
    unit-speed curve (chain rule through u(s), v(s))."""
    du, dv, ddu, ddv = sample.du, sample.dv, sample.ddu, sample.ddv
    d1 = field.fu * du + field.fv * dv
    d2 = (field.fuu * du * du + 2.0 * field.fuv * du * dv
          + field.fvv * dv * dv + field.fu * ddu + field.fv * ddv)
    return field.f, d1, d2


def _along1(field, sample):
    return field.f, field.fu * sample.du + field.fv * sample.dv


def frame_coefficients(geom, sample):
    """Moving-basis coefficients along the decomposition path lam(s), mu(s).

    ``geom`` is the :class:`~tpcurves.forms.PointGeometry` at the sample's
    parameter point.  All derivatives are analytic: lam'' and the
    connection-symbol derivatives come from order-3 jet data through the
    chain rule.
    """
    lam, lam_s, lam_ss = _along2(geom.lam, sample)
    mu, mu_s, mu_ss = _along2(geom.mu, sample)
    return _coefficients(geom, sample, lam, lam_s, lam_ss, mu, mu_s, mu_ss)


def velocity_coefficients(geom, sample):
    """Moving-basis coefficients of gamma', gamma'' for an arbitrary
    unit-speed surface curve: a1 = u', a2 = v' identically.

    Use this route for quantities (like geodesic curvature) that are
    defined off the tangent-position locus.
    """
    du, dv, ddu, ddv = sample.du, sample.dv, sample.ddu, sample.ddv
    g111, g112, g121, g122, g221, g222 = (f.f for f in geom.chris)
    L, M, N = geom.second.L, geom.second.M, geom.second.N
    b1 = ddu + du * du * g111 + 2.0 * du * dv * g121 + dv * dv * g221
    b2 = ddv + du * du * g112 + 2.0 * du * dv * g122 + dv * dv * g222
    b3 = L * du * du + 2.0 * M * du * dv + N * dv * dv
    return FrameCoefficients(a1=du, a2=dv, a3=0.0, a1_s=ddu, a2_s=ddv,
                             b1=b1, b2=b2, b3=b3)


def _coefficients(geom, sample, lam, lam_s, lam_ss, mu, mu_s, mu_ss):
    du, dv, ddu, ddv = sample.du, sample.dv, sample.ddu, sample.ddv
    (g111, dg111), (g112, dg112), (g121, dg121), (g122, dg122), \
        (g221, dg221), (g222, dg222) = (_along1(f, sample) for f in geom.chris)
    L, M, N = geom.second.L, geom.second.M, geom.second.N

    a1 = lam_s + du * lam * g111 + (dv * lam + du * mu) * g121 + dv * mu * g221
    a2 = mu_s + du * lam * g112 + (dv * lam + du * mu) * g122 + dv * mu * g222
    a3 = du * lam * L + dv * lam * M + du * mu * M + dv * mu * N

    a1_s = (lam_ss
            + (ddu * lam + du * lam_s) * g111 + du * lam * dg111
            + (ddv * lam + dv * lam_s + ddu * mu + du * mu_s) * g121
            + (dv * lam + du * mu) * dg121
            + (ddv * mu + dv * mu_s) * g221 + dv * mu * dg221)
    a2_s = (mu_ss
            + (ddu * lam + du * lam_s) * g112 + du * lam * dg112
            + (ddv * lam + dv * lam_s + ddu * mu + du * mu_s) * g122
            + (dv * lam + du * mu) * dg122
            + (ddv * mu + dv * mu_s) * g222 + dv * mu * dg222)

    b1 = a1_s + du * a1 * g111 + (dv * a1 + du * a2) * g121 + dv * g221 * a2
    b2 = a2_s + du * a1 * g112 + (dv * a1 + du * a2) * g122 + dv * g222 * a2
    b3 = du * a1 * L + (dv * a1 + du * a2) * M + dv * a2 * N
    return FrameCoefficients(a1=a1, a2=a2, a3=a3, a1_s=a1_s, a2_s=a2_s,
                             b1=b1, b2=b2, b3=b3)


def ratio_identity_check(geom, sample):
    """Tangency condition in product form: lam(u'L + v'M) + mu(u'M + v'N).

    Total where the ratio form lam/mu = -(u'L + v'M)/(u'M + v'N) divides
    by a quantity that vanishes on flat directions.
    """
    sec = geom.second
    return (geom.lam.f * (sample.du * sec.L + sample.dv * sec.M)
            + geom.mu.f * (sample.du * sec.M + sample.dv * sec.N))


def geodesic_curvature_formula(coeffs, geom):
    """Geodesic curvature kappa_g = (a1 b2 - a2 b1) sqrt(EG - F^2) from
    moving-basis coefficients; it equals the ambient definition
    gamma'' . (N x gamma')."""
    return (coeffs.a1 * coeffs.b2 - coeffs.a2 * coeffs.b1) * geom.area.f


@np.errstate(over="ignore", invalid="ignore")  # as the tree walk does
def position_component_report(geom, sample):
    """Closed-form distance/tangential/normal/binormal components of the
    position vector against their ambient dot products.

    Meaningful on the tangent-position locus, where the closed forms are
    exact identities.  The binormal component includes the
    1/sqrt(EG - F^2) normalization (see module docstring).
    """
    coeffs = frame_coefficients(geom, sample)
    lam, mu = geom.lam.f, geom.mu.f
    E, F, G = geom.E.f, geom.F.f, geom.G.f
    det = geom.det.f
    gamma = sample.gamma

    rho = lam * lam * E + 2.0 * lam * mu * F + mu * mu * G
    rho_direct = ambient_dot(gamma, gamma)
    t_comp = (lam * coeffs.a1 * E + (lam * coeffs.a2 + mu * coeffs.a1) * F
              + mu * coeffs.a2 * G)
    t_direct = ambient_dot(sample.dgamma, gamma)

    kappa, framed, n_vec, b_vec = _frame(sample)
    # Below the frame threshold these are NaN: no warnings for them.
    with np.errstate(divide="ignore"):
        n_comp = (lam * coeffs.b1 * E + (lam * coeffs.b2 + mu * coeffs.b1) * F
                  + mu * coeffs.b2 * G) / kappa
        b_comp = (coeffs.a1 * coeffs.b3 * mu * (-det)
                  + coeffs.a2 * coeffs.b3 * lam * det) \
            / (kappa * geom.area.f)
        n_direct = dot3(n_vec, gamma)
        b_direct = dot3(b_vec, gamma)
        n_comp, b_comp, n_direct, b_direct = (
            np.where(framed, x, math.nan)[()]
            for x in (n_comp, b_comp, n_direct, b_direct))

    return PositionComponentReport(
        rho=rho, t_comp=t_comp, n_comp=n_comp, b_comp=b_comp,
        rho_direct=rho_direct, t_direct=t_direct,
        n_direct=n_direct, b_direct=b_direct,
        rho_residual=abs(rho - rho_direct),
        t_residual=abs(t_comp - t_direct),
        n_residual=abs(n_comp - n_direct), b_residual=abs(b_comp - b_direct),
        kappa=kappa, lam=lam, mu=mu, normal_component=geom.g.f)


def binormal_formula_check(geom, sample):
    """Distance between b = t x n and its moving-basis expansion.

    The expansion is (a1 b2 - a2 b1)(phi_u x phi_v) plus the B3 terms
    a1 b3 (F phi_u - E phi_v) + a2 b3 (G phi_u - F phi_v) divided by
    sqrt(EG - F^2); the whole vector is normalized to unit length and the
    difference norm is returned after sign alignment (inf where the
    expansion vanishes).  Raises :func:`~tpcurves.curves.frenet`'s
    FrameUndefined where a curvature is at or below the frame threshold.
    """
    b_vec = frenet(sample).b
    coeffs = frame_coefficients(geom, sample)
    E, F, G = geom.E.f, geom.F.f, geom.G.f
    jet = geom.jet
    w = np.array(cross3(jet.du, jet.dv))
    rhs = ((coeffs.a1 * coeffs.b2 - coeffs.a2 * coeffs.b1) * w
           + (coeffs.a1 * coeffs.b3 * (F * jet.du - E * jet.dv)
              + coeffs.a2 * coeffs.b3 * (G * jet.du - F * jet.dv))
           / geom.area.f)
    norm = np.sqrt(dot3(rhs, rhs))
    with np.errstate(divide="ignore", invalid="ignore"):  # where norm is 0
        rhs_unit = rhs / norm
    minus, plus = rhs_unit - b_vec, rhs_unit + b_vec
    d_minus, d_plus = dot3(minus, minus), dot3(plus, plus)
    # Python's min(d_minus, d_plus): d_plus only where strictly smaller.
    closest = np.where(d_plus < d_minus, d_plus, d_minus)
    return np.where(norm == 0.0, math.inf, np.sqrt(closest))[()]


# --- constructive tracing of the tangency locus -------------------------


@dataclass(frozen=True)
class TracedCurve:
    """Polyline approximation of one connected tangency-locus component."""

    vertices: np.ndarray  # (n, 2) parameter points, |g| <= LOCUS_TOL each
    residuals: np.ndarray  # g at each vertex
    closed: bool
    status: str  # "closed" | "domain_exit" | "max_steps" | "corrector_stalled"
    seed: tuple
    h: float
    arc_length: float  # ambient length of the polyline
    # The unit-speed samples at equal arc length, stacked: (n,) scalars,
    # (3, n) vectors, third-derivative fields None (second-order data).
    samples: CurveSample
    geometry: PointGeometry  # one record over the samples' (u, v)


def _gradient_or_none(patch, u, v):
    """:func:`~tpcurves.forms.tangency_gradient` at (u, v), or None off the
    domain."""
    try:
        return tangency_gradient(patch, u, v)
    except DomainError:
        return None


def _probe_identically_tangent(patch, u, v, radius):
    """True when g vanishes on a ring around (u, v) (locus is a region)."""
    hits = 0
    total = 0
    for k in range(8):
        ang = 2.0 * math.pi * k / 8.0
        pu = u + radius * math.cos(ang)
        pv = v + radius * math.sin(ang)
        t = _gradient_or_none(patch, pu, pv)
        if t is None:
            continue
        total += 1
        if abs(t[0]) <= LOCUS_TOL:
            hits += 1
    return total >= 3 and hits == total


def _isolated_zero(patch, u, v, h):
    """Hessian test: a nearby critical point of g that is itself a zero
    means the locus degenerates to a point.  g's Hessian at (u, v), in the
    domain, is the patch's record kind's g there (an absent coefficient
    reads 0.0), the tracer's only evaluation of second derivatives away
    from its samples."""
    # The record's coefficients: the 3 component jets, E, F, G, det, area, g.
    g = Field2(*patch._run("record", u, v)[8])
    hess = np.array([[g.fuu, g.fuv], [g.fuv, g.fvv]])
    grad = np.array([g.fu, g.fv])
    try:
        step = np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        return False
    if float(np.linalg.norm(step)) > 5.0 * h:
        return False
    t = _gradient_or_none(patch, u - step[0], v - step[1])
    if t is None:
        return False
    g, gu, gv, _ = t
    return abs(g) <= LOCUS_TOL and math.hypot(gu, gv) <= GRAD_FLOOR


def _correct_seed(patch, seed, h):
    try:
        u, v, t = patch.tangency_walk(patch, float(seed[0]), float(seed[1]),
                                      _NEWTON_MAX, TRACE_TOL)
    except DomainError:
        raise NoSeed(f"seed {seed} outside the parameter domain") from None
    if t is None:
        raise NoSeed("seed correction left the parameter domain")
    g, gu, gv, _ = t
    grad = math.hypot(gu, gv)
    if abs(g) > LOCUS_TOL:
        # A stall with both |g| and the gradient collapsing together means
        # Newton is sliding into a degenerate zero; a stall with |g| still
        # large means there is no zero to reach.
        if abs(g) <= 1e-4 and grad <= 1e-4 and grad * grad <= 100.0 * abs(g):
            raise SingularLocus(
                f"gradient {grad} collapsing while |g| = {abs(g)} near seed")
        raise NoSeed("no tangent-position locus reachable from seed")
    if grad <= GRAD_FLOOR:
        if _probe_identically_tangent(patch, u, v, max(10.0 * h, 1e-3)):
            raise IdenticallyTangent(
                "tangency residual vanishes identically around the seed")
        raise SingularLocus(f"gradient {grad} at the corrected seed")
    if _isolated_zero(patch, u, v, h):
        raise SingularLocus("tangency locus degenerates to a point near seed")
    return u, v, t


def _tangent_dir(t):
    """Unit direction (-g_v, g_u) from a tangency_gradient tuple."""
    tu, tv = -t[2], t[1]
    norm = math.hypot(tu, tv)
    if norm <= GRAD_FLOOR:
        raise SingularLocus("gradient vanished during trace")
    return tu / norm, tv / norm


_WALK = """\
def walk(patch, u, v, max_iter, tol, h=0.0, max_steps=0, verts=None,
         resid=None, ambient=None, cum=None, segs=None, total=0.0,
         closed=False, out=None):
    for step in range(max(max_steps, 0) + 1):
        if out is not None:  # the polyline's point at arc length s
            s = total * step / max_steps
            if not closed and total < s:
                s = total
            i = bisect_right(cum, s) - 1
            if i < len(segs):
                i = max(i, 0)
                frac = (s - cum[i]) / (segs[i] if segs[i] > 0.0 else 1.0)
                bu, bv, nu, nv = verts[2 * i:2 * i + 4]
            elif closed:  # inside the closing chord
                frac = (s - cum[-1]) / max(total - cum[-1], 1e-300)
                bu, bv, nu, nv = *verts[-2:], *verts[:2]
            else:
                frac = 1.0
                bu, bv, nu, nv = verts[-4:]
            u, v = bu + frac * (nu - bu), bv + frac * (nv - bv)
        elif step:  # the predictor
            lx, ly, lz = x, y, z
            u, v = u + h * tu, v + h * tv
        k = 0
        while True:  # the corrector
            if not (U_LO <= u <= U_HI and V_LO <= v <= V_HI):
                if resid is not None:
                    return "domain_exit"
                if not k:
                    patch._require_inside(u, v)  # raises DomainError
                if out is None:
                    return u, v, None
                g = inf  # the target is dropped
                break
            try:
                BODY
            except (ArithmeticError, ValueError):
                g, gu, gv, (x, y, z) = _record_gradient(patch, u, v)
            if k >= max_iter or abs(g) <= tol:
                break
            norm2 = gu * gu + gv * gv
            if norm2 <= GRAD_FLOOR * GRAD_FLOOR:
                break
            u, v, k = u - g * gu / norm2, v - g * gv / norm2, k + 1
        if out is not None:
            if abs(g) <= LOCUS_TOL:
                out += u, v, s
            continue
        if verts is None:
            return u, v, (g, gu, gv, (x, y, z))
        if step:
            if abs(g) > LOCUS_TOL:
                if hypot(gu, gv) <= GRAD_FLOOR:
                    raise SingularLocus("gradient vanished during trace")
                return "corrector_stalled"
            dx, dy, dz = x - lx, y - ly, z - lz
            chord_sum += sqrt(dx * dx + dy * dy + dz * dz)
            verts += u, v
            resid.append(g)
            ambient += x, y, z
        else:
            u0, v0, x0, y0, z0, chord_sum = u, v, x, y, z, 0.0
            max_iter = _CORRECTOR_MAX
        ntu, ntv = -gv, gu
        norm = hypot(ntu, ntv)
        if norm <= GRAD_FLOOR:
            raise SingularLocus("gradient vanished during trace")
        ntu, ntv = ntu / norm, ntv / norm
        if step:  # along the previous tangent
            flip = ntu * tu + ntv * tv < 0.0
        else:  # canonical: the dominant component positive
            flip = (abs(ntu) >= abs(ntv) and ntu < 0.0) or \\
                (abs(ntu) < abs(ntv) and ntv < 0.0)
        tu, tv = (-ntu, -ntv) if flip else (ntu, ntv)
        if step >= 10:
            mean_chord = chord_sum / step
            param_dist = hypot(u - u0, v - v0)
            dx, dy, dz = x - x0, y - y0, z - z0
            amb_dist = sqrt(dx * dx + dy * dy + dz * dz)
            if param_dist < 0.5 * h or amb_dist < 0.5 * mean_chord:
                return "closed"
    return "max_steps"
"""


def compile_tangency_walk(patch):
    """The tracer's walk on ``patch`` (Allgower & Georg, *Introduction to
    Numerical Continuation Methods*, SIAM 2003, ch. 2): :data:`_WALK` with
    the patch's :func:`~tpcurves.forms._tangency_fields` recorded and
    rendered as :func:`~tpcurves.jets.straight_line` does, written in at
    BODY, and the domain test on its bounds.  ``walk(patch, u, v, max_iter,
    tol)`` is the corrector, Newton along grad g: (u, v, t) with t the
    :func:`~tpcurves.forms.tangency_gradient` tuple at the returned (u, v),
    or None where a step left the domain; a start off the domain raises
    DomainError.  Given the vertex lists, (u, v) is the corrected seed
    (max_iter 0) and it runs the vertex loop of :func:`trace_tangent_curve`
    and returns the status.  Given ``out``, it resamples the polyline of
    ``verts`` (flat u, v pairs), ``cum`` and ``segs`` (its cumulative and
    segment chord lengths) and ``total`` (with the closing chord when
    ``closed``): the target i of 0..max_steps at arc length total * i /
    max_steps is interpolated, corrected, and appended to ``out`` as u, v,
    s where it ends on the locus.  Where the body's guard fires or ``math``
    raises, the record gives that iterate, or raises the tree walk's error
    there.  Each float operation keeps its bits; the recording's only
    rewrites are the four identities that IEEE 754 makes exact
    (:func:`~tpcurves.jets.straight_line`)."""
    try:
        lines, leaves, _ = _record(partial(_tangency_fields, patch.components),
                                   ("u", "v"), Field2)
        body = _render(lines, leaves) + [
            f"{name} = {leaf}"
            for name, leaf in zip(("g", "gu", "gv", "x", "y", "z"), leaves)]
    except GeometryError:  # the body gives way everywhere
        body = ["raise ArithmeticError"]
    scope = {**vars(math), "__name__": __name__, "GRAD_FLOOR": GRAD_FLOOR,
             "bisect_right": bisect_right,
             "LOCUS_TOL": LOCUS_TOL, "_CORRECTOR_MAX": _CORRECTOR_MAX,
             "SingularLocus": SingularLocus,
             "_record_gradient": _record_gradient,
             **dict(zip(("U_LO", "U_HI", "V_LO", "V_HI"), patch._bounds))}
    exec(re.sub(r"(?m)^( *)BODY$",
                lambda m: "\n".join(m[1] + line for line in body), _WALK),
         scope)
    return scope.pop("walk")  # no cycle: it goes with the patch


def trace_tangent_curve(patch, seed, h=0.01, max_steps=4000, resample=100):
    """Predictor-corrector continuation of the tangency locus from a seed.

    The predictor steps h (parameter units) along the level-set tangent;
    the corrector is Newton along grad g to |g| <= 1e-10.  Stops on
    closure (return within half a step of the start after at least 10
    steps, in parameter or ambient distance; a closed polyline's length
    ends at its closest approach to the start), on domain exit, or at
    ``max_steps``.  The seed correction, the vertex loop and the
    resampling run in three calls of the patch's walk
    (:func:`compile_tangency_walk`, compiled on first use): floats, chords
    measured as sqrt(dx*dx + dy*dy + dz*dz), not through numpy's BLAS dot,
    which may round the last bit differently, and g's recorded body
    inline; where the body gives way, the record gives that iterate.  The
    polyline's chord lengths are numpy's, over the stacked points.  The
    result carries the vertex polyline, the unit-speed samples resampled
    at equal arc length as one stacked CurveSample, and one PointGeometry
    over them.  A PointGeometry is built once, batched, over the accepted
    resample points; g's Hessian for the isolated-zero test comes from
    the patch's record kind at the corrected seed.  Raises ConfigError
    unless h is positive and finite.
    """
    if not 0.0 < h < math.inf:  # false for NaN too
        raise ConfigError(f"step size h must be positive and finite, got {h!r}")
    u, v, t = _correct_seed(patch, seed, h)
    # Flat lists: numpy reads floats faster than tuples of them.
    verts, resid, ambient = [u, v], [t[0]], [*t[3]]
    status = patch.tangency_walk(patch, u, v, 0, TRACE_TOL, h, max_steps,
                                 verts, resid, ambient)
    closed = status == "closed"
    samples, geometry, length = _resample_locus(
        patch, verts, np.array(ambient).reshape(-1, 3), closed, resample, t)
    return TracedCurve(
        vertices=np.array(verts).reshape(-1, 2), residuals=np.array(resid),
        closed=closed, status=status, seed=(float(seed[0]), float(seed[1])),
        h=h, arc_length=length, samples=samples, geometry=geometry)


# The error states of _resample_locus, which calls it, wherever it is called:
# an infinite derivative of g gives NaN without a word.
@np.errstate(all="ignore")
def _locus_sample(geom, s, sign):
    """Exact second-order unit-speed data of the level curve through the
    point of ``geom`` at arc length ``s``, or a stacked sample through
    every node of a batched ``geom`` (``s`` an array); ``t`` is NaN.

    The unit tangent field w solves I(w, w) = 1 with w proportional to
    (-g_v, g_u); its derivative along itself gives (u'', v'').  All of it
    is pointwise-exact, independent of the polyline discretization.
    """
    gu, gv = geom.g.du(), geom.g.dv()
    t_u, t_v = -gv, gu
    E1, F1, G1 = geom.E.lower(), geom.F.lower(), geom.G.lower()
    quad = E1 * t_u * t_u + 2.0 * F1 * t_u * t_v + G1 * t_v * t_v
    den = quad.sqrt()
    wu = t_u / den
    wv = t_v / den
    skeleton = CurveSample(
        s=s, t=np.full(np.shape(s), math.nan)[()],
        u=geom.jet.u, v=geom.jet.v,
        du=sign * wu.f, dv=sign * wv.f,
        ddu=wu.f * wu.fu + wv.f * wu.fv, ddv=wu.f * wv.fu + wv.f * wv.fv,
        dddu=None, dddv=None,
        gamma=None, dgamma=None, ddgamma=None, dddgamma=None)
    return transfer_sample(geom, skeleton)


# Python floats overflow, and give NaN, without a word: so does the numpy
# here (the rings, the record and their divisions keep their own states).
@np.errstate(all="ignore")
def _resample_locus(patch, verts, ambient, closed, count, start):
    """Equal-arc-length samples along the traced polyline, its vertices
    the flat list ``verts`` (u0, v0, u1, ...) and its points the rows of
    ``ambient``, each target interpolated and corrected back onto the locus
    in one call of the patch's walk before the per-point data is
    evaluated.  ``start`` is the :func:`~tpcurves.forms.tangency_gradient`
    tuple at the first vertex.  Returns the stacked sample and one
    PointGeometry over the accepted points (empty when none is), and the
    polyline length."""
    out, sign, total = [], 1.0, 0.0
    if len(verts) >= 4 and count >= 2:
        if closed:
            # Closure fires within half a step either side of vertex 0: end
            # a last segment that passes it at its closest approach to it.
            d = ambient[-1] - ambient[-2]
            tau = float((ambient[0] - ambient[-2]).dot(d) / d.dot(d))
            if 0.0 <= tau < 1.0:
                ambient = ambient.copy()
                ambient[-1] = ambient[-2] + tau * d
                bu, bv, nu, nv = verts[-4:]
                verts = [*verts[:-2], bu + tau * (nu - bu),
                         bv + tau * (nv - bv)]
        segs = np.linalg.norm(np.diff(ambient, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(segs)])
        total = float(cum[-1])
        if closed:
            total += float(np.linalg.norm(ambient[0] - ambient[-1]))
        if not total <= 0.0:  # NaN goes on
            # Marching direction sign relative to the tangent field at the
            # start.
            tu, tv = _tangent_dir(start)
            sign = 1.0 if (tu * (verts[2] - verts[0])
                           + tv * (verts[3] - verts[1])) >= 0.0 else -1.0
            patch.tangency_walk(patch, None, None, _CORRECTOR_MAX, TRACE_TOL,
                                max_steps=count - 1, verts=verts,
                                cum=cum.tolist(), segs=segs.tolist(),
                                total=total, closed=closed, out=out)
    us, vs, ss = np.array(out, dtype=float).reshape(-1, 3).T
    geom = point_geometry(patch, us, vs)
    return _locus_sample(geom, ss, sign), geom, total
