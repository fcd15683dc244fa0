"""First/second fundamental forms and Christoffel symbols at a surface point.

Metric coefficients are E = phi_u . phi_u, F = phi_u . phi_v,
G = phi_v . phi_v; their first and second parameter derivatives come from
order-3 jet data, so connection symbols and their first derivatives are
exact to roundoff.

The unit normal is always phi_u x phi_v normalized, never flipped: the
signs of L, M, N and of the derived curvatures depend on it, and a fixed
convention beats guessing.

Christoffel symbols are computed twice: from the standard explicit E,F,G
formulas and from the general metric formula

    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij),

and the two routes are required to agree to 1e-10; a disagreement raises
:class:`~tpcurves.errors.OracleMismatch`.

:class:`PointGeometry` is the per-point record every per-sample identity
reads: one jet evaluation, the metric and the position-vector
decomposition as order-2 fields, and the forms and connection symbols
built on first use.  Over a batched jet it is the record of a whole curve
or grid, every field an array over the nodes.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePoint, OracleMismatch
from .jets import Field1, Field2, cross3, dot3, failing_node

__all__ = [
    "FirstForm", "SecondForm", "Christoffel", "PointGeometry",
    "first_form", "second_form", "christoffel", "christoffel_from_metric",
    "gauss_equation_residual", "point_geometry", "tangency_gradient",
    "REGULARITY_THRESHOLD",
]

# Below this EG - F^2, normalization amplifies noise past every stated
# tolerance; fail loudly instead.
REGULARITY_THRESHOLD = 1e-14

_ORACLE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FirstForm:
    """Metric coefficients with first and second parameter derivatives."""

    E: float
    F: float
    G: float
    E_u: float
    E_v: float
    F_u: float
    F_v: float
    G_u: float
    G_v: float
    E_uu: float
    E_uv: float
    E_vv: float
    F_uu: float
    F_uv: float
    F_vv: float
    G_uu: float
    G_uv: float
    G_vv: float

    @property
    def det(self):
        return self.E * self.G - self.F * self.F

    @property
    def area_element(self):
        return math.sqrt(self.det)


@dataclass(frozen=True)
class SecondForm:
    """Normal components of the second partials, plus the unit normal."""

    L: float
    M: float
    N: float
    unit_normal: np.ndarray
    area_element: float  # |phi_u x phi_v| = sqrt(EG - F^2)


@dataclass(frozen=True)
class Christoffel:
    """Connection symbols g<ij><k> = Gamma^k_ij and their u, v derivatives."""

    g111: float
    g112: float  # Gamma^2_11
    g121: float  # Gamma^1_12
    g122: float  # Gamma^2_12
    g221: float  # Gamma^1_22
    g222: float  # Gamma^2_22
    g111_u: float
    g111_v: float
    g112_u: float
    g112_v: float
    g121_u: float
    g121_v: float
    g122_u: float
    g122_v: float
    g221_u: float
    g221_v: float
    g222_u: float
    g222_v: float


class PointGeometry:
    """Geometry of a patch at one parameter point, from one jet, or at
    every node of a batched jet
    (:meth:`~tpcurves.surface.SurfacePatch.jet_batch`): each coefficient
    is then an array over the nodes (a float where it is the same at every
    node) with the bits of the one-point record at each node.

    Built at once, as order-2 fields (value, gradient, Hessian): the metric
    coefficients ``E``, ``F``, ``G``, ``det`` = EG - F^2, ``area`` =
    sqrt(det), the tangency residual ``g`` = phi . N and the coordinates
    ``lam``, ``mu`` of the position vector, phi = lam phi_u + mu phi_v + g N.
    Built on first use: ``form`` (:class:`FirstForm`), ``second``
    (:class:`SecondForm`) and ``chris``, the six connection symbols as
    order-1 fields in :class:`Christoffel`'s order (not re-checked against
    the metric-formula oracle; :func:`christoffel` is).

    Raises DegeneratePoint where EG - F^2 <= 1e-14, naming the first such
    node of a batch.
    """

    def __init__(self, jet):
        E, F, G, pu, pv = metric_fields(jet)
        det = E * G - F * F
        bad = failing_node(det.f <= REGULARITY_THRESHOLD, det.f, jet.u, jet.v)
        if bad:
            raise DegeneratePoint("EG - F^2 = {} at (u, v) = ({}, {})"
                                  .format(*bad))
        p = [Field2.of_jet(c) for c in jet.components]
        area = det.sqrt()
        p_dot_u = dot3(p, pu)
        p_dot_v = dot3(p, pv)
        self.jet = jet
        self.E, self.F, self.G, self.det, self.area = E, F, G, det, area
        self.g = dot3(p, cross3(pu, pv)) / area
        self.lam = (G * p_dot_u - F * p_dot_v) / det
        self.mu = (E * p_dot_v - F * p_dot_u) / det

    @cached_property
    def form(self):
        return _first_form(self.E, self.F, self.G)

    @cached_property
    def second(self):
        return second_form(self.jet)

    @cached_property
    def chris(self):
        return christoffel_fields(self.form)


def point_geometry(patch, u, v):
    """The :class:`PointGeometry` of ``patch`` at (u, v): floats, or 1-D
    arrays of nodes, evaluated in one
    :meth:`~tpcurves.surface.SurfacePatch.jet_batch` pass."""
    if isinstance(u, np.ndarray):
        return PointGeometry(patch.jet_batch(u, v))
    return PointGeometry(patch.jet(u, v))


def tangency_gradient(patch, u, v):
    """(g, g_u, g_v, (x, y, z)): the tangency residual g = phi . N, its
    gradient and the point phi at (u, v), from one order-2 evaluation of
    the patch, with no order-3 jet, lam/mu or Hessian.

    The triple arithmetic below is Field1's rule hand-inlined: the
    record's formula for ``g`` evaluated over Field1, which is Field2
    truncated, so g, g_u and g_v carry the bits of the record's ``g``.  It
    is kept because it measured 34 us per call against 61 us for the same
    steps over Field1 (offset_sphere, CPython 3.11, 2-core Xeon).  Raises
    DegeneratePoint where the record does.
    """
    phi = patch.jet_order2(u, v)
    p = [(c.f, c.fu, c.fv) for c in phi]
    pu = [(c.fu, c.fuu, c.fuv) for c in phi]
    pv = [(c.fv, c.fuv, c.fvv) for c in phi]
    E, F, G = _dot1(pu, pu), _dot1(pu, pv), _dot1(pv, pv)
    det = _sub1(_mul1(E, G), _mul1(F, F))
    if det[0] <= REGULARITY_THRESHOLD:
        raise DegeneratePoint(
            f"EG - F^2 = {det[0]} at (u, v) = ({float(u)}, {float(v)})")
    # area = sqrt(det), then 1/area, each composed as every ring composes.
    r = math.sqrt(det[0])
    half = 0.5 / r
    area = (r, half * det[1], half * det[2])
    iw = 1.0 / r
    slope = -(iw * iw)
    num = _dot1(p, _cross1(pu, pv))
    g = num[0] * iw
    g_u = num[1] * iw + num[0] * (slope * area[1])
    g_v = num[2] * iw + num[0] * (slope * area[2])
    return g, g_u, g_v, (p[0][0], p[1][0], p[2][0])


# Value-and-gradient triples (f, f_u, f_v) under Field1's sum and product.

def _mul1(a, b):
    return (a[0] * b[0], a[1] * b[0] + a[0] * b[1], a[2] * b[0] + a[0] * b[2])


def _add1(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub1(a, b):
    # a + (-b), as the rings subtract: a - b has the same bits except for
    # the sign of a NaN.
    return (a[0] + -b[0], a[1] + -b[1], a[2] + -b[2])


def _dot1(a, b):
    return _add1(_add1(_mul1(a[0], b[0]), _mul1(a[1], b[1])),
                 _mul1(a[2], b[2]))


def _cross1(a, b):
    return (_sub1(_mul1(a[1], b[2]), _mul1(a[2], b[1])),
            _sub1(_mul1(a[2], b[0]), _mul1(a[0], b[2])),
            _sub1(_mul1(a[0], b[1]), _mul1(a[1], b[0])))


def metric_fields(jet):
    """E, F, G and the partials phi_u, phi_v they come from, as order-2
    fields (value, gradient, Hessian)."""
    pu = [Field2.of_jet_du(c) for c in jet.components]
    pv = [Field2.of_jet_dv(c) for c in jet.components]
    return dot3(pu, pu), dot3(pu, pv), dot3(pv, pv), pu, pv


def _first_form(E, F, G):
    """FirstForm of the metric fields E, F, G."""
    return FirstForm(
        E=E.f, F=F.f, G=G.f,
        E_u=E.fu, E_v=E.fv, F_u=F.fu, F_v=F.fv, G_u=G.fu, G_v=G.fv,
        E_uu=E.fuu, E_uv=E.fuv, E_vv=E.fvv,
        F_uu=F.fuu, F_uv=F.fuv, F_vv=F.fvv,
        G_uu=G.fuu, G_uv=G.fuv, G_vv=G.fvv,
    )


def first_form(jet):
    """First fundamental form at a regular point."""
    E, F, G, _, _ = metric_fields(jet)
    det = E.f * G.f - F.f * F.f
    if det <= REGULARITY_THRESHOLD:
        raise DegeneratePoint(
            f"EG - F^2 = {det} at (u, v) = ({jet.u}, {jet.v})")
    return _first_form(E, F, G)


def second_form(jet):
    """Second fundamental form, oriented by phi_u x phi_v, at a point or at
    every node of a batched jet (``unit_normal`` is (3,) or (3, nodes))."""
    w = cross3(jet.du, jet.dv)
    norm2 = dot3(w, w)
    bad = failing_node(norm2 <= REGULARITY_THRESHOLD, norm2, jet.u, jet.v)
    if bad:
        raise DegeneratePoint("|phi_u x phi_v|^2 = {} at (u, v) = ({}, {})"
                              .format(*bad))
    area = np.sqrt(norm2)
    normal = [x / area for x in w]
    return SecondForm(
        L=dot3(jet.duu, normal),
        M=dot3(jet.duv, normal),
        N=dot3(jet.dvv, normal),
        unit_normal=np.array(normal),
        area_element=area,
    )


def christoffel_from_metric(E, F, G, E_u, E_v, F_u, F_v, G_u, G_v):
    """Independent oracle: Gamma^k_ij from the general metric formula.

    Returns (g111, g112, g121, g122, g221, g222) with the same index
    convention as :class:`Christoffel`.
    """
    g = np.array([[E, F], [F, G]])
    det = E * G - F * F
    if det <= REGULARITY_THRESHOLD:
        raise DegeneratePoint(f"EG - F^2 = {det}")
    g_inv = np.array([[G, -F], [-F, E]]) / det
    # dg[a][i][j] = d_a g_ij
    dg = np.array([[[E_u, F_u], [F_u, G_u]],
                   [[E_v, F_v], [F_v, G_v]]])
    gamma = np.zeros((2, 2, 2))  # gamma[k][i][j]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                total = 0.0
                for l in range(2):
                    total += g_inv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * total
    return (gamma[0, 0, 0], gamma[1, 0, 0], gamma[0, 0, 1],
            gamma[1, 0, 1], gamma[0, 1, 1], gamma[1, 1, 1])


def christoffel_fields(form):
    """The six symbols as order-1 fields (value plus u, v derivatives)."""
    E, F, G = (Field1(form.E, form.E_u, form.E_v),
               Field1(form.F, form.F_u, form.F_v),
               Field1(form.G, form.G_u, form.G_v))
    E_u = Field1(form.E_u, form.E_uu, form.E_uv)
    E_v = Field1(form.E_v, form.E_uv, form.E_vv)
    F_u = Field1(form.F_u, form.F_uu, form.F_uv)
    F_v = Field1(form.F_v, form.F_uv, form.F_vv)
    G_u = Field1(form.G_u, form.G_uu, form.G_uv)
    G_v = Field1(form.G_v, form.G_uv, form.G_vv)
    # x / den multiplies x by den's composed reciprocal; composing it once
    # gives the six quotients' bits with one reciprocal instead of six.
    inv = ((E * G - F * F) * 2.0)._compose("recip")
    g111 = (G * E_u - F * F_u * 2.0 + F * E_v) * inv
    g112 = (E * F_u * 2.0 - E * E_v - F * E_u) * inv
    g121 = (G * E_v - F * G_u) * inv
    g122 = (E * G_u - F * E_v) * inv
    g221 = (G * F_v * 2.0 - G * G_u - F * G_v) * inv
    g222 = (E * G_v - F * F_v * 2.0 + F * G_u) * inv
    return g111, g112, g121, g122, g221, g222


def christoffel(form):
    """Connection symbols at a regular point, cross-checked against the
    metric-formula oracle."""
    if form.det <= REGULARITY_THRESHOLD:
        raise DegeneratePoint(f"EG - F^2 = {form.det}")
    g111, g112, g121, g122, g221, g222 = christoffel_fields(form)
    oracle = christoffel_from_metric(
        form.E, form.F, form.G, form.E_u, form.E_v,
        form.F_u, form.F_v, form.G_u, form.G_v)
    explicit = (g111.f, g112.f, g121.f, g122.f, g221.f, g222.f)
    scale = max(1.0, max(abs(x) for x in explicit))
    worst = max(abs(a - b) for a, b in zip(explicit, oracle))
    if not worst <= _ORACLE_TOLERANCE * scale:
        raise OracleMismatch(f"Christoffel routes disagree by {worst} at "
                             f"(E, F, G) = ({form.E}, {form.F}, {form.G})")
    return Christoffel(
        g111=g111.f, g112=g112.f, g121=g121.f,
        g122=g122.f, g221=g221.f, g222=g222.f,
        g111_u=g111.fu, g111_v=g111.fv,
        g112_u=g112.fu, g112_v=g112.fv,
        g121_u=g121.fu, g121_v=g121.fv,
        g122_u=g122.fu, g122_v=g122.fv,
        g221_u=g221.fu, g221_v=g221.fv,
        g222_u=g222.fu, g222_v=g222.fv,
    )


def gauss_equation_residual(jet, second, chris):
    """Residuals of the moving-frame expansion of the second partials.

    r_uu = phi_uu - Gamma^1_11 phi_u - Gamma^2_11 phi_v - L N, and the
    uv/vv analogues; each is an exact identity, so the residuals measure
    implementation error only.
    """
    n = second.unit_normal
    r_uu = jet.duu - chris.g111 * jet.du - chris.g112 * jet.dv - second.L * n
    r_uv = jet.duv - chris.g121 * jet.du - chris.g122 * jet.dv - second.M * n
    r_vv = jet.dvv - chris.g221 * jet.du - chris.g222 * jet.dv - second.N * n
    return r_uu, r_uv, r_vv
