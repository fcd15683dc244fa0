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

and the two routes are required to agree to 1e-10 at every node; a
disagreement, or a NaN or infinite symbol, raises
:class:`~tpcurves.errors.OracleMismatch`.  Both routes work at a point or
at every node of a batched record.

:class:`PointGeometry` is the per-point record every per-sample identity
reads, and the one place where the metric, its regularity test and the
connection symbols are put together: one jet evaluation, the metric and
the position-vector decomposition as order-2 fields, written once in the
ring-generic :func:`_record_fields`, and the second form and connection
symbols built on first use.  :func:`christoffel` checks
the record's symbols against the metric-formula oracle on its E, F, G
fields, and :func:`first_form` copies those fields into a
:class:`FirstForm`.  Over a batched jet it is the record of a whole curve
or grid, every field an array over the nodes, and
:meth:`PointGeometry.split` cuts one into the records of runs of its
nodes.

Four of a patch's generated programs are recorded from code here.  The
metric program of a grid sweep (:func:`metric_coefficients`: E, F, G and
their first derivatives, order 2) and the tracer's walk
(:func:`_tangency_fields`: g, its gradient and the point, order 2) come
from one builder, the component trees over Field2 lowered to order-1
position and partials with E, F, G over them.  The record program records
the component trees over Jet2 and :func:`_record_fields` over them: a
batched record's jets and fields in one array program, with the
regularity test as a guard.  The hessian program records the record's g
alone (:func:`_order2_metric` and :func:`_tangency`), for the tracer's
seed.  All but the walk are compiled and run from one table,
:data:`~tpcurves.surface._PROGRAMS`; the walk is compiled in
:mod:`~tpcurves.tangent`.
"""

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import expr
from .errors import DegeneratePoint, GeometryError, OracleMismatch
from .jets import Field2, cross3, dot3, failing_node

__all__ = [
    "FirstForm", "SecondForm", "PointGeometry",
    "first_form", "second_form", "christoffel", "christoffel_from_metric",
    "gauss_equation_residual", "point_geometry", "tangency_gradient",
    "metric_coefficients", "REGULARITY_THRESHOLD",
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
        return np.sqrt(self.det)


@dataclass(frozen=True)
class SecondForm:
    """Normal components of the second partials, plus the unit normal."""

    L: float
    M: float
    N: float
    unit_normal: np.ndarray
    area_element: float  # |phi_u x phi_v| = sqrt(EG - F^2)


class PointGeometry:
    """Geometry of a patch at one parameter point, from one jet, or at
    every node of a batched jet
    (:meth:`~tpcurves.surface.SurfacePatch.jet_batch`, or the record
    program's): each coefficient is then an array over the nodes (a float
    where it is the same at every node) with the bits of the one-point
    record at each node.

    Built at once, as order-2 fields (value, gradient, Hessian): the metric
    coefficients ``E``, ``F``, ``G``, ``det`` = EG - F^2, ``area`` =
    sqrt(det), the tangency residual ``g`` = phi . N and the coordinates
    ``lam``, ``mu`` of the position vector, phi = lam phi_u + mu phi_v + g N.
    Built on first use: ``second`` (:class:`SecondForm`) and ``chris``,
    the six connection symbols Gamma^1_11, Gamma^2_11, Gamma^1_12,
    Gamma^2_12, Gamma^1_22, Gamma^2_22 as order-1 fields (value plus u, v
    derivatives), checked against the metric-formula oracle by
    :func:`christoffel`.

    Raises DegeneratePoint where EG - F^2 <= 1e-14, naming the first such
    node of a batch.
    """

    def __init__(self, jet):
        # The record program's error states (the tree walk's, and a
        # division by zero raises), so both paths stay silent alike.
        with np.errstate(over="ignore", invalid="ignore", divide="raise"):
            fields = _record_fields(jet.components, jet.u, jet.v)
        self._fill(jet, fields)

    @classmethod
    def _of(cls, jet, fields):
        """The record of ``jet`` whose fields, in :func:`_record_fields`
        order, were computed elsewhere: by the patch's record program
        (:meth:`~tpcurves.surface.SurfacePatch._program`)."""
        geom = cls.__new__(cls)
        geom._fill(jet, fields)
        return geom

    def _fill(self, jet, fields):
        self.jet = jet
        (self.E, self.F, self.G, self.det, self.area, self.g, self.lam,
         self.mu) = fields

    _whole = None  # a part's (whole record, slice of its nodes)

    def split(self, sizes):
        """This batched record as the records of consecutive runs of
        ``sizes`` nodes, in order.  Each field's coefficients and each jet
        array are views of this record's; the component jets, read only to
        build a record, are left out.  Every coefficient is an element-wise
        function of its node, so a part has the bits of a record built over
        its nodes alone.  A part's ``second`` and ``chris`` are slices of
        this record's, computed once for all parts; where that raises, the
        part computes its own, which raises as a record of its own does."""
        if len(sizes) == 1:
            return [self]
        parts, stop = [], 0
        for size in sizes:
            sl = slice(stop, stop + size)
            stop += size
            part = PointGeometry.__new__(PointGeometry)
            jet = {k: _cut(x, sl) for k, x in vars(self.jet).items()}
            part._fill(type(self.jet)(**jet | {"components": ()}),
                       [_cut_ring(f, sl) for f in (
                           self.E, self.F, self.G, self.det, self.area,
                           self.g, self.lam, self.mu)])
            part._whole = self, sl
            parts.append(part)
        return parts

    @cached_property
    def second(self):
        if self._whole is not None:
            whole, sl = self._whole
            try:
                return SecondForm(*(_cut(x, sl)
                                    for x in vars(whole.second).values()))
            except GeometryError:
                pass
        return second_form(self.jet)

    @cached_property
    def chris(self):
        if self._whole is not None:
            whole, sl = self._whole
            try:
                return tuple(_cut_ring(x, sl) for x in whole.chris)
            except GeometryError:
                pass
        return christoffel_fields(self.E, self.F, self.G)


def _cut(x, sl):
    """``x`` at the nodes ``sl``: an array is sliced on its last axis; a
    float or ZERO, the same at every node, stays."""
    return x[..., sl] if type(x) is np.ndarray else x


def _cut_ring(x, sl):
    """The ring value ``x`` with each coefficient, a float, ZERO or a 1-D
    array over the nodes, at the nodes ``sl``."""
    return type(x)(*[c[sl] if type(c) is np.ndarray else c
                     for c in map(x.__getattribute__, x.__slots__)])


def _record_fields(comps, u, v):
    """E, F, G, det, area, g, lam and mu of :class:`PointGeometry` as
    order-2 fields, from the component jets ``comps`` over Jet2 at (u, v).
    Ring-generic: a record builds them over floats or arrays of nodes, and
    the record program is recorded from it.  Raises DegeneratePoint as
    :func:`_tangency` does."""
    p, pu, pv, E, F, G = _order2_metric(comps)
    det, area, g = _tangency(p, pu, pv, E, F, G, u, v)
    p_dot_u = dot3(p, pu)
    p_dot_v = dot3(p, pv)
    lam = (G * p_dot_u - F * p_dot_v) / det
    mu = (E * p_dot_v - F * p_dot_u) / det
    return E, F, G, det, area, g, lam, mu


def _order2_metric(comps):
    """The position p and partials phi_u, phi_v of the component jets
    ``comps`` over Jet2 as order-2 fields, with E, F, G over them."""
    p, pu, pv = ([view(c) for c in comps] for view in (
        Field2.of_jet, Field2.of_jet_du, Field2.of_jet_dv))
    return p, pu, pv, dot3(pu, pu), dot3(pu, pv), dot3(pv, pv)


def _tangency(p, pu, pv, E, F, G, u, v):
    """det = EG - F^2, area = sqrt(det) and the tangency residual
    g = p . (pu x pv) / area over any ring, at (u, v).  Raises
    DegeneratePoint where det <= REGULARITY_THRESHOLD, naming the first
    such node; recorded, that test is a program's guard."""
    det = E * G - F * F
    bad = failing_node(det.f <= REGULARITY_THRESHOLD, det.f, u, v)
    if bad:
        raise DegeneratePoint("EG - F^2 = {} at (u, v) = ({}, {})"
                              .format(*bad))
    triple = dot3(p, cross3(pu, pv))
    area = det.sqrt()
    return det, area, triple / area


def point_geometry(patch, u, v):
    """The :class:`PointGeometry` of ``patch`` at (u, v): floats, or 1-D
    arrays of nodes, evaluated in one pass
    (:meth:`~tpcurves.surface.SurfacePatch._record_batch`)."""
    if isinstance(u, np.ndarray):
        try:
            return patch._record_batch(u, v)
        except GeometryError:
            # The batch raises its first error by kind (evaluation before
            # regularity); replay node by node to raise the error the
            # per-point loop meets first.
            for x, y in zip(u.tolist(), v.tolist()):
                point_geometry(patch, x, y)
            raise
    return PointGeometry(patch.jet(u, v))


def tangency_gradient(patch, u, v):
    """(g, g_u, g_v, (x, y, z)): the tangency residual g = phi . N, its
    gradient and the point phi at (u, v), with the bits of the record's
    (NaN where the record's is NaN), from the corrector of the patch's
    walk (:func:`~tpcurves.tangent.compile_tangency_walk`) with no Newton
    step.  Where the walk's body gives way, and off the domain,
    :func:`point_geometry`, the tree walk and the body's oracle, raises its
    error (DomainError, EvalError, DegeneratePoint)."""
    if patch.contains(u, v):
        return patch.tangency_walk(patch, float(u), float(v), 0, 0.0)[2]
    return _record_gradient(patch, u, v)


def _record_gradient(patch, u, v):
    """:func:`tangency_gradient` from :func:`point_geometry` alone."""
    geom = point_geometry(patch, u, v)
    return geom.g.f, geom.g.fu, geom.g.fv, tuple(geom.jet.value.tolist())


def _order1_metric(components, field2, u, v):
    """The component trees over ``field2`` at (u, v), lowered to order-1
    fields: the position p and the partials phi_u, phi_v, with E, F, G
    over them.  Ring-generic: the tracer's walk and the metric program
    are recorded from it, and over Field2 at arrays of nodes it is the
    metric program's oracle and error path."""
    env = {"u": field2(u, fu=1.0), "v": field2(v, fv=1.0)}
    phi = [expr.evaluate(c, env, field2.const) for c in components]
    p = [c.lower() for c in phi]
    pu = [c.du() for c in phi]
    pv = [c.dv() for c in phi]
    return p, pu, pv, dot3(pu, pu), dot3(pu, pv), dot3(pv, pv)


def metric_coefficients(components, field2, u, v):
    """E, F, G, E_u, E_v, F_u, F_v, G_u, G_v of the component trees over
    ``field2`` at (u, v), floats or arrays of nodes that broadcast
    together: second partials of phi at most."""
    E, F, G = _order1_metric(components, field2, u, v)[3:]
    return E.f, F.f, G.f, E.fu, E.fv, F.fu, F.fv, G.fu, G.fv


def _tangency_fields(components, field2, u, v):
    """g, g_u, g_v and the point of the component trees over ``field2`` at
    (u, v), by the record's formula for g over Field1: what the tracer's
    walk records."""
    p, pu, pv, E, F, G = _order1_metric(components, field2, u, v)
    g = _tangency(p, pu, pv, E, F, G, u, v)[2]
    return g.f, g.fu, g.fv, (p[0].f, p[1].f, p[2].f)


def first_form(jet):
    """First fundamental form at a regular point: the E, F, G fields of
    the jet's :class:`PointGeometry`, which raises where it does."""
    geom = PointGeometry(jet)
    E, F, G = geom.E, geom.F, geom.G
    return FirstForm(E.f, F.f, G.f, E.fu, E.fv, F.fu, F.fv, G.fu, G.fv,
                     E.fuu, E.fuv, E.fvv, F.fuu, F.fuv, F.fvv,
                     G.fuu, G.fuv, G.fvv)


# As in the tree walk, overflow and invalid operations pass without a word.
@np.errstate(over="ignore", invalid="ignore")
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
    """Independent oracle: Gamma^k_ij from the general metric formula, at a
    point or at every node of arrays.

    Returns Gamma^k_ij in the order of :attr:`PointGeometry.chris`:
    (Gamma^1_11, Gamma^2_11, Gamma^1_12, Gamma^2_12, Gamma^1_22,
    Gamma^2_22).
    """
    det = E * G - F * F
    bad = failing_node(det <= REGULARITY_THRESHOLD, det)
    if bad:
        raise DegeneratePoint("EG - F^2 = {}".format(*bad))
    g_inv = ((G / det, -F / det), (-F / det, E / det))
    # dg[a][i][j] = d_a g_ij
    dg = (((E_u, F_u), (F_u, G_u)), ((E_v, F_v), (F_v, G_v)))

    def gamma(k, i, j):
        return 0.5 * sum(g_inv[k][l] * (dg[i][j][l] + dg[j][i][l]
                                        - dg[l][i][j]) for l in (0, 1))

    return (gamma(0, 0, 0), gamma(1, 0, 0), gamma(0, 0, 1),
            gamma(1, 0, 1), gamma(0, 1, 1), gamma(1, 1, 1))


def christoffel_fields(E, F, G):
    """The six symbols as order-1 fields (value plus u, v derivatives),
    from the metric coefficients as order-2 fields."""
    E_u, E_v, F_u, F_v, G_u, G_v = (d for x in (E, F, G)
                                    for d in (x.du(), x.dv()))
    E, F, G = E.lower(), F.lower(), G.lower()
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


def christoffel(geom):
    """The connection symbols ``geom.chris`` of a :class:`PointGeometry`,
    at a point or at every node of a batched record, cross-checked node by
    node against the metric-formula oracle on the record's E, F, G fields.

    Raises OracleMismatch where the two routes disagree or a symbol is NaN
    or infinite, naming the first such node of a batch.
    """
    E, F, G = geom.E, geom.F, geom.G
    oracle = christoffel_from_metric(E.f, F.f, G.f, E.fu, E.fv,
                                     F.fu, F.fv, G.fu, G.fv)
    explicit = [x.f for x in geom.chris]
    # np.maximum, unlike max, keeps a NaN wherever it sits (inf - inf is
    # one); an infinite scale would pass any residual, so test finiteness.
    with np.errstate(invalid="ignore"):
        scale = reduce(np.maximum, map(abs, explicit), 1.0)
        worst = reduce(np.maximum,
                       (abs(a - b) for a, b in zip(explicit, oracle)))
    ok = np.isfinite(worst) & (worst <= _ORACLE_TOLERANCE * scale)
    bad = failing_node(~ok, worst, E.f, F.f, G.f)
    if bad:
        raise OracleMismatch("Christoffel routes disagree by {} at "
                             "(E, F, G) = ({}, {}, {})".format(*bad))
    return geom.chris


def gauss_equation_residual(geom):
    """Residuals of the moving-frame expansion of the second partials,
    from a :class:`PointGeometry` whose symbols :func:`christoffel`
    checks first.

    r_uu = phi_uu - Gamma^1_11 phi_u - Gamma^2_11 phi_v - L N, and the
    uv/vv analogues; each is an exact identity, so the residuals measure
    implementation error only.
    """
    g111, g112, g121, g122, g221, g222 = (x.f for x in christoffel(geom))
    jet, second = geom.jet, geom.second
    n = second.unit_normal
    r_uu = jet.duu - g111 * jet.du - g112 * jet.dv - second.L * n
    r_uv = jet.duv - g121 * jet.du - g122 * jet.dv - second.M * n
    r_vv = jet.dvv - g221 * jet.du - g222 * jet.dv - second.N * n
    return r_uu, r_uv, r_vv
