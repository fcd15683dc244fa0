"""Surface patches and parameter curves backed by exact jet evaluation.

A :class:`SurfacePatch` is an analytic map (u, v) -> R^3 parsed from
expression text; :meth:`SurfacePatch.jet` returns all partial derivatives
through order 3 computed by forward-mode jets, with no finite differencing
anywhere.  The tangency kernel, :attr:`SurfacePatch.tangency_kernel`, is
straight-line code over order-2 fields, generated per patch on first use;
the tracer's walk, :attr:`SurfacePatch.tangency_walk`, holds its body.
A :class:`CurvePath` is a pair u(t), v(t) over one parameter.

Batched evaluation runs generated code as well, three straight-line array
programs per patch, each recorded by :func:`~tpcurves.jets.straight_line`
and cached on the patch:

* the record program of a batched
  :func:`~tpcurves.forms.point_geometry`, over Jet2: the component jets
  (order 3: the second form and the connection symbols' derivatives need
  third partials) and the record's fields (order 2).  It compiles in
  tiers: a patch builds its first ``_RECORD_TIER`` batched records on the
  rings, over :meth:`SurfacePatch.jet_batch`, and compiles it at the
  next, so a one-shot CLI op compiles none;
* the ambient program of the batched :func:`ambient_jet`, over Jet1 at the
  coefficients of any curve's jets u(t), v(t) (order 3 along the curve),
  compiled on first use;
* the metric program of :meth:`SurfacePatch.metric_batch`, over Field2
  (order 2: E, F, G and their first derivatives, all a metric grid sweep
  compares, need second partials only), at node arrays that broadcast
  together: a grid sweep passes its axes, a (m, 1) column of u and a
  (1, n) row of v, so a value of u alone is computed at m entries;
  compiled on first use.

Each gives the ring path's bits at every value that is not NaN, and NaN
where it gives NaN.  The ring path (the tree walk over Jet2, Jet1 and
Field2 arrays, and a record over :meth:`SurfacePatch.jet_batch`) stays as
their oracle and their error path: where a program returns None.  At a
point, ``jet``, ``ambient_jet`` and the curve's own u(t), v(t) run the
same tree walk over floats, and ``value`` walks the trees over plain
floats.

Patches and paths are immutable after construction and all evaluation is
pure, so they are safe to use concurrently.  On Python 3.12 and later,
``cached_property`` takes no lock, so two threads may both compile a patch's
kernel or program on first use; both get the same code, so this is
harmless.  The count of a patch's batched records is an
``itertools.count``, whose ``next`` is atomic under CPython's global
interpreter lock.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Optional

import numpy as np

from . import expr
from .errors import DomainError
from .forms import (PointGeometry, compile_metric_program,
                    compile_record_program, compile_tangency_kernel,
                    metric_coefficients)
from .jets import Field2, Jet1, Jet2, failing_node, straight_line

__all__ = ["SurfaceJet", "SurfacePatch", "CurveJet", "CurvePath",
           "parse_surface", "parse_curve"]

_DOMAIN_SLACK = 1e-9
_CHECK_SAMPLES = 129  # parameters at which check_on tests a curved path
# Batched records a patch builds on the rings before it compiles its record
# program.  A record program takes 2-10 ms to compile and saves 0.3-0.5 ms
# a record, and no CLI op builds more than 3 batched records on one patch
# (verify builds 3 on each of plane, cone, sphere and offset_sphere;
# report-thm31, trace and isometry --curve build 1), so a one-shot op
# compiles none.
_RECORD_TIER = 3


@dataclass(frozen=True)
class SurfaceJet:
    """Position and partial derivatives of a patch at one parameter point,
    or at every node of a batch (see :meth:`SurfacePatch.jet_batch`)."""

    u: float  # or an array of nodes
    v: float
    value: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray
    duuu: np.ndarray
    duuv: np.ndarray
    duvv: np.ndarray
    dvvv: np.ndarray
    components: tuple = field(repr=False)  # raw per-component Jet2 triple


@dataclass(frozen=True)
class SurfacePatch:
    """Analytic surface patch with a rectangular parameter domain."""

    name: str
    components: tuple  # three expression trees over (u, v)
    u_range: tuple
    v_range: tuple

    @cached_property
    def _bounds(self):  # the domain widened by the slack: u0, u1, v0, v1
        (u0, u1), (v0, v1) = self.u_range, self.v_range
        su = _DOMAIN_SLACK * max(1.0, abs(u0), abs(u1))
        sv = _DOMAIN_SLACK * max(1.0, abs(v0), abs(v1))
        return u0 - su, u1 + su, v0 - sv, v1 + sv

    def contains(self, u, v):
        u0, u1, v0, v1 = self._bounds
        # ``&`` rather than ``and``: u and v may be arrays of nodes.
        return (u0 <= u) & (u <= u1) & (v0 <= v) & (v <= v1)

    @cached_property
    def tangency_kernel(self):
        """:func:`~tpcurves.forms.compile_tangency_kernel` of this patch,
        compiled on first use."""
        return compile_tangency_kernel(self.components)

    @cached_property
    def tangency_walk(self):
        """:func:`~tpcurves.tangent.compile_tangency_walk` of this patch,
        compiled on first use."""
        from .tangent import compile_tangency_walk  # tangent imports this
        return compile_tangency_walk(self)

    @cached_property
    def _record_program(self):
        """:func:`~tpcurves.forms.compile_record_program` of this patch,
        compiled on first use, at its batched record _RECORD_TIER + 1."""
        return compile_record_program(self.components)

    @cached_property
    def _records(self):
        """Counts the patch's batched records: 0, 1, 2, ..."""
        return count()

    @cached_property
    def _ambient_program(self):
        """:func:`_compile_ambient_program` of this patch, compiled on first
        use."""
        return _compile_ambient_program(self.components)

    @cached_property
    def _metric_program(self):
        """:func:`~tpcurves.forms.compile_metric_program` of this patch,
        compiled on first use."""
        return compile_metric_program(self.components)

    def _require_inside(self, u, v):
        if not self.contains(u, v):
            raise DomainError(
                f"({u}, {v}) outside domain "
                f"[{self.u_range[0]}, {self.u_range[1]}] x "
                f"[{self.v_range[0]}, {self.v_range[1]}] of '{self.name}'")

    def _nodes_inside(self, u, v):
        """Two arrays of nodes that broadcast together, as float arrays; the
        first node outside the domain, in row-major order of their
        broadcast, raises :meth:`jet`'s DomainError."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        bad = failing_node(np.logical_not(self.contains(u, v)), u, v)
        if bad:
            self._require_inside(*bad)
        return u, v

    def value(self, u, v):
        """Position only, evaluated over plain floats."""
        self._require_inside(u, v)
        env = {"u": float(u), "v": float(v)}
        return np.array([expr.evaluate(c, env, float) for c in self.components])

    def jet(self, u, v):
        """All partials through order 3 at (u, v)."""
        self._require_inside(u, v)
        u, v = float(u), float(v)
        return _surface_jet(u, v, _tree_walk(
            self.components, {"u": Jet2(u, fu=1.0), "v": Jet2(v, fv=1.0)},
            Jet2))

    def jet_batch(self, u, v):
        """:meth:`jet` at every node of two equal-length 1-D arrays, in one
        pass of the tree walk over Jet2 arrays: the oracle and the error
        path of the record program.

        The result's ``u`` and ``v`` are the node arrays and its derivative
        arrays have shape (3, nodes); each node's column carries the bits
        :meth:`jet` gives there.  The component jets keep a float wherever
        a coefficient is the same at every node.  A node outside the domain,
        or one where :meth:`jet` would raise EvalError, raises that error.
        """
        u, v = self._nodes_inside(u, v)
        return _surface_jet(u, v, _tree_walk(
            self.components, {"u": Jet2(u, fu=1.0), "v": Jet2(v, fv=1.0)},
            Jet2))

    def _record_batch(self, u, v):
        """The :class:`~tpcurves.forms.PointGeometry` at every node of two
        equal-length 1-D arrays, with the bits of :meth:`jet_batch`'s
        record: from the patch's record program once it has built
        _RECORD_TIER batched records, else, and where the program returns
        None, over :meth:`jet_batch`, which then raises the batch's error.
        """
        u, v = self._nodes_inside(u, v)
        out = (self._record_program(u, v)
               if next(self._records) >= _RECORD_TIER else None)
        if out is None:
            return PointGeometry(self.jet_batch(u, v))
        comps = tuple(Jet2(*c) for c in out[:3])
        return PointGeometry._of(_surface_jet(u, v, comps),
                                 [Field2(*c) for c in out[3:]])

    def metric_batch(self, u, v):
        """E, F, G, E_u, E_v, F_u, F_v, G_u, G_v at every node of two
        arrays of nodes that broadcast together, in one pass: the patch's
        generated array program
        (:func:`~tpcurves.forms.compile_metric_program`), or
        :func:`~tpcurves.forms.metric_coefficients` over Field2 arrays
        where that returns None.

        Each is an array that broadcasts to the nodes' shape, or a float
        where it is the same at every node, with the bits of the
        coefficients of :func:`~tpcurves.forms.metric_fields` over
        :meth:`jet_batch` at each node; it needs second partials only.  On
        a grid's (m, 1) and (1, n) axes, a coefficient of u alone has shape
        (m, 1).  The first node outside the domain, or where :meth:`jet`
        would raise EvalError, in row-major order, raises that error.
        """
        u, v = self._nodes_inside(u, v)
        # As in the tree walk, overflow and invalid operations pass.
        with np.errstate(over="ignore", invalid="ignore"):
            return self._metric_program(u, v) or metric_coefficients(
                Field2, self.components, u, v)

    def text(self):
        return "(" + ", ".join(expr.to_text(c) for c in self.components) + ")"


def _tree_walk(components, env, ring):
    """The trees over ``ring`` in ``env``, at a point or at arrays of nodes:
    the per-point evaluation, and the oracle and the error path of the
    generated array programs."""
    # Python floats overflow to inf and NaN without a word; so do these.
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(expr.evaluate(c, env, ring.const) for c in components)


def _stack(comps, attr, shape):
    """Coefficient ``attr`` of three component jets at nodes of ``shape``
    as a (3, *shape) array: (3,) at a point, 0.0 where it is absent."""
    out = np.empty((3, *shape))
    for i, c in enumerate(comps):
        out[i] = getattr(c, attr)  # broadcasts a float coefficient
    return out


def _coeffs(jet):  # as kept: absent ones stay ZERO
    return tuple(getattr(jet, name) for name in jet.__slots__)


def _compile_ambient_program(components):
    """Straight-line array code, recorded by
    :func:`~tpcurves.jets.straight_line`: the coefficients of the component
    trees over Jet1 at the coefficients of a curve's jets u(t), v(t) (each
    a 1-D array of nodes, or a float where it is the same at every node),
    so one program serves every curve on the patch.  Where it returns None,
    the tree walk over Jet1 arrays, its oracle, raises its error."""
    def build(jet1, *coeffs):
        env = {"u": jet1(*coeffs[:4]), "v": jet1(*coeffs[4:])}
        return tuple(_coeffs(expr.evaluate(c, env, jet1.const))
                     for c in components)
    params = [x + name for x in "uv" for name in Jet1._names]
    return straight_line(build, params, Jet1, arrays=True)


def _surface_jet(u, v, comps):
    """SurfaceJet of component jets at a point or at 1-D arrays of nodes;
    its fields from ``value`` to ``dvvv`` are in Jet2's coefficient order."""
    return SurfaceJet(
        u, v, *(_stack(comps, attr, np.shape(u)) for attr in Jet2._names),
        components=comps)


def parse_surface(text, u_range, v_range, name="surface"):
    """Parse three comma-separated component expressions into a patch."""
    components = expr.parse_components(text, ("u", "v"), 3)
    return SurfacePatch(name=name, components=components,
                        u_range=(float(u_range[0]), float(u_range[1])),
                        v_range=(float(v_range[0]), float(v_range[1])))


@dataclass(frozen=True)
class CurveJet:
    """Parameter point of a curve with t-derivatives through order 3."""

    t: float
    u: Jet1
    v: Jet1


@dataclass(frozen=True)
class CurvePath:
    """Parameter curve t -> (u(t), v(t)) on some patch's domain."""

    name: str
    u_component: object  # expression tree over t
    v_component: object
    t_range: tuple
    surface: Optional[str] = None  # host patch name, resolved by the scene

    def _require_inside(self, t):
        t0, t1 = self.t_range
        slack = _DOMAIN_SLACK * max(1.0, abs(t0), abs(t1))
        bad = failing_node(
            np.logical_not((t0 - slack <= t) & (t <= t1 + slack)), t)
        if bad:
            raise DomainError("t={} outside [{}, {}] of curve '{}'"
                              .format(*bad, t0, t1, self.name))

    def jet(self, t):
        """u(t), v(t) with t-derivatives through order 3.

        ``t`` is a float, or a 1-D array of nodes evaluated in one pass.  On
        an array, ``u`` and ``v`` carry per-node coefficients (a coefficient
        that is the same at every node may stay a float), each node with
        the bits the float call gives there; the first node outside the
        range, or where the float call raises EvalError, raises that error.
        """
        self._require_inside(t)
        if not isinstance(t, np.ndarray):
            t = float(t)
        u, v = _tree_walk((self.u_component, self.v_component),
                          {"t": Jet1(t, d1=1.0)}, Jet1)
        return CurveJet(t=t, u=u, v=v)

    def check_on(self, patch):
        """Verify that the path stays inside the patch domain.

        An affine path (:func:`~tpcurves.expr.is_affine`) with finite ends
        inside passes: it runs along a segment of a convex set.  Others are
        tested at 129 equally spaced parameters, endpoints included,
        in one batched pass, and pass if they leave between two and come
        back.  The DomainError names the first failing ``t``.
        """
        t0, t1 = self.t_range
        comps = (self.u_component, self.v_component)
        if t0 <= t1 and all(map(expr.is_affine, comps)):
            # This fails only at "/" by a zero Const, as the sampled pass does.
            ends = [expr.evaluate(c, {"t": t}, float)
                    for t in (t0, t1) for c in comps]
            if all(map(math.isfinite, ends)) and \
                    patch.contains(*ends[:2]) and patch.contains(*ends[2:]):
                return
        ts = np.array([t0 + (t1 - t0) * i / (_CHECK_SAMPLES - 1)
                       for i in range(_CHECK_SAMPLES)])
        cj = self.jet(ts)
        bad = failing_node(np.logical_not(patch.contains(cj.u.f, cj.v.f)),
                           ts, cj.u.f, cj.v.f)
        if bad:
            raise DomainError(
                "curve '{}' leaves domain of '{}' at t={}: (u, v)=({}, {})"
                .format(self.name, patch.name, *bad))


def parse_curve(u_text, v_text, t_range, name="curve", surface=None):
    return CurvePath(
        name=name,
        u_component=expr.parse_expression(u_text, ("t",)),
        v_component=expr.parse_expression(v_text, ("t",)),
        t_range=(float(t_range[0]), float(t_range[1])),
        surface=surface,
    )


def ambient_jet(patch, curve, t):
    """Ambient position jet gamma(t) with t-derivatives through order 3.

    Evaluates the patch expressions over univariate jets of u(t), v(t);
    the chain rule is exact by construction.  ``t`` may be a 1-D array of
    nodes (see :meth:`CurvePath.jet`): the position and derivative arrays
    then have shape (3, nodes), each column with the bits of the float call
    at that node, and the first node off the patch domain raises.
    """
    cj = curve.jet(t)
    bad = failing_node(np.logical_not(patch.contains(cj.u.f, cj.v.f)),
                       cj.u.f, cj.v.f, t)
    if bad:
        raise DomainError("curve point ({}, {}) at t={} outside domain of "
                          "'{}'".format(*bad, patch.name))
    env = {"u": cj.u, "v": cj.v}
    out = (patch._ambient_program(*_coeffs(cj.u), *_coeffs(cj.v))
           if isinstance(t, np.ndarray) else None)
    # The tree walk raises its first failing node's error.
    comps = (_tree_walk(patch.components, env, Jet1) if out is None
             else tuple(Jet1(*c) for c in out))
    return cj, *(_stack(comps, attr, np.shape(t)) for attr in Jet1._names)
