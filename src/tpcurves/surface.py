"""Surface patches and parameter curves backed by exact jet evaluation.

A :class:`SurfacePatch` is an analytic map (u, v) -> R^3 parsed from
expression text; :meth:`SurfacePatch.jet` returns all partial derivatives
through order 3 computed by forward-mode jets, with no finite differencing
anywhere.  The tracer's walk, :attr:`SurfacePatch.tangency_walk`, is
straight-line float code over order-2 fields, generated per patch on first
use; :func:`~tpcurves.forms.tangency_gradient` runs its corrector too.
A :class:`CurvePath` is a pair u(t), v(t) over one parameter.

Batched evaluation runs generated code as well: straight-line programs
per patch, from one table of kinds, :data:`_PROGRAMS`.
:meth:`SurfacePatch._program` records a kind by
:func:`~tpcurves.jets.straight_line` on first use, and
:meth:`SurfacePatch._run` gives the kind's coefficients: from the program
once the patch's calls of that kind pass its tier, and below the tier, or
where the program returns None, from the kind's build on its ring (the
ring path), which is the program's oracle and its error path:

* ``record`` (tier 3), the batched :func:`~tpcurves.forms.point_geometry`
  over Jet2: the component jets (order 3: the second form and the
  connection symbols' derivatives need third partials) and the record's
  fields (order 2), so a one-shot CLI op compiles none; the tracer's
  isolated-zero test reads g's Hessian from it at a corrected seed;
* ``ambient`` (tier 0), the batched :func:`ambient_jet` over Jet1 at the
  coefficients of any curve's jets u(t), v(t);
* ``velocity`` (tier 0), :func:`ambient_velocity`: the same build, returning
  the first derivatives alone, which is all the arc-length quadrature
  reads;
* ``metric`` (tier 0), :meth:`SurfacePatch.metric_batch` over Field2
  (order 2), at node arrays that broadcast together: a grid sweep passes
  its (m, 1) and (1, n) axes, so a value of u alone is computed at m
  entries.

Each gives the ring path's bits at every value that is not NaN, and NaN
where it gives NaN.  At a point, ``jet``, ``ambient_jet`` and the curve's
own u(t), v(t) run the same tree walk over floats, and ``value`` walks the
trees over plain floats.

Patches and paths are immutable after construction and all evaluation is
pure, so they are safe to use concurrently.  A patch's caches take no lock
(``cached_property`` on Python 3.12 and later, and the table's dict), so
two threads may both compile one program, which is harmless, and neither
does the set of domains a path has passed its check on; each kind's
count of calls is an ``itertools.count`` of its own, whose
``next`` is atomic under CPython's global interpreter lock.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count
from typing import Optional

import numpy as np

from . import expr
from .errors import DomainError
from .forms import PointGeometry, _record_fields, metric_coefficients
from .jets import ZERO, Field2, Jet1, Jet2, failing_node, straight_line

__all__ = ["SurfaceJet", "SurfacePatch", "CurveJet", "CurvePath",
           "parse_surface", "parse_curve"]

_DOMAIN_SLACK = 1e-9
_CHECK_SAMPLES = 129  # parameters at which check_on tests a path


def _record_coefficients(components, jet2, u, v):
    """The component jets over ``jet2`` at (u, v) and the record's fields
    over them, as kept (absent ones are ZERO): the record program."""
    comps = _jets(components, jet2, u, v)
    return tuple(map(_coeffs, (*comps, *_record_fields(comps, u, v))))


def _curve_walk(components, jet1, *coeffs):
    """The component trees over ``jet1`` at the coefficients of a curve's
    jets u(t), v(t)."""
    env = {"u": jet1(*coeffs[:4]), "v": jet1(*coeffs[4:])}
    return _tree_walk(components, env, jet1)


def _ambient_coefficients(components, jet1, *coeffs):
    """:func:`_curve_walk`'s coefficients, as kept: the ambient program, one
    for every curve on the patch."""
    return tuple(map(_coeffs, _curve_walk(components, jet1, *coeffs)))


def _velocity_coefficients(components, jet1, *coeffs):
    """:func:`_curve_walk`'s first derivatives, 0.0 where absent: the
    velocity program, one for every curve on the patch."""
    return tuple(c.d1 for c in _curve_walk(components, jet1, *coeffs))


# The params of the ambient and velocity programs: u's then v's coefficients.
_CURVE_PARAMS = tuple(x + name for x in "uv" for name in Jet1._names)

# A patch's programs by kind: (the ring-generic build over the
# component trees, ``build(components, ring, *params)``, its params, its
# ring, its tier), the tier being the calls of that kind a patch makes on
# the rings before it compiles.  Adaptive compilers compile once
# the calls to come repay the compile (Hoelzle & Ungar, OOPSLA 1994): a
# tier near compile time / time saved a call.  On the 9 built-in patches
# (2-core host, CPython 3.11.7, best of 5 compiles and of 30 calls at 50,
# 100 and 200 nodes, random in the domain or, for ambient and velocity,
# along a line across it; two runs) record compiles in 0.5-10 ms (median
# 5-5.7) and saves 0.13-0.95 ms a call (median 0.35), about 15 calls;
# ambient 0.12-1.0 ms (median 0.8), saves 0-0.15 ms (median 0.05), about
# 16; velocity 0.09-0.76 ms (median 0.5), saves 0.002-0.2 ms (median 0.09)
# against its ring path, about 5, and takes ambient's tier; metric
# 0.11-0.77 ms (median 0.6), saves 0.02-0.21 ms (median 0.09), about 7.
# The tiers predate these figures: no CLI op makes more than 3 record
# calls on one patch (verify makes 1 on each patch it reads, over all the
# nodes its checks read there, and on offset_sphere 2 more for the traced
# locus, at its corrected seed and over its samples; trace makes those 2,
# report-thm31 and isometry --curve 1), so a one-shot op compiles no record
# program.
_PROGRAMS = {
    "record": (_record_coefficients, ("u", "v"), Jet2, 3),
    "ambient": (_ambient_coefficients, _CURVE_PARAMS, Jet1, 0),
    "velocity": (_velocity_coefficients, _CURVE_PARAMS, Jet1, 0),
    "metric": (metric_coefficients, ("u", "v"), Field2, 0),
}


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

    @cached_property
    def _hash(self):  # the dataclass's, its trees walked once
        return hash((self.name, self.components, self.u_range, self.v_range))

    def __hash__(self):
        return self._hash

    def contains(self, u, v):
        u0, u1, v0, v1 = self._bounds
        # ``&`` rather than ``and``: u and v may be arrays of nodes.
        return (u0 <= u) & (u <= u1) & (v0 <= v) & (v <= v1)

    @cached_property
    def tangency_walk(self):
        """:func:`~tpcurves.tangent.compile_tangency_walk` of this patch,
        compiled on first use."""
        from .tangent import compile_tangency_walk  # tangent imports this
        return compile_tangency_walk(self)

    @cached_property
    def _programs(self):
        """Kind -> this patch's program of that kind, once compiled."""
        return {}

    @cached_property
    def _calls(self):
        """Kind -> a count of this patch's calls of that kind."""
        return {kind: count() for kind in _PROGRAMS}

    def _program(self, kind):
        """This patch's ``kind`` program (:data:`_PROGRAMS`), recorded by
        :func:`~tpcurves.jets.straight_line` on first use."""
        program = self._programs.get(kind)
        if program is None:
            build, params, ring, _ = _PROGRAMS[kind]
            program = self._programs[kind] = straight_line(
                partial(build, self.components), params, ring)
        return program

    def _run(self, kind, *args):
        """The coefficients of the ``kind`` build (:data:`_PROGRAMS`) at
        ``args``: from this patch's program of that kind once its calls of
        that kind pass the tier; below the tier, and where the program
        returns None, from the build on its ring under the program's error
        states (overflow and invalid pass, a division by zero raises),
        which raises the first failing node's error."""
        build, _, ring, tier = _PROGRAMS[kind]
        if next(self._calls[kind]) >= tier:
            out = self._program(kind)(*args)
            if out is not None:
                return out
        with np.errstate(over="ignore", invalid="ignore", divide="raise"):
            return build(self.components, ring, *args)

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
        return _surface_jet(u, v, _jets(self.components, Jet2, u, v))

    def jet_batch(self, u, v):
        """:meth:`jet` at every node of two equal-length 1-D arrays, in one
        pass of the tree walk over Jet2 arrays: the record kind's ring path
        for the component jets, kept as the record program's oracle.

        The result's ``u`` and ``v`` are the node arrays and its derivative
        arrays have shape (3, nodes); each node's column carries the bits
        :meth:`jet` gives there.  The component jets keep a float wherever
        a coefficient is the same at every node.  A node outside the domain,
        or one where :meth:`jet` would raise EvalError, raises that error.
        """
        u, v = self._nodes_inside(u, v)
        return _surface_jet(u, v, _jets(self.components, Jet2, u, v))

    def _record_batch(self, u, v):
        """The :class:`~tpcurves.forms.PointGeometry` at every node of two
        equal-length 1-D arrays, with the bits of :meth:`jet_batch`'s
        record, from the patch's record kind (:meth:`_run`), which raises
        the batch's error.
        """
        u, v = self._nodes_inside(u, v)
        out = self._run("record", u, v)
        comps = tuple(Jet2(*c) for c in out[:3])
        return PointGeometry._of(_surface_jet(u, v, comps),
                                 [Field2(*c) for c in out[3:]])

    def metric_batch(self, u, v):
        """E, F, G, E_u, E_v, F_u, F_v, G_u, G_v at every node of two
        arrays of nodes that broadcast together, in one pass: the patch's
        metric kind (:meth:`_run`), whose ring path is
        :func:`~tpcurves.forms.metric_coefficients` over Field2 arrays.

        Each is an array that broadcasts to the nodes' shape, or a float
        where it is the same at every node, with the bits of the
        coefficients of the E, F, G fields of a record over
        :meth:`jet_batch` (:class:`~tpcurves.forms.PointGeometry`) at each
        node; it needs second partials only.  On a grid's (m, 1) and
        (1, n) axes, a coefficient of u alone has shape (m, 1).  The first
        node outside the domain, or where :meth:`jet` would raise
        EvalError, in row-major order, raises that error.
        """
        return self._run("metric", *self._nodes_inside(u, v))


def _jets(components, jet2, u, v):
    """The component trees over ``jet2`` at (u, v)."""
    return _tree_walk(components, {"u": jet2(u, fu=1.0), "v": jet2(v, fv=1.0)},
                      jet2)


def _tree_walk(components, env, ring):
    """The trees over ``ring`` in ``env``, at a point or at arrays of nodes:
    the per-point evaluation, and the ring path of the record, ambient and
    velocity programs."""
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

    @cached_property
    def _hash(self):  # the dataclass's, its trees walked once
        return hash((self.name, self.u_component, self.v_component,
                     self.t_range, self.surface))

    def __hash__(self):
        return self._hash

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

        The path is tested at 129 equally spaced parameters, from t0 to t1
        exactly, in one batched :meth:`jet` pass, and passes if it leaves
        between two and comes back.  On a path affine in t the test is
        exact: the slack-widened domain is convex and the first and last
        samples are the path's ends.  The DomainError names the first
        failing ``t``.
        """
        ts = np.linspace(*self.t_range, _CHECK_SAMPLES)
        cj = self.jet(ts)
        bad = failing_node(np.logical_not(patch.contains(cj.u.f, cj.v.f)),
                           ts, cj.u.f, cj.v.f)
        if bad:
            raise DomainError(
                "curve '{}' leaves domain of '{}' at t={}: (u, v)=({}, {})"
                .format(self.name, patch.name, *bad))

    @cached_property
    def _passed(self):
        """The domains, as ``SurfacePatch._bounds``, this path has passed
        :meth:`check_on` on."""
        return set()

    def _check_once_on(self, patch):
        """:meth:`check_on`, skipped once the path has passed it on a patch
        with the same domain: the check reads nothing else of a patch.  A
        check that raises is not kept."""
        if patch._bounds not in self._passed:
            self.check_on(patch)
            self._passed.add(patch._bounds)


def parse_curve(u_text, v_text, t_range, name="curve", surface=None):
    return CurvePath(
        name=name,
        u_component=expr.parse_expression(u_text, ("t",)),
        v_component=expr.parse_expression(v_text, ("t",)),
        t_range=(float(t_range[0]), float(t_range[1])),
        surface=surface,
    )


def _curve_on(patch, curve, t):
    """``curve.jet(t)`` and its coefficients, u's then v's, as kept, with
    the first node off the patch domain raising DomainError: the prelude of
    :func:`ambient_jet` and :func:`ambient_velocity`."""
    cj = curve.jet(t)
    bad = failing_node(np.logical_not(patch.contains(cj.u.f, cj.v.f)),
                       cj.u.f, cj.v.f, t)
    if bad:
        raise DomainError("curve point ({}, {}) at t={} outside domain of "
                          "'{}'".format(*bad, patch.name))
    return cj, (*_coeffs(cj.u), *_coeffs(cj.v))


def ambient_jet(patch, curve, t):
    """Ambient position jet gamma(t) with t-derivatives through order 3.

    Evaluates the patch expressions over univariate jets of u(t), v(t);
    the chain rule is exact by construction.  ``t`` may be a 1-D array of
    nodes (see :meth:`CurvePath.jet`): the position and derivative arrays
    then have shape (3, nodes), each column with the bits of the float call
    at that node, and the first node off the patch domain raises.
    """
    cj, coeffs = _curve_on(patch, curve, t)
    comps = (tuple(Jet1(*c) for c in patch._run("ambient", *coeffs))
             if isinstance(t, np.ndarray)
             else _curve_walk(patch.components, Jet1, *coeffs))
    return cj, *(_stack(comps, attr, np.shape(t)) for attr in Jet1._names)


def ambient_velocity(patch, curve, t):
    """dgamma/dt at a 1-D array of nodes ``t``, as a (3, nodes) array: the
    rows ``ambient_jet(patch, curve, t)[2]``, with their bits, NaN where
    they are NaN, and the same error at the same node: the patch's
    velocity kind (:meth:`SurfacePatch._run`)."""
    out = patch._run("velocity", *_curve_on(patch, curve, t)[1])
    rows = np.empty((3, t.size))
    for i, x in enumerate(out):  # ZERO where u's or v's d1 passes through
        rows[i] = 0.0 if x is ZERO else x  # broadcasts a float
    return rows
