"""Surface patches and parameter curves backed by exact jet evaluation.

A :class:`SurfacePatch` is an analytic map (u, v) -> R^3 parsed from
expression text; :meth:`SurfacePatch.jet` returns all partial derivatives
through order 3 computed by forward-mode jets, with no finite differencing
anywhere, and :meth:`SurfacePatch.jet_order2` those through order 2 (the
tree walk behind the tracer's kernel, :attr:`SurfacePatch.tangency_kernel`,
straight-line code generated per patch on first use).  A
:class:`CurvePath` is a pair u(t), v(t) over one parameter.

Patches and paths are immutable after construction and all evaluation is
pure, so they are safe to use concurrently.  On Python 3.12 and later,
``cached_property`` takes no lock, so two threads may both compile a patch's
kernel on first use; both get the same code, so this is harmless.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import expr
from .errors import DomainError
from .forms import compile_tangency_kernel
from .jets import Field2, Jet1, Jet2

__all__ = ["SurfaceJet", "SurfacePatch", "CurveJet", "CurvePath",
           "parse_surface", "parse_curve"]

_DOMAIN_SLACK = 1e-9


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

    def _require_inside(self, u, v):
        if not self.contains(u, v):
            raise DomainError(
                f"({u}, {v}) outside domain "
                f"[{self.u_range[0]}, {self.u_range[1]}] x "
                f"[{self.v_range[0]}, {self.v_range[1]}] of '{self.name}'")

    def value(self, u, v):
        """Position only, evaluated over plain floats."""
        self._require_inside(u, v)
        env = {"u": float(u), "v": float(v)}
        return np.array([expr.evaluate(c, env, float) for c in self.components])

    def jet(self, u, v):
        """All partials through order 3 at (u, v)."""
        self._require_inside(u, v)
        env = {"u": Jet2.var_u(u), "v": Jet2.var_v(v)}
        comps = tuple(expr.evaluate(c, env, Jet2.const) for c in self.components)
        arr = lambda attr: np.array([getattr(c, attr) for c in comps])
        return _surface_jet(float(u), float(v), comps, arr)

    def jet_order2(self, u, v):
        """The three components at (u, v) as :class:`~tpcurves.jets.Field2`
        values: partials through order 2 only, with the bits of
        :meth:`jet`'s value, first and second partials."""
        self._require_inside(u, v)
        env = {"u": Field2(float(u), fu=1.0), "v": Field2(float(v), fv=1.0)}
        return tuple(expr.evaluate(c, env, Field2.const)
                     for c in self.components)

    def jet_batch(self, u, v):
        """:meth:`jet` at every node of two equal-length 1-D arrays, in one
        pass over the expression trees.

        The result's ``u`` and ``v`` are the node arrays and its derivative
        arrays have shape (3, nodes); each node's column carries the bits
        :meth:`jet` gives there.  The component jets keep a float wherever
        a coefficient is the same at every node.  A node outside the domain,
        or one where :meth:`jet` would raise EvalError, raises that error.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        inside = self.contains(u, v)
        if not inside.all():
            first = int(np.argmin(inside))
            self._require_inside(u[first], v[first])
        env = {"u": Jet2(u, fu=1.0), "v": Jet2(v, fv=1.0)}
        # Python floats overflow to inf and NaN without a word; so do these.
        with np.errstate(over="ignore", invalid="ignore"):
            comps = tuple(expr.evaluate(c, env, Jet2.const)
                          for c in self.components)

        def arr(attr):
            out = np.empty((3, len(u)))
            for row, c in zip(out, comps):
                row[...] = getattr(c, attr)  # broadcasts a float coefficient
            return out

        return _surface_jet(u, v, comps, arr)

    def text(self):
        return "(" + ", ".join(expr.to_text(c) for c in self.components) + ")"


def _surface_jet(u, v, comps, arr):
    """SurfaceJet of component jets; ``arr(attr)`` stacks one coefficient."""
    return SurfaceJet(
        u=u, v=v,
        value=arr("f"), du=arr("fu"), dv=arr("fv"),
        duu=arr("fuu"), duv=arr("fuv"), dvv=arr("fvv"),
        duuu=arr("fuuu"), duuv=arr("fuuv"), duvv=arr("fuvv"),
        dvvv=arr("fvvv"),
        components=comps,
    )


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
        if isinstance(t, np.ndarray):
            inside = (t0 - slack <= t) & (t <= t1 + slack)
            if inside.all():
                return
            t = t[np.argmin(inside)]  # the first failing node
        if not (t0 - slack <= t <= t1 + slack):
            raise DomainError(f"t={t} outside [{t0}, {t1}] of curve '{self.name}'")

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
            env = {"t": Jet1.var(t)}
            return CurveJet(
                t=float(t),
                u=expr.evaluate(self.u_component, env, Jet1.const),
                v=expr.evaluate(self.v_component, env, Jet1.const),
            )
        env = {"t": Jet1(t, d1=1.0)}
        # Python floats overflow to inf and NaN without a word; so do these.
        with np.errstate(over="ignore", invalid="ignore"):
            return CurveJet(
                t=t,
                u=expr.evaluate(self.u_component, env, Jet1.const),
                v=expr.evaluate(self.v_component, env, Jet1.const),
            )

    def check_on(self, patch, samples=129):
        """Verify that the path stays inside the patch domain.

        An affine path (:func:`~tpcurves.expr.is_affine`) with finite ends
        inside passes: it runs along a segment of a convex set.  Others are
        tested at ``samples`` equally spaced parameters, endpoints included,
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
        ts = np.array([t0 + (t1 - t0) * i / (samples - 1)
                       for i in range(samples)])
        cj = self.jet(ts)
        u = np.broadcast_to(cj.u.f, ts.shape)
        v = np.broadcast_to(cj.v.f, ts.shape)
        inside = patch.contains(u, v)
        if not inside.all():
            i = int(np.argmin(inside))
            raise DomainError(
                f"curve '{self.name}' leaves domain of '{patch.name}' "
                f"at t={ts[i]}: (u, v)=({u[i]}, {v[i]})")


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
    if not isinstance(t, np.ndarray):
        if not patch.contains(cj.u.f, cj.v.f):
            raise DomainError(
                f"curve point ({cj.u.f}, {cj.v.f}) at t={t} outside domain "
                f"of '{patch.name}'")
        env = {"u": cj.u, "v": cj.v}
        comps = tuple(expr.evaluate(c, env, Jet1.const)
                      for c in patch.components)
        gamma = np.array([c.f for c in comps])
        d1 = np.array([c.d1 for c in comps])
        d2 = np.array([c.d2 for c in comps])
        d3 = np.array([c.d3 for c in comps])
        return cj, gamma, d1, d2, d3

    u = np.broadcast_to(cj.u.f, t.shape)
    v = np.broadcast_to(cj.v.f, t.shape)
    inside = patch.contains(u, v)
    if not inside.all():
        i = int(np.argmin(inside))
        raise DomainError(
            f"curve point ({u[i]}, {v[i]}) at t={t[i]} outside domain "
            f"of '{patch.name}'")
    env = {"u": cj.u, "v": cj.v}
    with np.errstate(over="ignore", invalid="ignore"):
        comps = tuple(expr.evaluate(c, env, Jet1.const)
                      for c in patch.components)

    def arr(attr):
        out = np.empty((3, len(t)))
        for row, c in zip(out, comps):
            row[...] = getattr(c, attr)  # broadcasts a float coefficient
        return out

    return cj, arr("f"), arr("d1"), arr("d2"), arr("d3")
