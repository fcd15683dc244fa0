"""The order-2 tangency residual of the tracer's walk against the full
per-point record.

``tangency_gradient``, the walk's corrector with no Newton step, must give
``PointGeometry.g``'s value and gradient bit for bit (:func:`bits`), and
equal the record's formula evaluated over Field1; the tree walk over
Field2 (:func:`order2`) must give the low-order coefficients of
``SurfacePatch.jet``, and each jet ring those of the next; where one side
raises EvalError or DegeneratePoint, the other raises the same error.  A
patch's record program at a point must give every coefficient of the
one-point record bit for bit, and return None exactly where the record
raises.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expr import _ast_strategy

from tpcurves import expr, parse_surface, point_geometry, tangency_gradient
from tpcurves.errors import DegeneratePoint, DomainError, EvalError
from tpcurves.expr import Binary, Const, Var
from tpcurves.forms import REGULARITY_THRESHOLD
from tpcurves.jets import Field1, Field2, Jet2, cross3, dot3
from tpcurves.surface import _PROGRAMS, SurfacePatch
from tpcurves.tangent import compile_tangency_walk

ORDER2 = ("f", "fu", "fv", "fuu", "fuv", "fvv")


def bits(*xs):
    """The bits of ``xs``, every NaN as ``math.nan``: values that are not
    NaN compare strictly (-0.0 is not 0.0), NaN sits at the same places,
    and any NaN equals any NaN, since which NaN an operation gives is
    unspecified."""
    return struct.pack(f"<{len(xs)}d",
                       *(math.nan if x != x else x for x in xs))


def outcome(fn):
    """``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except (EvalError, DegeneratePoint) as exc:
        return type(exc), str(exc)


def order2(patch, u, v):
    """The three components at (u, v) over Field2: the order-2 tree walk
    that the tracer's walk records."""
    env = {"u": Field2(float(u), fu=1.0), "v": Field2(float(v), fv=1.0)}
    return tuple(expr.evaluate(c, env, Field2.const)
                 for c in patch.components)


class _GaveWay(Exception):
    pass


def _give_way(*args):
    raise _GaveWay


def walk_kernel(patch):
    """A fresh walk of ``patch`` as a kernel: ``(u, v) -> (g, g_u, g_v,
    point)`` from its recorded body alone (the corrector with no Newton
    step), or None where the body gives way to the record: its guard
    fires, ``math`` raises, or the recording raised.  Off the domain the
    walk raises DomainError."""
    walk = compile_tangency_walk(patch)
    walk.__globals__["_record_gradient"] = _give_way  # its own scope

    def kernel(u, v):
        try:
            return walk(patch, u, v, 0, 0.0)[2]
        except _GaveWay:
            return None
    return kernel


def record_g(patch, u, v):
    g = point_geometry(patch, u, v).g
    return bits(g.f, g.fu, g.fv)


def coefficient_bits(*values):
    """The bits of every coefficient of the ring values, read by name."""
    return bits(*(getattr(x, k) for x in values for k in x._names))


def record_bits(patch, u, v):
    """The one-point record's component jets and fields, in the record
    program's order."""
    geom = point_geometry(patch, u, v)
    fields = (getattr(geom, k) for k in
              ("E", "F", "G", "det", "area", "g", "lam", "mu"))
    return coefficient_bits(*geom.jet.components, *fields)


def g_hessian(patch, u, v):
    """g and its partials through order 2 at (u, v), as the tracer's seed
    reads them: from the patch's record kind."""
    g = Field2(*patch._run("record", u, v)[8])
    return [getattr(g, k) for k in ORDER2]


def kernel_g(patch, u, v):
    g, g_u, g_v, _ = tangency_gradient(patch, u, v)
    return bits(g, g_u, g_v)


def field1_g(patch, u, v):
    """The record's formula for g, evaluated over Field1."""
    phi = order2(patch, u, v)
    p = [c.lower() for c in phi]
    pu = [c.du() for c in phi]
    pv = [c.dv() for c in phi]
    E, F, G = dot3(pu, pu), dot3(pu, pv), dot3(pv, pv)
    det = E * G - F * F
    if det.f <= REGULARITY_THRESHOLD:
        raise DegeneratePoint(
            f"EG - F^2 = {det.f} at (u, v) = ({float(u)}, {float(v)})")
    g = dot3(p, cross3(pu, pv)) / det.sqrt()
    return bits(g.f, g.fu, g.fv)


def _trees():
    """Expression trees with ``/``, integer and non-integer ``^``.  Half
    the non-integer powers take a base 1 + t*t, positive wherever t is
    finite, so that most of them evaluate."""
    noninteger = st.builds(Const, st.sampled_from([-1.5, -0.5, 0.5, 2.5]))

    def positive(t):
        return Binary("+", Const(1.0), Binary("*", t, t))

    return st.recursive(
        _ast_strategy(),
        lambda children: st.one_of(
            st.builds(Binary, st.just("^"),
                      children | children.map(positive), noninteger),
            st.builds(Binary, st.sampled_from("*/"), children, children)),
        max_leaves=3)


def test_kernel_matches_record_on_builtin_surfaces(scene):
    rng = random.Random(20261018)
    for name, patch in scene.surfaces.items():
        for _ in range(150):
            u = rng.uniform(*patch.u_range)
            v = rng.uniform(*patch.v_range)
            assert outcome(lambda: kernel_g(patch, u, v)) == \
                outcome(lambda: record_g(patch, u, v)), (name, u, v)
            # No built-in surface uses / or ^ other than u^2, so the
            # walk's point is SurfacePatch.value's, bit for bit.
            point = tangency_gradient(patch, u, v)[3]
            assert bits(*point) == bits(*patch.value(u, v)), (name, u, v)


@given(st.tuples(_trees(), _trees(), _trees()),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_record_on_random_trees(components, u, v):
    patch = SurfacePatch(name="random", components=components,
                         u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))
    assert outcome(lambda: kernel_g(patch, u, v)) == \
        outcome(lambda: record_g(patch, u, v))


@given(_trees(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_record_on_random_graphs(height, u, v):
    # A graph (u, v, h) is regular everywhere, so the comparison reaches g
    # wherever h evaluates.
    patch = SurfacePatch(name="graph", components=(Var("u"), Var("v"), height),
                         u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))
    assert outcome(lambda: kernel_g(patch, u, v)) == \
        outcome(lambda: record_g(patch, u, v))


@given(_trees(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_field2_is_jet2_truncated(tree, u, v):
    def over(ring, env):
        value = expr.evaluate(tree, env, ring.const)
        return bits(*(getattr(value, k) for k in ORDER2))

    assert outcome(lambda: over(Field2, {"u": Field2(u, fu=1.0),
                                         "v": Field2(v, fv=1.0)})) == \
        outcome(lambda: over(Jet2, {"u": Jet2(u, fu=1.0),
                                    "v": Jet2(v, fv=1.0)}))


@given(_trees(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_field1_is_field2_truncated(tree, u, v):
    """With test_field2_is_jet2_truncated: each ring is the next one
    truncated, on trees with /, integer and non-integer ^."""
    def over(ring):
        env = {"u": ring(u, fu=1.0), "v": ring(v, fv=1.0)}
        value = expr.evaluate(tree, env, ring.const)
        return bits(value.f, value.fu, value.fv)

    assert outcome(lambda: over(Field1)) == outcome(lambda: over(Field2))


@given(st.one_of(st.tuples(_trees(), _trees(), _trees()),
                 _trees().map(lambda h: (Var("u"), Var("v"), h))),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_record_program_matches_one_point_record_on_random_trees(
        components, u, v):
    # Graphs (u, v, h) are regular everywhere, so the comparison reaches
    # the record's fields wherever h evaluates.
    patch = SurfacePatch(name="random", components=components,
                         u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))
    got = patch._program("record")(u, v)
    want = outcome(lambda: record_bits(patch, u, v))
    if isinstance(want, bytes):
        assert got is not None
        assert coefficient_bits(*(Jet2(*c) for c in got[:3]),
                                *(Field2(*c) for c in got[3:])) == want
    else:
        assert got is None


def _doubled(patch):
    """``patch`` with phi scaled by 2."""
    return SurfacePatch(
        name=patch.name, u_range=patch.u_range, v_range=patch.v_range,
        components=tuple(Binary("*", Const(2.0), c)
                         for c in patch.components))


@pytest.mark.parametrize("tier", [0, math.inf])
def test_hessian_doubles_with_phi(scene, monkeypatch, tier):
    """With phi scaled by 2, E, F, G scale by 4 and the triple product by
    8, so g and each of its partials double: exactly, barring overflow and
    underflow, since a power of 2 scales every coefficient without
    rounding.  From the record kind, as the tracer's seed reads it: the
    record program (tier 0) and the record build on the rings (tier
    inf)."""
    monkeypatch.setitem(_PROGRAMS, "record", (*_PROGRAMS["record"][:3], tier))
    rng = random.Random(20261020)
    for name, patch in scene.surfaces.items():
        double = _doubled(patch)
        for _ in range(40):
            u = rng.uniform(*patch.u_range)
            v = rng.uniform(*patch.v_range)
            once = g_hessian(patch, u, v)
            assert bits(*g_hessian(double, u, v)) == \
                bits(*(2.0 * x for x in once)), (name, u, v)


def test_kernel_is_field1_evaluation(scene):
    rng = random.Random(7)
    for name, patch in scene.surfaces.items():
        for _ in range(250):
            u = rng.uniform(*patch.u_range)
            v = rng.uniform(*patch.v_range)
            assert outcome(lambda: kernel_g(patch, u, v)) == \
                outcome(lambda: field1_g(patch, u, v)), (name, u, v)


def test_jet_order2_matches_jet(scene):
    patch = scene.surface("catenoid")
    jet = patch.jet(1.3, -0.4)
    for c, full in zip(order2(patch, 1.3, -0.4), jet.components):
        assert bits(*(getattr(c, k) for k in ORDER2)) == \
            bits(*(getattr(full, k) for k in ORDER2))


def test_kernel_errors_match_record():
    line = parse_surface("(u, 0, 0)", (0, 1), (0, 1), name="line")
    assert walk_kernel(line)(0.5, 0.5) is None  # the guard gives way
    assert outcome(lambda: kernel_g(line, 0.5, 0.5)) == \
        outcome(lambda: record_g(line, 0.5, 0.5))
    assert outcome(lambda: kernel_g(line, 0.5, 0.5))[0] is DegeneratePoint
    with pytest.raises(DomainError):
        tangency_gradient(line, 1.5, 0.5)
    # The recording raises: the walk's body gives way to the record
    # everywhere.
    broken = parse_surface("(u, v, log(0 - 1))", (0, 1), (0, 1))
    assert walk_kernel(broken)(0.5, 0.5) is None
    assert outcome(lambda: kernel_g(broken, 0.5, 0.5)) == \
        outcome(lambda: record_g(broken, 0.5, 0.5)) == \
        (EvalError, "log of non-positive value -1.0")
