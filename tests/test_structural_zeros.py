"""Structural zeros: a jet coefficient that is zero by construction is
absent (``jets.ZERO``), not 0.0.

A variable's other partials, a constant's partials and all that only they
feed are absent, so no tree walk and no generated program computes with
them.  Before, the 36 built-in programs (9 surfaces x metric, kernel, jet
and ambient) had 223, 312, 444 and 23 operations with a literal 0.0
operand or a factor 1.0; the record program, which gives a batched
record's jets and fields, has taken the jet program's place, and the
tracer's walk, which holds the kernel's body, the kernel's.  The tree
walk and every program kind skip the same terms, so they change together:
an absent partial times inf is 0.0 where ``0.0 * inf`` was NaN, and
``-0.0`` plus an absent term stays ``-0.0`` where ``-0.0 + 0.0`` was
``0.0``.  Absence never leaves the rings: every coefficient read from
outside is a float or an array.
"""

import ast

import numpy as np
import pytest
from test_batch_program import same_bits
from test_tangency_kernel import walk_kernel

from tpcurves import jets, parse_curve, parse_surface
from tpcurves.errors import EvalError
import tpcurves.tangent
from tpcurves.forms import (metric_coefficients, point_geometry,
                            tangency_gradient)
from tpcurves.jets import ZERO, Field2
from tpcurves.surface import _PROGRAMS, SurfacePatch, ambient_jet
from tpcurves.tangent import compile_tangency_walk


def compile_program(kind, components):
    """The walk ("walk") or a ``_PROGRAMS`` kind of a fresh patch."""
    patch = SurfacePatch(name="fresh", components=components,
                         u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))
    if kind == "walk":
        return compile_tangency_walk(patch)
    return patch._program(kind)


KINDS = ("walk", *_PROGRAMS)
U = np.array([0.5, 1.25, 2.0])
V = np.array([0.75, -0.5, 1.5])
T = np.array([0.25, 0.5, 0.75])
ALONG_V = parse_curve("0.5", "t", (-1.0, 1.0))  # u = 0.5, v = t


def recordings(components, monkeypatch):
    """(kind, recorded lines, leaves, rendered statements) of each program
    of the component trees."""
    seen, render = [], jets._render

    def spy(lines, leaves):
        seen.append((lines, leaves, render(lines, leaves)))
        return seen[-1][2]

    with monkeypatch.context() as m:
        m.setattr(jets, "_render", spy)
        m.setattr(tpcurves.tangent, "_render", spy)
        for kind in KINDS:
            assert compile_program(kind, components) is not None, kind
    return [(kind, *recording) for kind, recording in zip(KINDS, seen)]


def test_no_program_computes_with_a_structural_zero(scene, monkeypatch):
    for name, patch in scene.surfaces.items():
        for kind, lines, _, _ in recordings(patch.components, monkeypatch):
            # Guards compare with 0.0, reciprocals divide 1.0, and a
            # surface's own constant 1.0 may be added: those are values.
            for out, template, operands in lines:
                if out is None or template not in jets._PURE:
                    continue
                assert not {"0.0", "-0.0"} & set(operands), (name, kind)
                assert template != "{} * {}" or "1.0" not in operands, \
                    (name, kind, operands)


def test_no_program_keeps_a_value_that_nothing_reads(scene, monkeypatch):
    # A pure + - * value (no call, no division) that no statement reads and
    # that is no result: pruned, or the top of a pruned chain, is named.
    for name, patch in scene.surfaces.items():
        for kind, _, leaves, body in recordings(patch.components,
                                                monkeypatch):
            tree = ast.parse("\n".join(
                ["def program():", *("    " + x for x in body), "    return"]))
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and not any(
                        isinstance(n, (ast.Call, ast.Div))
                        for n in ast.walk(node.value)):
                    target = node.targets[0].id
                    assert target in read or target in leaves, \
                        (name, kind, target)


def bits(x):
    return np.asarray(x, float).view(np.int64).tolist()


def flat(out):
    """A (g, g_u, g_v, point) of the walk as one tuple of floats."""
    return (*out[:3], *out[3])


def test_an_absent_partial_times_inf_is_zero(monkeypatch):
    # The v-partial of z = u * inf sums u_v * inf and u * (inf)_v, both
    # absent: 0.0, where 0.0 * inf + u * 0.0 was NaN.  E_v and F are sums
    # of it.
    patch = parse_surface("(u, v, u * (1e200 * 1e200))", (-3, 3), (-3, 3))
    assert bits(patch.jet(0.5, 0.75).dv[2]) == 0
    assert bits(patch.jet_batch(U, V).dv[2]) == [0, 0, 0]
    monkeypatch.setitem(_PROGRAMS, "record", (*_PROGRAMS["record"][:3], 0))
    assert patch._program("record")(U, V) is not None
    assert bits(point_geometry(patch, U, V).jet.dv[2]) == [0, 0, 0]
    assert patch._program("ambient") is not None
    assert bits(ambient_jet(patch, ALONG_V, T)[2][2]) == [0, 0, 0]
    assert patch._program("metric") is not None
    E, F, G, E_u, E_v, F_u, F_v, G_u, G_v = patch.metric_batch(U, V)
    assert np.isinf(E) and G == 1.0
    assert bits([F, E_v, F_u, F_v, G_u, G_v]) == [0] * 6
    # g = p . (p_u x p_v) / area is inf - inf: the walk's body gives NaN
    # where the record does, and g_v is the absent partial's 0.0.
    got = walk_kernel(patch)(0.5, 0.75)
    geom = point_geometry(patch, 0.5, 0.75)
    want = geom.g.f, geom.g.fu, geom.g.fv, tuple(geom.jet.value.tolist())
    assert same_bits(flat(got), flat(want))
    assert np.isnan(got[0]) and np.isnan(got[1]) and bits(got[2]) == 0


NEGATIVE_ZERO = bits(-0.0)


def test_minus_zero_plus_an_absent_term_stays_minus_zero(monkeypatch):
    # z = u - 0*v: its v-partial is absent + -(0.0 * 1.0), -0.0, where
    # 0.0 + -0.0 was 0.0.  F = phi_u . phi_v ends in 1.0 * -0.0.
    patch = parse_surface("(u, v, u - 0*v)", (-3, 3), (-3, 3))
    assert bits(patch.jet(0.5, 0.75).dv[2]) == NEGATIVE_ZERO
    assert bits(patch.jet_batch(U, V).dv[2]) == [NEGATIVE_ZERO] * 3
    monkeypatch.setitem(_PROGRAMS, "record", (*_PROGRAMS["record"][:3], 0))
    assert patch._program("record")(U, V) is not None
    assert bits(point_geometry(patch, U, V).jet.dv[2]) == [NEGATIVE_ZERO] * 3
    assert patch._program("ambient") is not None
    assert bits(ambient_jet(patch, ALONG_V, T)[2][2]) == [NEGATIVE_ZERO] * 3
    assert patch._program("metric") is not None
    assert bits(patch.metric_batch(U, V)[1]) == NEGATIVE_ZERO
    assert bits(point_geometry(patch, 0.5, 0.75).F.f) == NEGATIVE_ZERO
    # The plane (-u, v, 0): p . (p_u x p_v) = -u * absent + v * absent
    # + 0.0 * -1.0, so g is -0.0 in the walk and in the record.
    plane = parse_surface("(-u, v, 0)", (-3, 3), (-3, 3))
    out = walk_kernel(plane)(0.5, 0.75)
    assert out is not None
    assert bits(out[0]) == NEGATIVE_ZERO
    assert bits(point_geometry(plane, 0.5, 0.75).g.f) == NEGATIVE_ZERO


def test_a_dead_overflowing_math_call_still_raises(monkeypatch):
    # Over Field2 (the metric program and the walk) nothing reads the
    # third derivative of u^1.5, p (p-1) (p-2) pow(u, -1.5); at u = 1e-300
    # that pow overflows, and the tree walk raises there.  The product is
    # pruned, the call is kept, and the program gives way to the tree walk.
    patch = parse_surface("(u, v, u^1.5)", (0.0, 1.0), (0.0, 1.0))
    for kind, lines, leaves, body in recordings(patch.components,
                                                monkeypatch):
        if kind in ("metric", "walk"):
            dead_pow, = [x for x, t, ops in lines
                         if t == "pow({}, {})" and ops[1] == "-1.5"]
            assert dead_pow not in jets._live(lines, leaves), kind
            assert any(line.startswith(f"{dead_pow} = pow(")
                       for line in body), kind
    u, v = np.array([0.5, 1e-300, 0.25]), np.full(3, 0.5)
    with pytest.raises(EvalError) as want:
        metric_coefficients(patch.components, Field2, u, v)
    assert str(want.value) == "x ** 1.5 at 1e-300: math range error"
    assert patch._program("metric")(u, v) is None
    with pytest.raises(EvalError, match=r"^x \*\* 1\.5 at 1e-300: math "):
        patch.metric_batch(u, v)
    assert walk_kernel(patch)(1e-300, 0.5) is None
    with pytest.raises(EvalError, match=r"^x \*\* 1\.5 at 1e-300: math "):
        tangency_gradient(patch, 1e-300, 0.5)


def coefficient_values(x):
    """Every coefficient of ``x`` that callers read: a ring's by name, or
    a tuple's or a record's fields, recursively."""
    if isinstance(x, jets._Taylor):
        return [getattr(x, name) for name in type(x)._names]
    if isinstance(x, (tuple, list)):
        return [c for y in x for c in coefficient_values(y)]
    if hasattr(x, "__dataclass_fields__"):
        return coefficient_values([getattr(x, k)
                                   for k in x.__dataclass_fields__])
    return [x]


def assert_no_sentinel(*values):
    for x in coefficient_values(list(values)):
        assert isinstance(x, (float, np.ndarray)), type(x)


def test_the_sentinel_never_escapes(scene, monkeypatch):
    for name, patch in scene.surfaces.items():
        u0, u1 = patch.u_range
        v0, v1 = patch.v_range
        u = np.linspace(u0, u1, 5)[1:-1]
        v = np.linspace(v0, v1, 5)[1:-1]
        for tier in (1000, 0):  # the ring path, then the record program
            monkeypatch.setitem(_PROGRAMS, "record",
                                (*_PROGRAMS["record"][:3], tier))
            for jet in (patch.jet(u[0], v[0]), patch.jet_batch(u, v)):
                geom = point_geometry(patch, jet.u, jet.v)
                assert_no_sentinel(geom.jet, geom.E, geom.F, geom.G,
                                   geom.det, geom.area, geom.g, geom.lam,
                                   geom.mu, geom.chris, geom.second)
        assert_no_sentinel(patch.metric_batch(u, v))
        assert_no_sentinel(tangency_gradient(patch, u[0], v[0]))
    for name, curve in scene.curves.items():
        patch = scene.surface(curve.surface)
        t0, t1 = curve.t_range
        for t in ((t0 + t1) / 2, np.linspace(t0, t1, 4)):
            assert_no_sentinel(curve.jet(t), ambient_jet(patch, curve, t))
    # The plane's F = phi_u . phi_v is absent, and reads as 0.0.
    F = point_geometry(scene.surface("plane"), 0.5, 0.5).F
    assert F._f is ZERO and bits(F.f) == 0
