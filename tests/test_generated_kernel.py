"""The recorded body of g in the tracer's walk: signed-zero constants,
shared singular subtrees, and when walks are compiled.

``tangency_gradient`` runs the corrector of a straight-line program
compiled per patch (``SurfacePatch.tangency_walk``) with no Newton step;
the tree walk (``order2``, ``point_geometry``) is its oracle and its error
path.
"""

import math
import struct

import pytest
from test_batch_compile import count_compiles
from test_tangency_kernel import order2, walk_kernel

from tpcurves import point_geometry, tangency_gradient, trace_tangent_curve
from tpcurves.errors import DegeneratePoint, EvalError
from tpcurves.expr import Binary, Const, Unary, Var
from tpcurves.scene import BUILTIN_SCENE_TEXT, load_scene_text
from tpcurves.surface import _PROGRAMS, SurfacePatch


def bits(*xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def outcome(fn):
    """``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except (EvalError, DegeneratePoint) as exc:
        return type(exc), str(exc)


def patch_of(*components):
    return SurfacePatch(name="patch", components=components,
                        u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))


def test_signed_zero_constants_keep_their_bits():
    # Const(0.0) == Const(-0.0), but -0.0 + 0.0 is 0.0 and -0.0 + -0.0 is
    # -0.0: the two constants must stay two values in the walk.
    patch = patch_of(Binary("+", Var("u"), Const(0.0)), Var("v"),
                     Binary("+", Var("u"), Const(-0.0)))
    kernel = walk_kernel(patch)
    for u, v in ((-0.0, 0.5), (-0.0, -0.0), (0.0, -1.25)):
        out = kernel(u, v)
        assert out is not None  # the program, not its fallback
        g = point_geometry(patch, u, v).g
        assert bits(*out[:3]) == bits(g.f, g.fu, g.fv)
        assert bits(*out[3]) == bits(*(c.f for c in order2(patch, u, v)))
        assert bits(*out[3]) == bits(u + 0.0, v, u + -0.0)
        assert tangency_gradient(patch, u, v) == out


def test_shared_singular_subtree_raises_the_tree_walks_first_error():
    shared = Unary("log", Binary("-", Var("u"), Const(1.0)))
    patch = patch_of(Binary("*", Var("v"), shared),
                     Binary("+", Unary("sqrt", Var("u")), shared),
                     shared)
    kernel = walk_kernel(patch)
    for u in (0.5, -0.5, 1.0):
        assert kernel(u, 0.25) is None
        got = outcome(lambda: tangency_gradient(patch, u, 0.25))
        assert got == outcome(lambda: point_geometry(patch, u, 0.25))
        assert got == outcome(lambda: order2(patch, u, 0.25))
        assert got[0] is EvalError
    # Where it evaluates, the shared log is computed once.
    calls = []
    scope = patch.tangency_walk.__globals__
    log = scope["log"]
    scope["log"] = lambda w: calls.append(w) or log(w)
    try:
        out = tangency_gradient(patch, 2.5, 0.25)
    finally:
        scope["log"] = log
    assert calls == [1.5]
    g = point_geometry(patch, 2.5, 0.25).g
    assert bits(*out[:3]) == bits(g.f, g.fu, g.fv)


@pytest.fixture
def compiled(monkeypatch):
    """(kind, components) of every program compiled: the walk ("walk"),
    and the record, metric and ambient array programs."""
    return count_compiles(monkeypatch, "walk", *_PROGRAMS)


def test_kernel_is_compiled_on_first_use_and_once(compiled):
    # A fresh load: the shared built-in scene may have compiled walks.
    scene = load_scene_text(BUILTIN_SCENE_TEXT, "<builtin>")
    assert compiled == []
    patch = scene.surface("catenoid")
    for k in range(50):
        tangency_gradient(patch, 0.1 * k, 0.02 * k - 0.5)
    assert compiled == [("walk", patch.components)]
    assert math.isfinite(
        tangency_gradient(scene.surface("helicoid"), 1.0, 0.1)[0])
    assert len(compiled) == 2


def test_tangency_gradient_compiles_the_walk_alone(compiled):
    """g at a point compiles the patch's walk and no other program, and a
    trace on that patch then compiles nothing."""
    patch = load_scene_text(BUILTIN_SCENE_TEXT, "<builtin>").surface(
        "offset_sphere")
    tangency_gradient(patch, 2.0, 0.0)
    assert compiled == [("walk", patch.components)]
    assert trace_tangent_curve(patch, (2.0, 0.0)).status == "closed"
    assert compiled == [("walk", patch.components)]
