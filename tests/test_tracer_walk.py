"""The tracer's walk, one generated program per patch, against the plain
Python loop it replaced.

``SurfacePatch.tangency_walk`` holds the seed correction, the vertex loop
and the resampling, with the recorded body of g inline.  Its oracle
is ``test_tracer_oracle.oracle_trace``: the loop as it was, driven by a
corrector that builds a record at every iterate, with no generated
program.  Both must give the same status, vertices and residuals bit for
bit (NaN, of any bits, at the same places), the same samples, and the same
error, type and text, on random surfaces and on planted ones that reach
each way a walk ends.
"""

import builtins
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_metric_program import kernel_source
from test_tangency_kernel import _trees
from test_tracer_oracle import (ELLIPSOID, jet_point, newton_over,
                                oracle_trace)

import tpcurves.tangent
from tpcurves import parse_surface, trace_tangent_curve
from tpcurves.errors import (DegeneratePoint, EvalError, GeometryError,
                             SingularLocus)
from tpcurves.expr import Var, parse_expression
from tpcurves.scene import BUILTIN_SCENE_TEXT, load_scene_text
from tpcurves.surface import SurfacePatch


def bits(xs):
    """The bits of the floats ``xs``, every NaN as ``math.nan``."""
    xs = [math.nan if x != x else x for x in xs]
    return struct.pack(f"<{len(xs)}d", *xs)


def outcome(trace):
    """What a trace gives, to compare: status, vertices, residuals and
    samples as bits, or the type and message of the error it raises."""
    try:
        t = trace()
    except GeometryError as exc:
        return type(exc), str(exc)
    return (t.status, t.closed, bits(t.vertices.ravel().tolist()),
            bits(t.residuals.tolist()), bits([t.arc_length]),
            *(bits(getattr(t.samples, k).tolist()) for k in "suv"))


def both(patch, seed, h, max_steps=4000, resample=20):
    """The walk's outcome and the oracle's."""
    return (outcome(lambda: trace_tangent_curve(
                patch, seed, h=h, max_steps=max_steps, resample=resample)),
            outcome(lambda: oracle_trace(
                patch, seed, h, newton_over(jet_point), max_steps=max_steps,
                resample=resample)))


SEEDS = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
STEPS = st.sampled_from([0.05, 0.3, 1.0])


@given(st.tuples(_trees(), _trees(), _trees()), SEEDS, STEPS)
@settings(max_examples=100, deadline=None)
def test_walk_matches_the_oracle_on_random_trees(components, seed, h):
    patch = SurfacePatch(name="random", components=components,
                         u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))
    walk, oracle = both(patch, seed, h, max_steps=60)
    assert walk == oracle


@given(_trees(), SEEDS, STEPS)
# A drawn example, kept: the seed corrects to u = 2.1e-20, where g's Hessian
# is -inf, and the walk runs to its step cap.  Each resampled sample's v''
# is 0 times an infinite derivative of the tangent field, NaN, of which
# numpy warned (an error here) before _locus_sample took the resampling's
# error states.
@example(parse_expression("u^-3 * u^-3", ("u", "v")), (0.5, 0.0), 0.05)
@settings(max_examples=100, deadline=None)
def test_walk_matches_the_oracle_on_random_graphs(height, seed, h):
    # A graph (u, v, h) is regular everywhere, so more walks get going.
    patch = SurfacePatch(name="graph", components=(Var("u"), Var("v"), height),
                         u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))
    walk, oracle = both(patch, seed, h, max_steps=60)
    assert walk == oracle


# Each way a walk ends, planted: (components, u_range, seed, h, max_steps,
# what the walk gives).  On (u, v, exp(v)) the locus is the line v = 1,
# walked in +u; the off-axis ellipsoid's first step is in +u too.
PLANTED = {
    # The guard fires at a predictor point: EG - F^2 vanishes at u = 1.
    "guard": ("((u - 1)^3, v, exp(v))", (-3.0, 3.0), (0.5, 1.0), 0.01,
              4000, (DegeneratePoint,
                     "EG - F^2 = 2.9365438652144785e-60 at (u, v) = "
                     "(1.0000000000000004, 1.0)")),
    # math raises at a predictor point: log(1 - u) past u = 1.
    "eval": ("(u + 0*log(1 - u), v, exp(v))", (-3.0, 3.0), (0.5, 1.0),
             0.01, 4000, (EvalError,
                          "log of non-positive value -4.440892098500626e-16")),
    "predictor_exit": (ELLIPSOID, (0.05, 2.1875), (2.0, -1.0), 0.05, 4000,
                       "domain_exit"),
    "iterate_exit": (ELLIPSOID, (0.05, 2.18756), (2.0, -1.0), 0.05, 4000,
                     "domain_exit"),
    # Newton on the double zeros of sin(v)^2 gains a bit per step.
    "stalled": ("(u, v, sin(v)^2 / (1 + u^(-18))^0.5)", (-3.0, 3.0),
                (-1.6133468714632335, -1.864915388458234), 0.6, 4000,
                "corrector_stalled"),
    # The locus u v = 0 crosses itself at the origin, where grad g = 0.
    "vanishing_gradient": ("(u, v, u*v)", (-3.0, 3.0), (-0.5, 0.0), 0.01,
                           4000, (SingularLocus,
                                  "gradient vanished during trace")),
    "max_steps": ("(u, v, exp(v))", (-3.0, 3.0), (0.5, 1.0), 0.01, 7,
                  "max_steps"),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_walk_matches_the_oracle_where_it_ends(case):
    text, u_range, seed, h, max_steps, ends = PLANTED[case]
    patch = parse_surface(text, u_range, (-10.0, 10.0), name=case)
    walk, oracle = both(patch, seed, h, max_steps=max_steps)
    assert walk == oracle
    assert (walk[0] if isinstance(ends, str) else walk) == ends
    if case.endswith("_exit"):
        # Which corrections leave the domain: after the seed's, the step's
        # at a Newton iterate, or none where the predictor leaves first.
        left, corrector = [], newton_over(jet_point)

        def correct(*args):
            out = corrector(*args)
            left.append(out[2] is None)
            return out

        oracle_trace(patch, seed, h, correct, resample=0)
        assert left == ([False, True] if case == "iterate_exit" else [False])


def test_a_trace_compiles_the_walk_once_and_no_kernel(monkeypatch):
    compiled = []
    compile_walk = tpcurves.tangent.compile_tangency_walk
    monkeypatch.setattr(tpcurves.tangent, "compile_tangency_walk",
                        lambda p: compiled.append("walk") or compile_walk(p))
    # A fresh scene, as a fresh process loads it.
    patch = load_scene_text(BUILTIN_SCENE_TEXT, "<builtin>").surface(
        "offset_sphere")
    traced = trace_tangent_curve(patch, (2.0, 0.0))
    assert traced.status == "closed" and compiled == ["walk"]
    trace_tangent_curve(patch, (2.1, 0.5))
    assert compiled == ["walk"]


def test_a_walk_whose_recording_fails_gives_way_everywhere():
    # log(0 - 1) fails at every point: the walk's body is its fallback.
    patch = parse_surface("(u, v, log(0 - 1))", (0, 1), (0, 1))
    assert "raise ArithmeticError\n" in _source(patch)
    walk, oracle = both(patch, (0.5, 0.5), 0.01)
    assert walk == oracle == (EvalError, "log of non-positive value -1.0")


def _source(patch):
    """The walk program's source as compiled for ``patch``."""
    sources = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tpcurves.tangent, "exec", raising=False,
                  value=lambda source, scope: sources.append(source)
                  or builtins.exec(source, scope))
        tpcurves.tangent.compile_tangency_walk(patch)
    return sources[0]


def test_the_walk_holds_the_kernels_body(scene):
    """Each statement of the pinned kernel's program
    (``test_metric_program.kernel_source``) is in the walk's, the guards
    handing the iterate on instead of returning None."""
    for name, patch in scene.surfaces.items():
        source = kernel_source(patch.components)
        body = [line.strip() for line in source.splitlines()[2:-3]]
        walk = {line.strip() for line in _source(patch).splitlines()}
        for line in body:
            guard = line.replace(": return None", ": raise ArithmeticError")
            assert guard in walk, (name, line)
