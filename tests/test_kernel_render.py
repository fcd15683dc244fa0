"""The tracer's walk with single-use values written in place, against
the one-operation-per-line program it replaced.

``jets._render`` writes each value used exactly once into its use.  The
oracle is the earlier renderer: one named statement per recorded
operation.  Both render the same recorded lines of g and its gradient, the
walk's body, so the two walks must give the same bits (NaN, of any bits, at
the same places), and give way to the record at the same points.
"""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tangency_kernel import _trees, walk_kernel
from test_tangency_kernel import bits as value_bits

import tpcurves.tangent
from tpcurves import jets, parse_surface, point_geometry, tangency_gradient
from tpcurves.expr import Binary, Const, Unary, Var
from tpcurves.surface import SurfacePatch
from tpcurves.tangent import compile_tangency_walk


def one_op_per_line(lines, leaves):
    """The earlier renderer: every value and every guard a statement."""
    return [f"if {template.format(*operands)}: raise ArithmeticError"
            if name is None else f"{name} = {template.format(*operands)}"
            for name, template, operands in lines]


def kernels(patch):
    """The walk's body as compiled (:func:`walk_kernel`), and as the oracle
    renders the same record."""
    inlined = walk_kernel(patch)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tpcurves.tangent, "_render", one_op_per_line)
        oracle = walk_kernel(patch)
    return inlined, oracle


def patch_of(*components):
    return SurfacePatch(name="patch", components=components,
                        u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))


def bits(out):
    """The walk's result as bytes, any NaN as one (``value_bits``), or
    None."""
    if out is None:
        return None
    g, g_u, g_v, point = out
    return value_bits(g, g_u, g_v, *point)


def test_builtin_surfaces_match_the_oracle(scene):
    rng = random.Random(20261019)
    for name, patch in scene.surfaces.items():
        (u0, u1), (v0, v1) = patch.u_range, patch.v_range
        # Past the domain too, where the body may give way: the walks'
        # domain test is the widened patch's.
        inlined, oracle = kernels(dataclasses.replace(
            patch, u_range=(u0 - 1.0, u1 + 1.0), v_range=(v0 - 1.0, v1 + 1.0)))
        for _ in range(400):
            u = rng.uniform(u0 - 0.5, u1 + 0.5)
            v = rng.uniform(v0 - 0.5, v1 + 0.5)
            assert bits(inlined(u, v)) == bits(oracle(u, v)), (name, u, v)
        for u, v in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
            assert bits(inlined(u, v)) == bits(oracle(u, v)), (name, u, v)


def _signed_trees():
    """``_trees`` (``/``, integer and non-integer ``^``) combined with
    signed-zero constants, which must stay two values in the program."""
    zeros = st.sampled_from([Const(0.0), Const(-0.0)])
    return st.recursive(
        zeros | _trees(),
        lambda children: (
            st.builds(Binary, st.sampled_from("+-*/"), children, children)
            | st.builds(Unary, st.just("neg"), children)),
        max_leaves=4)


POINTS = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])


@given(st.tuples(_signed_trees(), _signed_trees(), _signed_trees()),
       POINTS, POINTS)
@settings(max_examples=200, deadline=None)
def test_random_trees_match_the_oracle(components, u, v):
    inlined, oracle = kernels(patch_of(*components))
    assert bits(inlined(u, v)) == bits(oracle(u, v))


@given(_signed_trees(), POINTS, POINTS)
@settings(max_examples=200, deadline=None)
def test_random_graphs_match_the_oracle(height, u, v):
    # A graph (u, v, h) is regular everywhere: the programs reach g
    # wherever h evaluates.
    inlined, oracle = kernels(patch_of(Var("u"), Var("v"), height))
    assert bits(inlined(u, v)) == bits(oracle(u, v))


# z a sum of 300 terms: each partial sum is used once, by the next sum.
LONG_SUM = "(u, v, " + " + ".join(
    f"{k / 1000}*u*v" for k in range(1, 301)) + ")"


def test_long_sum_stays_within_the_nesting_limit(monkeypatch):
    patch = parse_surface(LONG_SUM, (-1.0, 1.0), (-1.0, 1.0), name="long")
    inlined, oracle = kernels(patch)
    for u, v in ((0.3, -0.7), (-0.25, 0.5), (0.0, 0.0)):
        out = inlined(u, v)
        assert out is not None  # the program, not its fallback
        assert tangency_gradient(patch, u, v) == out
        geom = point_geometry(patch, u, v)
        want = struct.pack("<6d", geom.g.f, geom.g.fu, geom.g.fv,
                           *geom.jet.value.tolist())
        assert bits(out) == want
        assert bits(oracle(u, v)) == want
    # Without the depth cap the chain nests past the tokenizer's limit.
    monkeypatch.setattr(jets, "_MAX_DEPTH", 10**6)
    with pytest.raises(SyntaxError, match="too many nested parentheses"):
        compile_tangency_walk(patch)
