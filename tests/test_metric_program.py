"""The registration sweep's order-2 metric program against the order-3 path
it replaced.

``SurfacePatch.metric_batch`` runs one straight-line array program per
patch, recorded over Field2 from ``forms.metric_coefficients``: the
component trees over Field2, their first partials as Field1 values and E,
F, G over those, the sequence the tracer's walk is recorded from too.
Its oracle is the order-3 path: the coefficients of :func:`metric_fields`
over ``jet_batch``.  Each coefficient must have that path's bits at every
node and stay a float where it keeps a float; a sweep with a failing node
must raise that path's error, type and text, and a degenerate node must be
skipped as that path skipped it.
"""

import ast
import hashlib
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_program import (MIXED, POSITIVE, outcome, patch_of, raised,
                                same_bits)
from test_tangency_kernel import _trees

from tpcurves import cli, expr, jets, parse_surface
from tpcurves.errors import DomainError, EvalError
from tpcurves.forms import _tangency_fields
from tpcurves.isometry import INTRINSIC, register_pair
from tpcurves.jets import Field2, dot3
from tpcurves.surface import _PROGRAMS, SurfacePatch


def metric_fields(jet):
    """E, F, G and the partials phi_u, phi_v they come from, as order-2
    fields (value, gradient, Hessian)."""
    pu = [Field2.of_jet_du(c) for c in jet.components]
    pv = [Field2.of_jet_dv(c) for c in jet.components]
    return dot3(pu, pu), dot3(pu, pv), dot3(pv, pv), pu, pv


def order3(patch, u, v):
    """The metric coefficients as sweeps took them before: ``metric_fields``
    over the order-3 ``jet_batch``, which takes 1-D arrays, at the nodes of
    ``u`` and ``v`` broadcast together and flattened; arrays come back in
    the nodes' shape."""
    u, v = np.broadcast_arrays(u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        E, F, G, _, _ = metric_fields(patch.jet_batch(u.ravel(), v.ravel()))
    return tuple(x if isinstance(x, float) else x.reshape(u.shape)
                 for x in (E.f, F.f, G.f, E.fu, E.fv, F.fu, F.fv, G.fu, G.fv))


def assert_same(got, want):
    """Equal types, and equal bits at every node
    (:func:`~test_batch_program.same_bits`)."""
    assert len(got) == len(want) == 9
    for i, (a, b) in enumerate(zip(got, want)):
        assert type(a) is type(b), i
        assert same_bits(a, b), i


def grid(patch, m=30, n=40):
    """An m x n grid of nodes, the domain's edges included."""
    us = np.repeat(np.linspace(*patch.u_range, m), n)
    vs = np.tile(np.linspace(*patch.v_range, n), m)
    return us, vs


def test_builtin_surfaces_match_the_order3_path(scene, monkeypatch):
    walked = []
    evaluate = expr.evaluate

    def counted(*args):
        walked.append(args)
        return evaluate(*args)

    for name, patch in scene.surfaces.items():
        us, vs = grid(patch)
        assert patch._program("metric")(us, vs) is not None, name  # no fallback
        with monkeypatch.context() as m:
            m.setattr(expr, "evaluate", counted)
            got = patch.metric_batch(us, vs)
        assert walked == [], name  # the program ran, not the tree walk
        assert_same(got, order3(patch, us, vs))


@pytest.mark.parametrize("text", ["(u, v, 0)", "(u + v, u - v, 3)",
                                  "(v, 0.5, -u)"])
def test_a_constant_metric_comes_back_as_floats(text):
    patch = parse_surface(text, (-1.0, 2.0), (-3.0, 1.0))
    us, vs = grid(patch, 5, 7)
    got = patch.metric_batch(us, vs)
    assert all(type(x) is float for x in got)
    assert_same(got, order3(patch, us, vs))


def test_a_nan_constant_the_results_use_keeps_the_sweeps_program():
    # inf - inf, a NaN constant that the results use: the program gives
    # NaN where the order-3 path does.
    patch = parse_surface("(u, v, u * (1e200 * 1e200 - 1e200 * 1e200))",
                          (-3, 3), (-3, 3))
    u, v = POSITIVE
    out, want = patch._program("metric")(u, v), order3(patch, u, v)
    assert any(np.isnan(x).all() for x in want)
    assert out is not None
    assert_same(out, want)
    assert_same(patch.metric_batch(u, v), want)


@given(st.lists(_trees(), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_metric_batch_matches_the_order3_path_on_random_trees(components):
    patch = patch_of(components)
    program = patch._program("metric")
    for u, v in (POSITIVE, MIXED):
        got = outcome(lambda: patch.metric_batch(u, v))
        want = outcome(lambda: order3(patch, u, v))
        if raised(want):
            assert got == want  # the same error
            assert program(u, v) is None
        else:
            # The program gives way at no node where the walk gives values.
            assert program(u, v) is not None
            assert_same(got, want)


# Each batch has one failing node, the third.
FAILING = {
    "outside the domain": (
        "u", (-1.0, 1.0), 1.5, DomainError,
        "(1.5, 0.5) outside domain [-1.0, 1.0] x [-1.0, 1.0] of 'surface'"),
    "log across its singularity": (
        "log(u)", (-2.0, 2.0), -0.5, EvalError,
        "log of non-positive value -0.5"),
    "a pole at u = 0.5": (
        "1/(u - 0.5)", (-2.0, 2.0), 0.5, EvalError, "division by zero"),
    # The recording raises: the program gives way at every node.
    "a constant that raises": (
        "log(0 - 1)", (-2.0, 2.0), 0.5, EvalError,
        "log of non-positive value -1.0"),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_a_failing_node_raises_the_order3_error(case):
    z, domain, bad, error, text = FAILING[case]
    patch = parse_surface(f"(u, v, {z})", domain, (-1.0, 1.0))
    u = np.array([0.75, 0.25, bad, 0.3])
    v = np.full(4, 0.5)
    assert outcome(lambda: order3(patch, u, v)) == (error, text)
    assert outcome(lambda: patch.metric_batch(u, v)) == (error, text)
    if error is not DomainError:  # the program gave way to the tree walk
        assert patch._program("metric")(u, v) is None


SINGULAR_SCENE = """
[surface a]
components = (u, v, {z})
u_range = -1, 1
v_range = -1, 1

[surface b]
components = (v, u, {z})
u_range = -1, 1
v_range = -1, 1

[pair p]
source = a
target = b
kind = intrinsic
"""


@pytest.mark.parametrize("z,err", [
    ("log(u)", "error: log of non-positive value -1.0\n"),
    ("1/(u - 0.5)", "error: division by zero\n"),  # a node at u = 0.5
    ("log(u + 2)", ""),
])
def test_a_config_pair_reports_as_the_order3_path(tmp_path, capsys,
                                                  monkeypatch, z, err):
    path = tmp_path / "scene.ini"
    path.write_text(SINGULAR_SCENE.format(z=z))
    argv = ["isometry", "p", "--config", str(path), "--grid", "9x5"]
    code = cli.main(argv)
    new = capsys.readouterr()
    assert (code, new.err) == (1 if err else 0, err)
    monkeypatch.setattr(SurfacePatch, "metric_batch", order3)
    assert cli.main(argv) == code
    assert capsys.readouterr() == new


DEGENERATE = {
    # The cone's apex at u = 0 and the sphere's poles at u = 0 and pi.
    "apex": ("(u*cos(v), u*sin(v), u)", "(u*cos(v + 0.3), u*sin(v + 0.3), u)",
             (0.0, 1.0), 20),
    "poles": ("(sin(u)*cos(v), sin(u)*sin(v), cos(u))",
              "(sin(u)*cos(v - 1), sin(u)*sin(v - 1), cos(u))",
              (0.0, math.pi), 40),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_nodes_are_skipped_as_the_order3_path_skips_them(
        monkeypatch, case):
    source, target, u_range, skipped = DEGENERATE[case]
    source = parse_surface(source, u_range, (0.0, 6.0), name="source")
    target = parse_surface(target, u_range, (0.0, 6.0), name="target")
    new = register_pair(source, target, INTRINSIC).metric
    assert new.skipped == skipped
    monkeypatch.setattr(SurfacePatch, "metric_batch", order3)
    old = register_pair(source, target, INTRINSIC).metric
    assert new.skipped == old.skipped
    assert {k: x.hex() for k, x in new.residuals.items()} == \
        {k: x.hex() for k, x in old.residuals.items()}


def kernel_source(components):
    """The source the float tangency kernel had before the tracer's walk
    took its body: g, its gradient and the point
    (``forms._tangency_fields``) recorded and rendered as the walk's body
    is, each guard returning None, in a function of (u, v) that returns
    None where ``math`` or a division raises."""
    lines, leaves, out = jets._record(partial(_tangency_fields, components),
                                      ("u", "v"), Field2)
    body = [line.replace(": raise ArithmeticError", ": return None")
            for line in jets._render(lines, leaves)] + ["return " + out]
    return "\n".join(["def program(u, v):", "    try:",
                      *("        " + line for line in body),
                      "    except (ArithmeticError, ValueError):",
                      "        return None"])


# sha256 of the rendered tangency kernel of each built-in patch, taken
# again when the kernel lost its NaN test (a NaN result is returned as it
# is, not left to the tree walk); each source lost that one line only.
# Taken again when the recording began to number values through IEEE
# 754's exact identities (a sum's or product's operands in one order, a
# negated operand taken into a sum or difference or hoisted out of a
# product or quotient, -(-a) as a, and a negation recorded where it is
# first read): the sources are shorter and name their values in another
# order, with the same bits (the plane's, which has none of these, is
# unchanged).
# The walk's body is that kernel's, each guard raising ArithmeticError.
KERNEL_SOURCE = {
    "plane":
        "f8439e610b77aae5c9cf3fd623d56df6e73590570ae0d760840e071c3daed6f7",
    "cone":
        "fc2ce21e4c04363a69e79f1a460aba693e9c6090b249d04940dec94bf51b7f10",
    "sphere":
        "9a6628659fb2e2073cf394669f6fb292aa2e1131ca19658ecdf66e92a7453666",
    "offset_sphere":
        "d7ddb049fe2d395aeb69add09274873779414a67e71466254ee60d0470fba19f",
    "offset_sphere_rot":
        "9a3a922ae374e20b2c7b33952a6ba67a3e08994c806b75a21b4849ac8c487a70",
    "catenoid":
        "89fb47acd00450f7544c350f2b5f843b4c268e88036639ddc47e3ff2f0437aa2",
    "helicoid":
        "30d6c4ed16b09963293b141aed37b56057d7e646774f44fb129bf5c49559bb79",
    "cylinder":
        "37bafbe6a6b39e892f98459dc4cf844b5659a019fdaab6b9d084eccda657e926",
    "paraboloid":
        "99c57667efb2ce2389d239d02e27bec3ef3fbc5572695231c6721ee9d9f18bc8",
}


def test_the_tangency_kernel_source_is_unchanged(scene):
    for name, digest in KERNEL_SOURCE.items():
        source = kernel_source(scene.surface(name).components)
        assert hashlib.sha256(source.encode()).hexdigest() == digest, name


def rendered_operations(body):
    """The arithmetic of rendered statements: each + - * / and negation (a
    negative literal is a constant); calls and guards are not counted."""
    tree = ast.parse("\n".join(body))
    return sum(isinstance(n, ast.BinOp) or isinstance(n, ast.UnaryOp)
               and not isinstance(n.operand, ast.Constant)
               for n in ast.walk(tree))


# The operations each kind of program renders over the 9 built-in patches
# ("walk" is the tracer's walk's body).  With operands kept as recorded
# they were 941, 4,284, 551, 76 and 371; a change that loses one of the
# recording's exact identities shows here as a larger count.
OPERATIONS = {"walk": 686, "record": 3377, "ambient": 519, "velocity": 68,
              "metric": 253}


def test_each_kind_renders_its_pinned_operation_count(scene):
    builds = {"walk": (_tangency_fields, ("u", "v"), Field2),
              **{kind: entry[:3] for kind, entry in _PROGRAMS.items()}}
    counts = dict.fromkeys(builds, 0)
    for patch in scene.surfaces.values():
        for kind, (build, params, ring) in builds.items():
            lines, leaves, _ = jets._record(
                partial(build, patch.components), params, ring)
            counts[kind] += rendered_operations(jets._render(lines, leaves))
    assert counts == OPERATIONS
