"""The registration sweep's order-2 metric program against the order-3 path
it replaced.

``SurfacePatch.metric_batch`` runs one straight-line array program per
patch, recorded over Field2 by ``forms.compile_metric_program``: the
component trees over Field2, their first partials as Field1 values and E,
F, G over those, the sequence the tracer's kernel is recorded from too.
Its oracle is the order-3 path: the coefficients of ``metric_fields`` over
``jet_batch``.  Each coefficient must have that path's bits at every node
and stay a float where it keeps a float; a sweep with a failing node must
raise that path's error, type and text, and a degenerate node must be
skipped as that path skipped it.
"""

import builtins
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_program import MIXED, POSITIVE, outcome, patch_of, raised
from test_tangency_kernel import _trees

from tpcurves import cli, expr, jets, parse_surface
from tpcurves.errors import DomainError, EvalError
from tpcurves.forms import compile_tangency_kernel, metric_fields
from tpcurves.isometry import INTRINSIC, register_pair
from tpcurves.surface import SurfacePatch


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


def assert_same(got, want, nan_bits=True):
    """Equal types, and equal bits at every node (NaN only at the same
    nodes, when ``nan_bits`` is false)."""
    assert len(got) == len(want) == 9
    for i, (a, b) in enumerate(zip(got, want)):
        assert type(a) is type(b), i
        a, b = np.asarray(a), np.asarray(b)
        if not nan_bits:
            assert np.array_equal(np.isnan(a), np.isnan(b)), i
            a, b = np.where(np.isnan(a), 0.0, a), np.where(np.isnan(b), 0.0, b)
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist(), i


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
        assert patch._metric_program is not None, name
        assert patch._metric_program(us, vs) is not None, name  # no fallback
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


def test_a_nan_constant_leaves_the_sweep_to_the_field2_walk():
    # inf - inf, a NaN constant that the results use: the patch gets no
    # program.
    patch = parse_surface("(u, v, u * (1e200 * 1e200 - 1e200 * 1e200))",
                          (-3, 3), (-3, 3))
    assert patch._metric_program is None
    u, v = POSITIVE
    got, want = patch.metric_batch(u, v), order3(patch, u, v)
    assert any(np.isnan(x).all() for x in want)
    # Which NaN a float operation on two NaNs gives depends on CPython's
    # specialization state, so NaN bits are not compared.
    assert_same(got, want, nan_bits=False)


@given(st.lists(_trees(), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_metric_batch_matches_the_order3_path_on_random_trees(components):
    patch = patch_of(components)
    program = patch._metric_program
    for u, v in (POSITIVE, MIXED):
        got = outcome(lambda: patch.metric_batch(u, v))
        want = outcome(lambda: order3(patch, u, v))
        if raised(want):
            assert got == want  # the same error
            assert program is None or program(u, v) is None
        else:
            # The program gives way at no node where the walk gives values.
            assert program is None or program(u, v) is not None
            assert_same(got, want, nan_bits=False)


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
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_a_failing_node_raises_the_order3_error(case):
    z, domain, bad, error, text = FAILING[case]
    patch = parse_surface(f"(u, v, {z})", domain, (-1.0, 1.0))
    u = np.array([0.75, 0.25, bad, 0.3])
    v = np.full(4, 0.5)
    assert outcome(lambda: order3(patch, u, v)) == (error, text)
    assert outcome(lambda: patch.metric_batch(u, v)) == (error, text)


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


# sha256 of the rendered tangency kernel of each built-in patch, taken
# again when structural zeros left the programs (absent coefficients and
# unread pure arithmetic are not written).
KERNEL_SOURCE = {
    "plane":
        "bec40f08d9f57b0456afbadc5d97f97a571b696b51b70d0a4571668c61d26a17",
    "cone":
        "cc6c39c6f741536be496cfe8d192165faf080f5d4f26b37683412a6d451ed777",
    "sphere":
        "27215d16932bf02b36c4be122233904ef09a8cf64f21998a2d5d38236ffae83a",
    "offset_sphere":
        "0d512b73a6648bb340f665964aad4e60efe609a18f09d8d491520ee52ed879af",
    "offset_sphere_rot":
        "46f2385804b62eceb18ddba16a1cb7ddb6c1155966d941c299982336e628bde1",
    "catenoid":
        "035fcec5c85c84eb021550002d9197cbc7101dc5fc3ba7408999f360e3dafa96",
    "helicoid":
        "1325c39723573fc4f3912886aba051fc2f3edbb35173eeb808f1c262b96dd2ff",
    "cylinder":
        "3fb4900cb2a9eed5b1ce2553f4ded6a70d202a0abbb78c49089ffae5c673b450",
    "paraboloid":
        "254864c1c68b0c1deb6af1dd9776e528ecb484aae48b3ef7001d45a9953be443",
}


def test_the_tangency_kernel_source_is_unchanged(scene, monkeypatch):
    sources = []

    def recorded(source, scope):
        sources.append(source)
        return builtins.exec(source, scope)

    monkeypatch.setattr(jets, "exec", recorded, raising=False)
    for name, digest in KERNEL_SOURCE.items():
        compile_tangency_kernel(scene.surface(name).components)
        assert hashlib.sha256(sources[-1].encode()).hexdigest() == digest, \
            name
