"""Batched jets as generated array programs, against the tree walk.

A patch's record program gives the component jets of a batched record, and
the batched ``ambient_jet`` runs straight-line array code recorded per
patch over the coefficients of a curve's jets u(t), v(t); the tree walk
over Jet2 and Jet1 arrays (``SurfacePatch.jet_batch`` is the former) is
their oracle and their error path.  Each coefficient must have the tree
walk's bits at every node (NaN, of any bits, at the same nodes) and stay a
float where the tree walk keeps a float; a batch with a failing node
raises the tree walk's error, type and text.  ``test_record_program.py``
checks the record program's fields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tangency_kernel import _trees

from tpcurves import expr, parse_curve, parse_surface
from tpcurves.errors import DomainError, EvalError
from tpcurves.jets import ZERO, Jet1, Jet2
from tpcurves.surface import SurfacePatch, ambient_jet


def tree_walk(patch, u, v):
    """The component jets of a batched record, walking the trees over
    Jet2."""
    env = {"u": Jet2(u, fu=1.0), "v": Jet2(v, fv=1.0)}
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(expr.evaluate(c, env, Jet2.const)
                     for c in patch.components)


def curve_coeffs(curve, t):
    """The arguments of a patch's ambient program: the coefficients of the
    curve's jets u(t), v(t)."""
    cj = curve.jet(t)
    return [getattr(jet, name) for jet in (cj.u, cj.v)
            for name in Jet1.__slots__]


def ambient_tree_walk(patch, curve, t):
    """u(t), v(t) and the component jets of the batched ``ambient_jet``,
    walking the trees over Jet1."""
    cj = curve.jet(t)
    env = {"u": cj.u, "v": cj.v}
    with np.errstate(over="ignore", invalid="ignore"):
        return (cj.u, cj.v, *(expr.evaluate(c, env, Jet1.const)
                              for c in patch.components))


def outcome(fn):
    """``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except (EvalError, DomainError) as exc:
        return type(exc), str(exc)


def raised(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def program_output(program, args):
    """``program(*args)``, which must give jets where the tree walk gave
    jets: no guard gives way at nodes the tree walk took."""
    out = program(*args)
    assert out is not None
    return out


def same_bits(x, y):
    """Arrays or floats ``x`` and ``y`` with NaN at the same nodes and the
    same bits at every other node, so -0.0 is not 0.0; any NaN equals any
    NaN, since which NaN an operation gives is unspecified."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return np.array_equal(np.isnan(x), np.isnan(y)) and \
        np.where(np.isnan(x), 0.0, x).view(np.int64).tolist() == \
        np.where(np.isnan(y), 0.0, y).view(np.int64).tolist()


def assert_same_coeffs(got, want):
    """Equal coefficient types, absent (``ZERO``) at the same places, and
    equal bits at every node (:func:`same_bits`)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in type(b).__slots__:
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y), name
            assert y is ZERO or same_bits(x, y), name


def test_ambient_jet_has_the_tree_walks_bits_on_builtin_curves(scene):
    for name, curve in scene.curves.items():
        patch = scene.surface(curve.surface)
        t = np.linspace(*curve.t_range, 240)
        out = patch._program("ambient")(*curve_coeffs(curve, t))
        assert out is not None, name  # no fallback
        cj, gamma, d1, d2, d3 = ambient_jet(patch, curve, t)
        want = ambient_tree_walk(patch, curve, t)
        assert_same_coeffs((cj.u, cj.v), want[:2])
        rows = np.stack([np.broadcast_to(getattr(c, k), t.shape)
                         for k in ("f", "d1", "d2", "d3") for c in want[2:]])
        assert same_bits(rows, np.concatenate([gamma, d1, d2, d3])), name
        assert_same_coeffs([Jet1(*c) for c in out], want[2:])


# Nodes at which most trees evaluate, and nodes at which many fail.
POSITIVE = (np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 0.75]),
            np.array([1.0, 0.5, 2.0, 0.25, 3.0, 1.25, 0.5, 2.75]))
MIXED = (np.array([-2.0, -0.5, 0.0, -0.0, 0.5, 1.0, 2.5, -1.25]),
         np.array([0.0, 1.0, -1.5, 2.0, -0.0, -2.5, 0.25, 1.75]))


def patch_of(components):
    return SurfacePatch(name="patch", components=tuple(components),
                        u_range=(-3.0, 3.0), v_range=(-3.0, 3.0))


def test_a_nan_constant_the_results_use_keeps_the_program():
    # inf - inf, a NaN constant that the results use: the program gives
    # NaN where the tree walk does.
    patch = parse_surface("(u, v, u * (1e200 * 1e200 - 1e200 * 1e200))",
                          (-3, 3), (-3, 3))
    u, v = POSITIVE
    want = tree_walk(patch, u, v)
    assert np.isnan(want[2].fu).all()
    out = program_output(patch._program("record"), (u, v))
    assert_same_coeffs([Jet2(*c) for c in out[:3]], want)
    assert_same_coeffs(patch.jet_batch(u, v).components, want)


@given(st.lists(_trees(), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_ambient_jet_matches_the_tree_walk_on_random_trees(components):
    patch = patch_of(components)
    curve = parse_curve("0.5 + t", "1.5 - t*t/2", (-1.0, 1.5))
    t = np.linspace(-1.0, 1.5, 11)
    want = outcome(lambda: ambient_tree_walk(patch, curve, t))
    program = patch._program("ambient")
    if raised(want):
        assert program(*curve_coeffs(curve, t)) is None
        assert outcome(lambda: ambient_jet(patch, curve, t)) == want
    else:
        out = program_output(program, curve_coeffs(curve, t))
        assert_same_coeffs([Jet1(*c) for c in out], want[2:])


# Each batch has one failing node, the third; the texts are those the
# tree walk raised before batched jets ran generated programs.
FAILING = {
    "outside the domain": (
        "u", 1.5, DomainError,
        "(1.5, 0.5) outside domain [-1.0, 1.0] x [-1.0, 1.0] of 'surface'",
        "curve point (1.5, 0.5) at t=1.5 outside domain of 'surface'"),
    "log of a non-positive value": (
        "log(u)", -0.5, EvalError, "log of non-positive value -0.5", None),
    "sqrt(0)": (
        "sqrt(u)", 0.0, EvalError, "sqrt of non-positive value 0.0", None),
    "division by zero": ("1/u", 0.0, EvalError, "division by zero", None),
    "exp(1000) overflow": (
        "exp(u)", 1000.0, EvalError, "exp at 1000.0: math range error", None),
    "non-integer power of a negative number": (
        "u^1.5", -0.5, EvalError,
        "-0.5 ** 1.5 undefined for non-integer exponent", None),
    # A constant subtree that raises: the recording raises, and the
    # program gives way to the tree walk at every node.
    "a constant that raises": (
        "log(0 - 1)", 0.75, EvalError, "log of non-positive value -1.0", None),
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_a_failing_node_raises_the_tree_walks_error(case):
    z, bad, error, text, curve_text = FAILING[case]
    domain = (-1.0, 1.0) if error is DomainError else (-2000.0, 2000.0)
    patch = parse_surface(f"(u, v, {z})", domain, (-1.0, 1.0))
    u = np.array([0.5, 0.25, bad, 0.3])
    with pytest.raises(error) as caught:
        patch.jet_batch(u, np.full(4, 0.5))
    assert str(caught.value) == text
    curve = parse_curve("t", "0.5", (-3000.0, 3000.0))
    with pytest.raises(error) as caught:
        ambient_jet(patch, curve, u)
    assert str(caught.value) == (curve_text or text)
    if error is not DomainError:  # the programs gave way to the tree walk
        assert patch._program("record")(u, np.full(4, 0.5)) is None
        assert patch._program("ambient")(*curve_coeffs(curve, u)) is None


def test_a_failing_curve_node_raises_the_tree_walks_error():
    patch = parse_surface("(u, v, u*v)", (-2000.0, 2000.0), (-1.0, 1.0))
    t = np.array([0.5, 0.25, -0.5, 0.3])
    with pytest.raises(EvalError, match=r"^log of non-positive value -0\.5$"):
        ambient_jet(patch, parse_curve("log(t)", "0.5", (-9.0, 9.0)), t)
    t[2] = 1.5
    with pytest.raises(DomainError) as caught:
        ambient_jet(patch, parse_curve("t", "0.5", (-1.0, 1.0)), t)
    assert str(caught.value) == "t=1.5 outside [-1.0, 1.0] of curve 'curve'"


def test_a_nan_constant_no_result_uses_keeps_the_program():
    # u / 5e-324 has NaN constant coefficients (inf * 0.0), which ^ 0
    # drops: no result is NaN, so the patch keeps its program.
    patch = parse_surface("(u, v, (u / 5e-324) ^ 0)", (-3, 3), (-3, 3))
    u, v = POSITIVE
    want = tree_walk(patch, u, v)
    out = program_output(patch._program("record"), (u, v))  # no fallback
    assert_same_coeffs([Jet2(*c) for c in out[:3]], want)
    assert_same_coeffs(patch.jet_batch(u, v).components, want)
