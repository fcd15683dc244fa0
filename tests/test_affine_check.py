"""`CurvePath.check_on`: one sampled pass for every path, exact on affine
paths, with the messages it has always given.

A path built from constants and ``t`` by ``neg``, ``+``, ``-`` and ``*`` or
``/`` by a constant maps [t0, t1] onto a segment; the slack-widened domain
is convex, so a segment whose ends lie inside it lies inside, and the
129-point pass, whose first and last samples are the ends, decides it as
its two ends do.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpcurves import builtin_scene, expr, parse_curve
from tpcurves.errors import DomainError, EvalError
from tpcurves.expr import Binary, Const, Unary, Var
from tpcurves.surface import CurvePath, parse_surface

SQUARE = parse_surface("u, v, 0", (0, 1), (-1, 2), name="square")


def test_every_builtin_path_sampled_in_one_pass(monkeypatch):
    scene = builtin_scene()
    calls = []
    jet = CurvePath.jet
    monkeypatch.setattr(CurvePath, "jet",
                        lambda self, t: calls.append(t) or jet(self, t))
    assert len(scene.curves) == 9
    for name in scene.curves:
        patch, curve = scene.curve_host(name)
        calls.clear()
        curve.check_on(patch)
        assert [len(t) for t in calls] == [129], name


@pytest.mark.parametrize("u, v, t_range, message", [
    ("t", "0.5", (-0.5, 0.5),
     "at t=-0.5: (u, v)=(-0.5, 0.5)"),
    ("t", "0.5", (0.5, 1.5),
     "at t=1.0078125: (u, v)=(1.0078125, 0.5)"),
    ("0.25", "-t", (-0.5, 1.5),
     "at t=1.015625: (u, v)=(0.25, -1.015625)"),
    ("0.25", "2*t + 1", (-0.5, 0.75),
     "at t=0.505859375: (u, v)=(0.25, 2.01171875)"),
    ("1 - t", "(t - 3)/2", (0, 2),
     "at t=0.0: (u, v)=(1.0, -1.5)"),
])
def test_affine_path_leaving_domain_keeps_message(u, v, t_range, message):
    path = parse_curve(u, v, t_range, name="path")
    with pytest.raises(DomainError) as info:
        path.check_on(SQUARE)
    assert str(info.value) == \
        "curve 'path' leaves domain of 'square' " + message


@pytest.mark.parametrize("u, v", [("t/0", "0"), ("0.5", "-t/0 + 1")])
def test_affine_division_by_zero_keeps_error(u, v):
    with pytest.raises(EvalError, match="^division by zero$"):
        parse_curve(u, v, (0, 1), name="path").check_on(SQUARE)


def test_affine_path_with_inverted_range_keeps_message():
    path = parse_curve("t", "0.5", (0.8, 0.2), name="path")
    with pytest.raises(DomainError) as info:
        path.check_on(SQUARE)
    assert str(info.value) == "t=0.8 outside [0.8, 0.2] of curve 'path'"


_SMALL = st.integers(-6, 6).map(lambda k: Const(k / 2))


def _affine_trees():
    return st.recursive(
        st.just(Var("t")) | _SMALL,
        lambda sub: (sub.map(lambda a: Unary("neg", a))
                     | st.tuples(st.sampled_from("+-"), sub, sub)
                     .map(lambda p: Binary(*p))
                     | st.tuples(sub, _SMALL).map(lambda p: Binary("*", *p))
                     | st.tuples(_SMALL, sub).map(lambda p: Binary("*", *p))
                     | st.tuples(sub, _SMALL).map(lambda p: Binary("/", *p))),
        max_leaves=6)


def _outcome(path):
    try:
        path.check_on(SQUARE)
    except (DomainError, EvalError) as exc:
        return type(exc), str(exc)
    return None


def _convex_outcome(path):
    """The outcome by convexity alone: with t0 <= t1, pass exactly where
    both ends, evaluated as floats, are finite and inside the square;
    ``/`` by a zero constant is an EvalError wherever it is met."""
    t0, t1 = path.t_range
    if t0 > t1:
        return DomainError, f"t={t0} outside [{t0}, {t1}] of curve 'path'"
    try:
        ends = [expr.evaluate(c, {"t": t}, float)
                for t in (t0, t1) for c in (path.u_component,
                                            path.v_component)]
    except EvalError as exc:
        return EvalError, str(exc)
    if all(map(math.isfinite, ends)) and \
            SQUARE.contains(*ends[:2]) and SQUARE.contains(*ends[2:]):
        return None
    return DomainError


# Paths that leave the square at one end only, 2**-20 past its edge:
# the pass decides them by its first or its last sample alone.
_PAST = Const(1 + 2.0 ** -20)


@given(_affine_trees(), _affine_trees(),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
@example(Binary("*", Var("t"), _PAST), Const(0.5), (0, 4))
@example(Binary("-", _PAST, Var("t")), Const(0.5), (0, 4))
@settings(max_examples=300, deadline=None)
def test_endpoint_check_matches_sampled_check(u, v, ends):
    """The sampled pass passes an affine path exactly where its two ends
    are finite and inside, raises DomainError elsewhere, and keeps the
    inverted-range and division-by-zero texts."""
    path = CurvePath("path", u, v, (ends[0] / 4, ends[1] / 4))
    outcome, expected = _outcome(path), _convex_outcome(path)
    if expected is DomainError:
        assert outcome is not None and outcome[0] is DomainError
        assert outcome[1].startswith("curve 'path' leaves domain of "
                                     "'square' at t=")
    else:
        assert outcome == expected
