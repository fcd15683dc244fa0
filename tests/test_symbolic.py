"""Jets against symbolic derivatives.

Each expression tree is converted to sympy, differentiated exactly and
evaluated with mpmath at 40 significant digits.  Every Jet2 partial and
every Jet1 derivative through order 3 must agree with it, on hypothesis
trees and on the built-in surfaces and curves.

Tolerance: forward-mode evaluation rounds once per operation, so by the
usual forward error analysis its error is a modest multiple of the unit
roundoff (1.1e-16) times the magnitude of the terms it sums; cancellation
loses no more than that.  :func:`magnitude` bounds those terms from the
tree: a leaf gives its largest coefficient (at least 1), a sum the larger
of its operands' bounds, a product the product of theirs, a composition
f(a) the largest of f's value and first three derivatives times the
third power of a's bound, and a quotient is a product with the composed
reciprocal.  Each derivative must lie within ``REL_TOL`` times that bound
of the exact value.  The worst error seen was 1.0e-13 of the bound (4,000
random trees; 2.0e-16 on the built-in surfaces and curves), so REL_TOL =
1e-11 leaves two decades.
"""

import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_expr import _ast_strategy

from tpcurves import expr
from tpcurves.errors import EvalError
from tpcurves.expr import Const, Unary, Var
from tpcurves.jets import (Jet1, Jet2, _elem_formula, _outer_derivs,
                           _pow_formula)

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

REL_TOL = 1e-11

U, V, T = sympy.symbols("u v t")
JET2_PARTIALS = {"f": (), "fu": (U,), "fv": (V,), "fuu": (U, U),
                 "fuv": (U, V), "fvv": (V, V), "fuuu": (U, U, U),
                 "fuuv": (U, U, V), "fuvv": (U, V, V), "fvvv": (V, V, V)}
JET1_DERIVS = {"f": 0, "d1": 1, "d2": 2, "d3": 3}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def to_sympy(node, env):
    """The sympy expression of a tree; constants are the exact rationals
    of their floats."""
    if isinstance(node, Const):
        return sympy.Rational(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        arg = to_sympy(node.arg, env)
        return -arg if node.op == "neg" else getattr(sympy, node.op)(arg)
    return _BINARY[node.op](to_sympy(node.lhs, env), to_sympy(node.rhs, env))


def exact(expression, symbols, point):
    """``expression`` at ``point`` to 40 digits, or None where it is not a
    finite real number."""
    with mpmath.workdps(40):
        try:
            value = mpmath.mpmathify(sympy.lambdify(
                symbols, expression, "mpmath")(*map(mpmath.mpf, point)))
        except (ZeroDivisionError, ValueError, TypeError, OverflowError):
            return None
        if not isinstance(value, mpmath.mpf) or not mpmath.isfinite(value):
            return None
        return value


def worst_error(jet, derivatives, symbols, point, scale):
    """Largest |jet coefficient - exact derivative| / scale over the
    coefficients whose exact derivative is finite."""
    worst = 0.0
    for name, derivative in derivatives.items():
        value = exact(derivative, symbols, point)
        if value is not None:
            worst = max(worst, float(abs(mpmath.mpf(getattr(jet, name))
                                         - value)) / scale)
    return worst


def magnitude(node, env, ring):
    """A bound on the magnitude of every term that evaluating ``node`` over
    ``ring`` sums (see the module docstring)."""
    def value(n):
        return expr.evaluate(n, env, ring.const)

    def outer(formula, w, arg, inner):
        return max(map(abs, _outer_derivs(formula, w, arg))) * inner ** 3

    if isinstance(node, (Const, Var)):
        jet = value(node)
        return max([1.0] + [abs(getattr(jet, k)) for k in jet._names])
    if isinstance(node, Unary):
        inner = magnitude(node.arg, env, ring)
        if node.op == "neg":
            return inner
        return outer(_elem_formula, value(node.arg).f, node.op, inner)
    lhs = magnitude(node.lhs, env, ring)
    if node.op == "^":
        p = node.rhs.value
        if not p.is_integer():
            return outer(_pow_formula, value(node.lhs).f, p, lhs)
        power = lhs ** abs(p)
        if p >= 0:
            return power
        base = value(node.lhs).powc(abs(p)).f
        return outer(_elem_formula, base, "recip", power)
    rhs = magnitude(node.rhs, env, ring)
    if node.op in "+-":
        return max(lhs, rhs)
    if node.op == "*":
        return lhs * rhs
    return lhs * outer(_elem_formula, value(node.rhs).f, "recip", rhs)


def jet2_error(node, u, v):
    """Worst scaled error of the Jet2 partials of ``node`` at (u, v), or
    None where the float evaluation fails or is not finite."""
    env = {"u": Jet2(u, fu=1.0), "v": Jet2(v, fv=1.0)}
    try:
        jet = expr.evaluate(node, env, Jet2.const)
        scale = magnitude(node, env, Jet2)
    except (EvalError, OverflowError):
        return None
    if not math.isfinite(scale):
        return None
    e = to_sympy(node, {"u": U, "v": V})
    return worst_error(jet, {k: sympy.diff(e, *d) if d else e for k, d in
                             JET2_PARTIALS.items()}, (U, V), (u, v), scale)


def jet1_error(node, env, sym_env, t):
    """Worst scaled error of the Jet1 derivatives in t of ``node``, whose
    variables are the Jet1 values ``env`` and the sympy terms ``sym_env``."""
    try:
        jet = expr.evaluate(node, env, Jet1.const)
        scale = magnitude(node, env, Jet1)
    except (EvalError, OverflowError):
        return None
    if not math.isfinite(scale):
        return None
    e = to_sympy(node, sym_env)
    return worst_error(jet, {k: sympy.diff(e, T, n) for k, n in
                             JET1_DERIVS.items()}, (T,), (t,), scale)


@given(_ast_strategy(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_jets_match_sympy_on_random_trees(node, u, v):
    error = jet2_error(node, u, v)
    assert error is None or error <= REL_TOL
    # Along u, with v held at a constant: the Jet1 route.
    error = jet1_error(node, {"u": Jet1(u, d1=1.0), "v": Jet1(v)},
                       {"u": T, "v": sympy.Rational(v)}, u)
    assert error is None or error <= REL_TOL


def _inside(rng, low, high):
    return rng.uniform(low + 0.01 * (high - low), high - 0.01 * (high - low))


def test_jets_match_sympy_on_builtin_surfaces(scene):
    rng = random.Random(20261018)
    for name, patch in scene.surfaces.items():
        for _ in range(8):
            u, v = _inside(rng, *patch.u_range), _inside(rng, *patch.v_range)
            for component in patch.components:
                assert jet2_error(component, u, v) <= REL_TOL, (name, u, v)


def test_jets_match_sympy_on_builtin_curves(scene):
    """u(t), v(t) and the ambient curve phi(u(t), v(t)) over Jet1."""
    rng = random.Random(20261019)
    for name, curve in scene.curves.items():
        patch = scene.surface(curve.surface)
        sym_t = {"t": T}
        sym_uv = {"u": to_sympy(curve.u_component, sym_t),
                  "v": to_sympy(curve.v_component, sym_t)}
        for _ in range(8):
            t = _inside(rng, *curve.t_range)
            cj = curve.jet(t)
            for node in (curve.u_component, curve.v_component):
                assert jet1_error(node, {"t": Jet1(t, d1=1.0)}, sym_t, t) \
                    <= REL_TOL, (name, t)
            for node in patch.components:
                assert jet1_error(node, {"u": cj.u, "v": cj.v}, sym_uv, t) \
                    <= REL_TOL, (name, t)
