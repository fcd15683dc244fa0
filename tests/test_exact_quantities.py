"""The point geometry record against exact values.

At the arc-length samples of each of the 9 built-in curves
(``sample_arclength``), the batched record ``point_geometry`` must give E,
F, G, the tangency residual g, the coordinates lam, mu of the position
vector, the six connection symbols (its ``chris``) and L, M, N (its
``second``) within a forward-error bound of their exact values.  The exact
values come from the sympy form of the patch (``test_symbolic.to_sympy``),
differentiated symbolically and evaluated with mpmath at 40 digits at the
sample's own (u, v); the curve's sympy form checks that (u, v) against the
exact u(t), v(t) the same way.  Neither side runs a jet.

The bound is written from the terms the float evaluation sums.  For a tree,
:func:`term_bound` gives V, a bound on the terms of its value, and D, one
on the terms of its partials: a constant gives |c| and 0 (its partials are
absent), a variable |x| and 1, a sum the larger bounds of its operands,
and a product V_a V_b and M_a M_b, M = max(V, D).  A composition f(a) with
F the largest of |f| and its first three derivatives at a gives
F max(1, V_a) and F max(D_a, D_a ** 3) max(1, V_a): its partials multiply
up to three partials of a, and the rounding of a's value moves every
f^(k)(a) by up to f^(k+1)(a) times it.  A quotient is a product with the
composed reciprocal, a negative power the reciprocal of a positive one.
With P the largest value bound and D the largest partial bound of the
three components at the point, E, F and G sum terms of size D^2, EG - F^2
terms of size D^4, the triple product p . (p_u x p_v) terms of size P D^2
and the numerators of lam and mu terms of size P D^3.  D bounds the second
partials' terms too, so E_u = 2 p_u . p_uu and the other first
derivatives of E, F, G sum terms of size D^2, the numerators of the
connection symbols (G E_u - 2 F F_u + F E_v and its five analogues) terms
of size D^4, and p_uu . (p_u x p_v) terms of size D^3.  Rounding each term
once, and carrying a quotient's error through its divisor:

* E, F, G: D^2;
* g = p . (p_u x p_v) / sqrt(EG - F^2): P D^2 / area + |g| D^4 / det;
* lam, mu: (P D^3 + |lam| D^4) / det, (P D^3 + |mu| D^4) / det;
* each symbol Gamma^k_ij, a numerator over 2 det: (1 + |Gamma^k_ij|) D^4
  / det;
* L = p_uu . (p_u x p_v) / |p_u x p_v|, and M, N alike: D^3 / area +
  |L| D^4 / det.

Each error divided by the unit roundoff 2^-53 times its bound is the scaled
error; it must stay below ``SCALED_LIMIT``.  Run with ``-s`` to print the
worst scaled error of each quantity.
"""

import functools

import numpy as np
import pytest
from test_symbolic import to_sympy

from tpcurves.curves import sample_arclength
from tpcurves.expr import Const, Unary, Var
from tpcurves.forms import point_geometry

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

UNIT_ROUNDOFF = 2.0 ** -53
# The worst scaled error seen on the built-in curves was 4.1 (E on
# cone_ruling); the limit leaves a factor of 15.
SCALED_LIMIT = 64.0
SYMBOLS = ("G^1_11", "G^2_11", "G^1_12", "G^2_12", "G^1_22", "G^2_22")
QUANTITIES = ("u", "v", "E", "F", "G", "g", "lam", "mu", *SYMBOLS,
              "L", "M", "N")
X = sympy.Symbol("x")


@functools.cache
def outer_bound(op, exponent=None):
    """a -> max |f^(k)(a)|, k = 0..3, at 40 digits, for the outer function
    of a composition: ``op`` by name, ``"recip"`` or ``"pow"``."""
    if op == "recip":
        f = 1 / X
    elif op == "pow":
        f = X ** sympy.Rational(exponent)
    else:
        f = getattr(sympy, op)(X)
    derivs = sympy.lambdify(X, [sympy.diff(f, X, k) for k in range(4)],
                            "mpmath")
    return lambda a: max(abs(d) for d in derivs(a))


def term_bound(node, env):
    """(exact value, V, D) of a tree at ``env``, a mapping of variable
    names to mpmath numbers (module docstring)."""
    if isinstance(node, Const):
        value = mpmath.mpf(node.value)
        return value, abs(value), 0
    if isinstance(node, Var):
        value = env[node.name]
        return value, abs(value), 1
    if isinstance(node, Unary):
        a, V, D = term_bound(node.arg, env)
        if node.op == "neg":
            return -a, V, D
        return (getattr(mpmath, node.op)(a), *compose(node.op, a, V, D))
    a, Va, Da = term_bound(node.lhs, env)
    if node.op == "^":
        p = node.rhs.value
        if not float(p).is_integer():
            return (a ** p, *compose("pow", a, Va, Da, p))
        n = abs(int(p))
        V, D = Va ** n, max(Va, Da) ** n
        if p >= 0:
            return a ** n, V, D
        return (a ** -n, *compose("recip", a ** n, V, D))
    b, Vb, Db = term_bound(node.rhs, env)
    if node.op in "+-":
        return (a + b if node.op == "+" else a - b), max(Va, Vb), max(Da, Db)
    if node.op == "/":
        b, Vb, Db = 1 / b, *compose("recip", b, Vb, Db)
        return a * b, Va * Vb, max(Va, Da) * max(Vb, Db)
    return a * b, Va * Vb, max(Va, Da) * max(Vb, Db)


def compose(op, a, V, D, exponent=None):
    """(V, D) of f(a), for the outer function f of :func:`outer_bound`."""
    F = outer_bound(op, exponent)(a) * max(1, V)
    return F, F * max(D, D ** 3)


@functools.cache
def exact_curve(curve):
    """t -> (u(t), v(t)) as mpmath numbers."""
    t = sympy.Symbol("t")
    return sympy.lambdify(t, [to_sympy(c, {"t": t}) for c in (
        curve.u_component, curve.v_component)], "mpmath")


@functools.cache
def exact_partials(patch):
    """(u, v) -> the components of the patch with their partials of orders
    1 and 2 (u, v, uu, uv, vv), as mpmath numbers."""
    u, v = sympy.symbols("u v")
    comps = [to_sympy(c, {"u": u, "v": v}) for c in patch.components]
    return sympy.lambdify((u, v), [
        [c, *(sympy.diff(c, *x) for x in ((u,), (v,), (u, u), (u, v),
                                           (v, v)))]
        for c in comps], "mpmath")


def exact_and_bounds(patch, u, v):
    """The exact E, F, G, g, lam, mu, connection symbols and L, M, N at the
    floats (u, v), and their error bounds (module docstring)."""
    x, y = mpmath.mpf(u), mpmath.mpf(v)
    p, pu, pv, puu, puv, pvv = zip(*exact_partials(patch)(x, y))
    _, P, D = map(max, zip(*(term_bound(c, {"u": x, "v": y})
                             for c in patch.components)))
    dot = lambda a, b: sum(i * j for i, j in zip(a, b))
    E, F, G = dot(pu, pu), dot(pu, pv), dot(pv, pv)
    det = E * G - F * F
    area = mpmath.sqrt(det)
    cross = (pu[1] * pv[2] - pu[2] * pv[1], pu[2] * pv[0] - pu[0] * pv[2],
             pu[0] * pv[1] - pu[1] * pv[0])
    g = dot(p, cross) / area
    lam = (G * dot(p, pu) - F * dot(p, pv)) / det
    mu = (E * dot(p, pv) - F * dot(p, pu)) / det
    E_u, E_v = 2 * dot(pu, puu), 2 * dot(pu, puv)
    F_u, F_v = dot(puu, pv) + dot(pu, puv), dot(puv, pv) + dot(pu, pvv)
    G_u, G_v = 2 * dot(pv, puv), 2 * dot(pv, pvv)
    symbols = [x / (2 * det) for x in (
        G * E_u - 2 * F * F_u + F * E_v, 2 * E * F_u - E * E_v - F * E_u,
        G * E_v - F * G_u, E * G_u - F * E_v,
        2 * G * F_v - G * G_u - F * G_v, E * G_v - 2 * F * F_v + F * G_u)]
    exact = {"E": E, "F": F, "G": G, "g": g, "lam": lam, "mu": mu,
             **dict(zip(SYMBOLS, symbols)),
             **{k: dot(x, cross) / area
                for k, x in zip("LMN", (puu, puv, pvv))}}
    bounds = {"E": D ** 2, "F": D ** 2, "G": D ** 2,
              "g": P * D ** 2 / area + abs(g) * D ** 4 / det,
              "lam": (P * D ** 3 + abs(lam) * D ** 4) / det,
              "mu": (P * D ** 3 + abs(mu) * D ** 4) / det,
              **{k: (1 + abs(exact[k])) * D ** 4 / det for k in SYMBOLS},
              **{k: D ** 3 / area + abs(exact[k]) * D ** 4 / det
                 for k in "LMN"}}
    return exact, bounds


def scaled(got, exact, bound):
    """|got - exact| in units of the unit roundoff times ``bound``."""
    error = abs(mpmath.mpf(got) - exact)
    return float(error / (UNIT_ROUNDOFF * bound)) if error else 0.0


def test_record_matches_exact_values_on_builtin_curves(scene):
    worst = {k: (0.0, None) for k in QUANTITIES}
    with mpmath.workdps(40):
        for name, curve in scene.curves.items():
            patch = scene.surface(curve.surface)
            sample = sample_arclength(patch, curve)
            geom = point_geometry(patch, sample.u, sample.v)
            values = {k: getattr(geom, k).f
                      for k in ("E", "F", "G", "g", "lam", "mu")}
            values.update(zip(SYMBOLS, (x.f for x in geom.chris)))
            values.update(L=geom.second.L, M=geom.second.M,
                          N=geom.second.N)
            record = {k: np.broadcast_to(x, sample.u.shape)
                      for k, x in values.items()}
            for i, t in enumerate(sample.t.tolist()):
                at_t = {"t": mpmath.mpf(t)}
                errors = {
                    key: scaled(getattr(sample, key)[i], value,
                                max(term_bound(node, at_t)[1:]))
                    for key, node, value in zip(
                        "uv", (curve.u_component, curve.v_component),
                        exact_curve(curve)(at_t["t"]))}
                exact, bounds = exact_and_bounds(
                    patch, sample.u[i], sample.v[i])
                for key in exact:
                    errors[key] = scaled(record[key][i], exact[key],
                                         bounds[key])
                for key, err in errors.items():
                    if err >= worst[key][0]:
                        worst[key] = (err, (name, t))
    print()
    for key, (err, where) in worst.items():
        print(f"{key:>3}: worst scaled error {err:.3g} at {where}")
    assert all(err < SCALED_LIMIT for err, _ in worst.values()), worst
