"""Truncated Taylor jets: forward-mode exact derivatives.

Four rings carry every derivative the package takes:

* ``Jet2``   -- scalar function of (u, v), all partials through order 3;
* ``Jet1``   -- scalar function of one parameter, derivatives through order 3;
* ``Field2`` -- value, gradient and Hessian in (u, v): Jet2 truncated at
  order 2, for the metric and the tangency residual;
* ``Field1`` -- value and gradient in (u, v): Field2 truncated at order 1,
  for connection symbols and level-curve tangents.

All four come from one definition, :func:`_ring`.  It unrolls each ring's
product (the Leibniz rule) and its composition with an outer function (Faa
di Bruno's formula) into straight-line code, once at import, from a table
of multi-indices and a table of set partitions (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13), and compiles it with ``exec``
as ``dataclasses`` does.  Subtraction, the one division rule (multiply by
the composed reciprocal), the elementary functions and powers are the same
sequence of ring operations in every ring, so each ring gives the
low-order coefficients of the next bit for bit.  Elementary functions
raise :class:`~tpcurves.errors.EvalError` at singular arguments, and where
a value overflows, instead of producing NaNs.

Jets are immutable after construction; arithmetic lifts plain numbers to
constants, so expression trees can be evaluated over any ring.
Coefficients are floats, or 1-D numpy arrays with one entry per node of a
batch (constant coefficients may stay floats).  The same arithmetic then
evaluates every node at once, and gives at each node the bits that the
float path gives, or raises the error the float path raises there.
"""

import math
from collections import Counter
from itertools import combinations, product, repeat
from operator import add, sub
from types import SimpleNamespace

import numpy as np

from .errors import EvalError

__all__ = ["Jet2", "Jet1", "Field2", "Field1", "dot3", "cross3",
           "failing_node"]


def _per_node(fn):
    """``fn`` from ``math`` applied node by node to a 1-D array."""
    def apply(w, *args):
        return np.fromiter(map(fn, w.tolist(), *map(repeat, args)),
                           float, len(w))
    return apply


# ``math`` over arrays of nodes.  numpy's own exp, log, sinh, cosh, tanh and
# power differ from libm in the last place, so every transcendental call goes
# through ``math`` once per node: batched jets then equal scalar jets bit for
# bit, and raise where ``math`` raises.  numpy's sqrt is correctly rounded.
_NODE_MATH = SimpleNamespace(
    sqrt=np.sqrt,
    **{name: _per_node(getattr(math, name))
       for name in ("sin", "cos", "sinh", "cosh", "tanh", "exp", "log",
                    "pow")})


def _any(mask):
    """A singularity test at a float, or at any node of an array."""
    return mask is True or (mask is not False and mask.any())


def failing_node(mask, *values):
    """None where the test ``mask`` holds nowhere; else ``values`` as floats
    at the first node where it holds (at a point, the values themselves).

    ``mask`` and ``values`` are floats or arrays of nodes; a float stands
    for its value at every node.  Errors raised on a batch name this node,
    so they read as the float path's error at its first failing point.
    """
    if mask is False or mask is np.False_:  # the usual case at a point
        return None
    mask, *values = np.broadcast_arrays(mask, *values)
    if not mask.any():
        return None
    node = np.unravel_index(mask.argmax(), mask.shape)
    return [x[node].item() for x in values]


def _elem_formula(w, op, m):
    if op == "sin":
        s, c = m.sin(w), m.cos(w)
        return s, c, -s, -c
    if op == "cos":
        s, c = m.sin(w), m.cos(w)
        return c, -s, -c, s
    if op == "sinh":
        s, c = m.sinh(w), m.cosh(w)
        return s, c, s, c
    if op == "cosh":
        s, c = m.sinh(w), m.cosh(w)
        return c, s, c, s
    if op == "tanh":
        t = m.tanh(w)
        d1 = 1.0 - t * t
        return t, d1, -2.0 * t * d1, (6.0 * t * t - 2.0) * d1
    if op == "exp":
        e = m.exp(w)
        return e, e, e, e
    if op == "log":
        if _any(w <= 0.0):
            raise EvalError(f"log of non-positive value {w}")
        iw = 1.0 / w
        return m.log(w), iw, -iw * iw, 2.0 * iw * iw * iw
    if op == "sqrt":
        if _any(w <= 0.0):
            raise EvalError(f"sqrt of non-positive value {w}")
        r = m.sqrt(w)
        return r, 0.5 / r, -0.25 / (r * w), 0.375 / (r * w * w)
    if op == "recip":
        if _any(w == 0.0):
            raise EvalError("division by zero")
        iw = 1.0 / w
        iw2 = iw * iw
        return iw, -iw2, 2.0 * iw2 * iw, -6.0 * iw2 * iw2
    raise ValueError(f"unknown elementary function '{op}'")


def _pow_formula(w, p, m):
    if _any(w <= 0.0):
        raise EvalError(f"{w} ** {p} undefined for non-integer exponent")
    return (
        m.pow(w, p),
        p * m.pow(w, p - 1.0),
        p * (p - 1.0) * m.pow(w, p - 2.0),
        p * (p - 1.0) * (p - 2.0) * m.pow(w, p - 3.0),
    )


def _outer_derivs(formula, w, arg):
    """Value and first three derivatives at w of the outer function that
    ``formula(w, arg, m)`` computes with the math namespace ``m``: an
    elementary function (:func:`_elem_formula`, ``arg`` its name) or a
    non-integer power (:func:`_pow_formula`, ``arg`` the exponent).

    Where a float result is not representable, Python raises OverflowError,
    ZeroDivisionError or ValueError; each becomes EvalError.  At a 1-D
    array of nodes the error raised is the one the float path raises at
    the first node that fails, so both paths fail alike; division by zero
    raises on arrays as it does on floats.
    """
    if isinstance(w, float):
        try:
            return formula(w, arg, math)
        except (ArithmeticError, ValueError) as exc:
            what = arg if formula is _elem_formula else f"x ** {arg}"
            raise EvalError(f"{what} at {w!r}: {exc}") from exc
    try:
        with np.errstate(divide="raise"):
            return formula(w, arg, _NODE_MATH)
    except (ArithmeticError, ValueError, EvalError):
        for x in w.tolist():
            _outer_derivs(formula, x, arg)
        raise


def _elementary(op):
    """The ring method composing a jet with the elementary function ``op``."""
    def method(self):
        return self._compose(op)
    method.__name__ = op
    return method


class _Taylor:
    """Arithmetic and elementary functions shared by every jet ring.

    :func:`_ring` supplies ``__neg__``, ``__add__``, ``__mul__`` and
    ``_compose_coeffs(f0, f1, f2, f3)``, the composition with an outer
    function of value f0 and derivatives f1, f2, f3 (a ring that keeps
    fewer orders ignores the higher ones).  Everything here, division
    included, is the same sequence of ring operations in every ring.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # Every sum and product lifts its operand.  A static function per
        # ring is cheaper to call there than one classmethod.
        def lift(x):
            return x if isinstance(x, cls) else cls(float(x))
        cls._lift = staticmethod(lift)

    @classmethod
    def const(cls, c):
        return cls(float(c))

    def __repr__(self):
        coeffs = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({coeffs})"

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        return self * self._lift(other)._compose("recip")

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def _compose(self, op):
        """Faa di Bruno composition with an elementary outer function."""
        return self._compose_coeffs(*_outer_derivs(_elem_formula, self.f, op))

    sin, cos, sinh, cosh, tanh, exp, log, sqrt = map(_elementary, (
        "sin", "cos", "sinh", "cosh", "tanh", "exp", "log", "sqrt"))

    def powc(self, p):
        """Power with constant exponent. Integer exponents work at any base."""
        p = float(p)
        if p.is_integer():
            n = int(p)
            if n < 0:
                return (self._ipow(-n))._compose("recip")
            return self._ipow(n)
        return self._compose_coeffs(*_outer_derivs(_pow_formula, self.f, p))

    def _ipow(self, n):
        result = self.const(1.0)
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base  # only while a higher bit is left


# The ring generator.  A coefficient is named by its multi-index alpha, the
# number of derivatives taken in each variable.

def _indices(nvars, order):
    """Multi-indices of degree <= order, by degree, and within a degree
    with the earlier variables' powers first: f, fu, fv, fuu, fuv, fvv, ..."""
    return sorted((a for a in product(range(order + 1), repeat=nvars)
                   if sum(a) <= order),
                  key=lambda a: (sum(a), [-k for k in a]))


def _letters(alpha):
    """alpha spelled as a word of variables, its most repeated variable
    first (ties: the earlier variable): fuvv is (v, v, u).  The rules below
    run over the letters of this word, so it fixes the order in which a
    coefficient's terms are summed, and with it the rounding."""
    ranked = sorted(range(len(alpha)), key=lambda i: -alpha[i])
    return [i for i in ranked for _ in range(alpha[i])]


def _index(letters, nvars):
    return tuple(map(letters.count, range(nvars)))


def _partitions(k):
    """Set partitions of range(k), as lists of blocks, in reverse
    lexicographic order of their restricted growth strings:
    {0}{1}{2}, {0}{1,2}, {0,2}{1}, {0,1}{2}, {0,1,2}."""
    growth = [r for r in product(range(k), repeat=k)
              if all(r[i] <= max(r[:i], default=-1) + 1 for i in range(k))]
    return [[[i for i in range(k) if r[i] == b] for b in range(len(set(r)))]
            for r in sorted(growth, reverse=True)]


def _leibniz(alpha, nvars):
    """Leibniz rule for coefficient alpha of a product a*b: the sum over
    (beta, multiplicity) of multiplicity * a[beta] * b[alpha - beta], one
    beta for each subset of alpha's letters, largest subsets first."""
    w = _letters(alpha)
    return Counter(_index(s, nvars) for size in range(len(w), -1, -1)
                   for s in combinations(w, size)).items()


def _faa_di_bruno(alpha, nvars, rank):
    """Faa di Bruno's formula for coefficient alpha of f(g): for m from
    len(alpha's word) down to 0, f_m times the sum over (monomial,
    multiplicity) of multiplicity * prod g[beta], one monomial for each
    partition of the letters into m blocks beta (factors in table order)."""
    w = _letters(alpha)
    by_blocks = {}
    for blocks in _partitions(len(w)):
        betas = sorted((_index([w[i] for i in b], nvars) for b in blocks),
                       key=rank.get)
        by_blocks.setdefault(len(blocks), []).append(tuple(betas))
    return [(m, Counter(monomials).items())
            for m, monomials in sorted(by_blocks.items(), reverse=True)]


def _scaled(count, factors):
    """count * factor * ... as source, multiplied left to right."""
    return " * ".join([repr(float(count))] * (count > 1) + factors)


def _ring(name, nvars, order, names, doc):
    """The jet ring ``name``: scalar functions of ``nvars`` variables
    through ``order``, with coefficients ``names`` in :func:`_indices`
    order, its arithmetic unrolled into straight-line code."""
    names = names.split()
    at = dict(zip(_indices(nvars, order), names))
    rank = {alpha: i for i, alpha in enumerate(at)}

    def product_coeff(alpha):
        return " + ".join(
            _scaled(c, [f"a.{at[b]}", f"b.{at[tuple(map(sub, alpha, b))]}"])
            for b, c in _leibniz(alpha, nvars))

    def composed_coeff(alpha):
        sums = []
        for m, monomials in _faa_di_bruno(alpha, nvars, rank):
            terms = [(c, [f"g_{at[b]}" for b in mono])
                     for mono, c in monomials]
            # A lone monomial takes f_m into its product; several share it.
            if len(terms) == 1:
                (c, factors), = terms
                sums.append(_scaled(c, [f"f{m}"] + factors))
            else:
                inner = " + ".join(_scaled(c, factors) for c, factors in terms)
                sums.append(f"f{m} * ({inner})")
        return " + ".join(sums)

    def new(coeffs):
        return f"        return {name}({', '.join(coeffs)})"

    source = "\n".join([
        f"class {name}(_Taylor):",
        f"    __doc__ = {doc!r}",
        f"    __slots__ = {tuple(names)!r}",
        f"    def __init__(self, {names[0]}, "
        + ", ".join(f"{n}=0.0" for n in names[1:]) + "):",
        *(f"        self.{n} = {n}" for n in names),
        "    def __neg__(self):",
        new(f"-self.{n}" for n in names),
        "    def __add__(self, other):",
        "        o = self._lift(other)",
        new(f"self.{n} + o.{n}" for n in names),
        "    __radd__ = __add__",
        "    def __mul__(self, other):",
        "        a, b = self, self._lift(other)",
        new(map(product_coeff, at)),
        "    __rmul__ = __mul__",
        "    def _compose_coeffs(self, f0, f1, f2, f3):",
        "        " + ", ".join(f"g_{n}" for n in names[1:]) + ", = "
        + ", ".join(f"self.{n}" for n in names[1:]) + ",",
        new(map(composed_coeff, at)),
    ])
    scope = {"_Taylor": _Taylor, "__name__": __name__}
    exec(source, scope)
    ring = scope[name]
    ring._at = at
    return ring


def _function(ring, params, coeffs):
    """A compiled ``lambda params: ring(coeffs)``."""
    scope = {ring.__name__: ring}
    body = f"return {ring.__name__}({', '.join(coeffs)})"
    exec(f"def build({params}):\n    {body}", scope)
    return scope["build"]


def _view(ring, source, shift):
    """The ``ring`` value with the coefficients of a ``source`` jet at each
    multi-index plus ``shift``: the jet's value (shift 0) or one partial
    derivative (a unit shift), with fewer orders."""
    names = (source._at[tuple(map(add, a, shift))] for a in ring._at)
    return _function(ring, "jet", (f"jet.{n}" for n in names))


def _variable(ring, unit):
    """The constructor of the ring's variable of multi-index ``unit``."""
    return staticmethod(_function(ring, "value",
                                  [f"float(value), {ring._at[unit]}=1.0"]))


Jet2 = _ring("Jet2", 2, 3, "f fu fv fuu fuv fvv fuuu fuuv fuvv fvvv",
             "Order-3 truncated Taylor jet of a scalar function of (u, v).")
Jet1 = _ring("Jet1", 1, 3, "f d1 d2 d3",
             "Order-3 truncated Taylor jet of a scalar function of one "
             "parameter.")
Field2 = _ring("Field2", 2, 2, "f fu fv fuu fuv fvv",
               "Scalar field on the parameter plane: value, gradient and "
               "Hessian.")
Field1 = _ring("Field1", 2, 1, "f fu fv",
               "Scalar field on the parameter plane: value and gradient.")

Jet2.var_u, Jet2.var_v = _variable(Jet2, (1, 0)), _variable(Jet2, (0, 1))
Jet1.var = _variable(Jet1, (1,))
# Order-2 views of an order-3 jet's value and partials, and order-1 views
# of an order-2 field's.
Field2.of_jet = staticmethod(_view(Field2, Jet2, (0, 0)))
Field2.of_jet_du = staticmethod(_view(Field2, Jet2, (1, 0)))
Field2.of_jet_dv = staticmethod(_view(Field2, Jet2, (0, 1)))
Field2.lower = _view(Field1, Field2, (0, 0))
Field2.du = _view(Field1, Field2, (1, 0))
Field2.dv = _view(Field1, Field2, (0, 1))


def dot3(a, b):
    """Dot product of 3-component sequences over any jet ring."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    """Cross product of 3-component sequences over any jet ring."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
