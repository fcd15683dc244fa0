"""Truncated Taylor jets: forward-mode exact derivatives.

Two full-order rings drive surface and curve evaluation:

* ``Jet2``  -- scalar function of (u, v) with all partials through order 3.
* ``Jet1``  -- scalar function of one parameter with derivatives through order 3.

Two lighter rings carry scalar fields derived from a surface jet (metric
coefficients, connection symbols, tangency residual), where fewer orders
suffice:

* ``Field2`` -- value, gradient and Hessian in (u, v).
* ``Field1`` -- value and gradient in (u, v).

All jets are immutable after construction; arithmetic lifts plain numbers to
constants, so expression trees can be evaluated over any of these rings.
The rings share one base for subtraction, division, the elementary
functions and powers; each supplies only its product, sum and composition
rule.  ``Field2``'s rules are ``Jet2``'s truncated at order 2, so a tree
evaluated over ``Field2`` carries the low-order bits of the ``Jet2`` one.
Elementary functions raise :class:`~tpcurves.errors.EvalError` at singular
arguments, and where a value overflows, instead of producing NaNs.

Coefficients of ``Jet2``, ``Jet1`` and ``Field2`` are floats, or 1-D numpy
arrays with one entry per node of a batch (constant coefficients may stay
floats).  The same arithmetic then evaluates every node at once, and gives
at each node the bits that the float path gives, or raises the error the
float path raises there.
"""

import math
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .errors import EvalError

__all__ = ["Jet2", "Jet1", "Field2", "Field1", "dot3", "cross3"]


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


def _node_derivs(formula, w, arg, scalar):
    """``formula(w, arg, _NODE_MATH)`` at a 1-D array of nodes ``w``.

    Where a node's value is not representable, the error raised is the one
    ``scalar`` (the float path) raises at the first node that fails, so both
    paths fail alike.  Division by zero raises on arrays as it does on
    floats.
    """
    try:
        with np.errstate(divide="raise"):
            return formula(w, arg, _NODE_MATH)
    except (ArithmeticError, ValueError, EvalError):
        for x in w.tolist():
            scalar(x)
        raise


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


def _elem_derivs(op, w):
    """Value and first three derivatives of an elementary function at w.

    Where a float result is not representable, Python raises OverflowError,
    ZeroDivisionError or ValueError; each becomes EvalError.
    """
    if isinstance(w, float):
        try:
            return _elem_formula(w, op, math)
        except (ArithmeticError, ValueError) as exc:
            raise EvalError(f"{op} at {w!r}: {exc}") from exc
    return _node_derivs(_elem_formula, w, op, lambda x: _elem_derivs(op, x))


def _pow_formula(w, p, m):
    if _any(w <= 0.0):
        raise EvalError(f"{w} ** {p} undefined for non-integer exponent")
    return (
        m.pow(w, p),
        p * m.pow(w, p - 1.0),
        p * (p - 1.0) * m.pow(w, p - 2.0),
        p * (p - 1.0) * (p - 2.0) * m.pow(w, p - 3.0),
    )


def _pow_derivs(w, p):
    """Derivatives of w**p for non-integer constant p; requires w > 0."""
    if isinstance(w, float):
        try:
            return _pow_formula(w, p, math)
        except (ArithmeticError, ValueError) as exc:
            raise EvalError(f"x ** {p} at {w!r}: {exc}") from exc
    return _node_derivs(_pow_formula, w, p, lambda x: _pow_derivs(x, p))


class _Taylor:
    """Arithmetic and elementary functions shared by every jet ring.

    A ring supplies ``__neg__``, ``__add__``, ``__mul__`` and
    ``_compose_coeffs(f0, f1, f2, f3)``, the composition with an outer
    function of value f0 and derivatives f1, f2, f3 (a ring that keeps
    fewer orders ignores the higher ones).  Everything else is the same
    sequence of ring operations in every ring, so a lower-order ring gives
    the low-order coefficients of a higher-order one bit for bit; Field1,
    which divides by its own quotient rule, is the exception.
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
        return self._compose_coeffs(*_elem_derivs(op, self.f))

    def sin(self):
        return self._compose("sin")

    def cos(self):
        return self._compose("cos")

    def sinh(self):
        return self._compose("sinh")

    def cosh(self):
        return self._compose("cosh")

    def tanh(self):
        return self._compose("tanh")

    def exp(self):
        return self._compose("exp")

    def log(self):
        return self._compose("log")

    def sqrt(self):
        return self._compose("sqrt")

    def powc(self, p):
        """Power with constant exponent. Integer exponents work at any base."""
        p = float(p)
        if p.is_integer():
            n = int(p)
            if n < 0:
                return (self._ipow(-n))._compose("recip")
            return self._ipow(n)
        return self._compose_coeffs(*_pow_derivs(self.f, p))

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


class Jet2(_Taylor):
    """Order-3 truncated Taylor jet of a scalar function of (u, v)."""

    __slots__ = ("f", "fu", "fv", "fuu", "fuv", "fvv",
                 "fuuu", "fuuv", "fuvv", "fvvv")

    def __init__(self, f, fu=0.0, fv=0.0, fuu=0.0, fuv=0.0, fvv=0.0,
                 fuuu=0.0, fuuv=0.0, fuvv=0.0, fvvv=0.0):
        self.f = f
        self.fu = fu
        self.fv = fv
        self.fuu = fuu
        self.fuv = fuv
        self.fvv = fvv
        self.fuuu = fuuu
        self.fuuv = fuuv
        self.fuvv = fuvv
        self.fvvv = fvvv

    @classmethod
    def var_u(cls, value):
        return cls(float(value), fu=1.0)

    @classmethod
    def var_v(cls, value):
        return cls(float(value), fv=1.0)

    def __repr__(self):
        return f"Jet2(f={self.f!r}, fu={self.fu!r}, fv={self.fv!r}, ...)"

    def __neg__(self):
        return Jet2(-self.f, -self.fu, -self.fv, -self.fuu, -self.fuv,
                    -self.fvv, -self.fuuu, -self.fuuv, -self.fuvv, -self.fvvv)

    def __add__(self, other):
        o = self._lift(other)
        return Jet2(self.f + o.f, self.fu + o.fu, self.fv + o.fv,
                    self.fuu + o.fuu, self.fuv + o.fuv, self.fvv + o.fvv,
                    self.fuuu + o.fuuu, self.fuuv + o.fuuv,
                    self.fuvv + o.fuvv, self.fvvv + o.fvvv)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self, self._lift(other)
        # Leibniz rule through order 3.
        return Jet2(
            a.f * b.f,
            a.fu * b.f + a.f * b.fu,
            a.fv * b.f + a.f * b.fv,
            a.fuu * b.f + 2.0 * a.fu * b.fu + a.f * b.fuu,
            a.fuv * b.f + a.fu * b.fv + a.fv * b.fu + a.f * b.fuv,
            a.fvv * b.f + 2.0 * a.fv * b.fv + a.f * b.fvv,
            a.fuuu * b.f + 3.0 * a.fuu * b.fu + 3.0 * a.fu * b.fuu + a.f * b.fuuu,
            (a.fuuv * b.f + a.fuu * b.fv + 2.0 * a.fuv * b.fu
             + 2.0 * a.fu * b.fuv + a.fv * b.fuu + a.f * b.fuuv),
            (a.fuvv * b.f + a.fvv * b.fu + 2.0 * a.fuv * b.fv
             + 2.0 * a.fv * b.fuv + a.fu * b.fvv + a.f * b.fuvv),
            a.fvvv * b.f + 3.0 * a.fvv * b.fv + 3.0 * a.fv * b.fvv + a.f * b.fvvv,
        )

    __rmul__ = __mul__

    def _compose_coeffs(self, f0, f1, f2, f3):
        gu, gv = self.fu, self.fv
        guu, guv, gvv = self.fuu, self.fuv, self.fvv
        return Jet2(
            f0,
            f1 * gu,
            f1 * gv,
            f2 * gu * gu + f1 * guu,
            f2 * gu * gv + f1 * guv,
            f2 * gv * gv + f1 * gvv,
            f3 * gu * gu * gu + 3.0 * f2 * gu * guu + f1 * self.fuuu,
            (f3 * gu * gu * gv + f2 * (2.0 * gu * guv + guu * gv)
             + f1 * self.fuuv),
            (f3 * gu * gv * gv + f2 * (2.0 * gv * guv + gu * gvv)
             + f1 * self.fuvv),
            f3 * gv * gv * gv + 3.0 * f2 * gv * gvv + f1 * self.fvvv,
        )


class Jet1(_Taylor):
    """Order-3 truncated Taylor jet of a scalar function of one parameter."""

    __slots__ = ("f", "d1", "d2", "d3")

    def __init__(self, f, d1=0.0, d2=0.0, d3=0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    @classmethod
    def var(cls, value):
        return cls(float(value), d1=1.0)

    def __repr__(self):
        return f"Jet1({self.f!r}, {self.d1!r}, {self.d2!r}, {self.d3!r})"

    def __neg__(self):
        return Jet1(-self.f, -self.d1, -self.d2, -self.d3)

    def __add__(self, other):
        o = self._lift(other)
        return Jet1(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self, self._lift(other)
        return Jet1(
            a.f * b.f,
            a.d1 * b.f + a.f * b.d1,
            a.d2 * b.f + 2.0 * a.d1 * b.d1 + a.f * b.d2,
            a.d3 * b.f + 3.0 * a.d2 * b.d1 + 3.0 * a.d1 * b.d2 + a.f * b.d3,
        )

    __rmul__ = __mul__

    def _compose_coeffs(self, f0, f1, f2, f3):
        g1, g2, g3 = self.d1, self.d2, self.d3
        return Jet1(
            f0,
            f1 * g1,
            f2 * g1 * g1 + f1 * g2,
            f3 * g1 * g1 * g1 + 3.0 * f2 * g1 * g2 + f1 * g3,
        )


class Field2(_Taylor):
    """Scalar field on the parameter plane: value, gradient and Hessian.

    Its arithmetic is Jet2's truncated at order 2, so a tree evaluated over
    Field2 gives the value, gradient and Hessian bits of the same tree
    evaluated over Jet2.
    """

    __slots__ = ("f", "fu", "fv", "fuu", "fuv", "fvv")

    def __init__(self, f, fu=0.0, fv=0.0, fuu=0.0, fuv=0.0, fvv=0.0):
        self.f = f
        self.fu = fu
        self.fv = fv
        self.fuu = fuu
        self.fuv = fuv
        self.fvv = fvv

    @classmethod
    def of_jet(cls, jet):
        """Order-2 view of an order-3 jet's value."""
        return cls(jet.f, jet.fu, jet.fv, jet.fuu, jet.fuv, jet.fvv)

    @classmethod
    def of_jet_du(cls, jet):
        """Order-2 view of the u-partial of an order-3 jet."""
        return cls(jet.fu, jet.fuu, jet.fuv, jet.fuuu, jet.fuuv, jet.fuvv)

    @classmethod
    def of_jet_dv(cls, jet):
        """Order-2 view of the v-partial of an order-3 jet."""
        return cls(jet.fv, jet.fuv, jet.fvv, jet.fuuv, jet.fuvv, jet.fvvv)

    def du(self):
        """Gradient-order view of the u-partial."""
        return Field1(self.fu, self.fuu, self.fuv)

    def dv(self):
        return Field1(self.fv, self.fuv, self.fvv)

    def lower(self):
        return Field1(self.f, self.fu, self.fv)

    def __repr__(self):
        return f"Field2(f={self.f!r}, grad=({self.fu!r}, {self.fv!r}))"

    def __neg__(self):
        return Field2(-self.f, -self.fu, -self.fv, -self.fuu, -self.fuv, -self.fvv)

    def __add__(self, other):
        o = self._lift(other)
        return Field2(self.f + o.f, self.fu + o.fu, self.fv + o.fv,
                      self.fuu + o.fuu, self.fuv + o.fuv, self.fvv + o.fvv)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self, self._lift(other)
        return Field2(
            a.f * b.f,
            a.fu * b.f + a.f * b.fu,
            a.fv * b.f + a.f * b.fv,
            a.fuu * b.f + 2.0 * a.fu * b.fu + a.f * b.fuu,
            a.fuv * b.f + a.fu * b.fv + a.fv * b.fu + a.f * b.fuv,
            a.fvv * b.f + 2.0 * a.fv * b.fv + a.f * b.fvv,
        )

    __rmul__ = __mul__

    def _compose_coeffs(self, f0, f1, f2, f3):
        gu, gv = self.fu, self.fv
        return Field2(
            f0,
            f1 * gu,
            f1 * gv,
            f2 * gu * gu + f1 * self.fuu,
            f2 * gu * gv + f1 * self.fuv,
            f2 * gv * gv + f1 * self.fvv,
        )


class Field1(_Taylor):
    """Scalar field on the parameter plane: value and gradient only.

    Division is the quotient rule, not Field2's composed reciprocal, so a
    quotient's bits differ from Field2's in the last places.
    """

    __slots__ = ("f", "fu", "fv")

    def __init__(self, f, fu=0.0, fv=0.0):
        self.f = f
        self.fu = fu
        self.fv = fv

    def __repr__(self):
        return f"Field1(f={self.f!r}, grad=({self.fu!r}, {self.fv!r}))"

    def __neg__(self):
        return Field1(-self.f, -self.fu, -self.fv)

    def __add__(self, other):
        o = self._lift(other)
        return Field1(self.f + o.f, self.fu + o.fu, self.fv + o.fv)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self, self._lift(other)
        return Field1(a.f * b.f, a.fu * b.f + a.f * b.fu, a.fv * b.f + a.f * b.fv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.f == 0.0:
            raise EvalError("division by zero")
        inv = 1.0 / o.f
        f = self.f * inv
        return Field1(f, (self.fu - f * o.fu) * inv, (self.fv - f * o.fv) * inv)

    def _compose_coeffs(self, f0, f1, f2, f3):
        return Field1(f0, f1 * self.fu, f1 * self.fv)


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
