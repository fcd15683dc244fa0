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
low-order coefficients of the next bit for bit (here and below: NaN, of
any bits, at the same places, since which NaN is unspecified; every other
value with its bits, signed zeros included).  Elementary functions
raise :class:`~tpcurves.errors.EvalError` at singular arguments, and where
a value overflows, instead of producing NaNs.

Jets are immutable after construction; arithmetic lifts plain numbers to
constants, so expression trees can be evaluated over any ring.
Coefficients are floats, or numpy arrays over the nodes of a batch that
broadcast together (constant coefficients may stay floats).  The same
arithmetic then evaluates every node at once, and gives at each node the
bits that the float path gives, or raises the error the float path raises
there.  A coefficient zero by construction (a variable's other partials,
a constant's, all that only they feed) is absent, :data:`ZERO`: sums,
products and compositions skip it (``0.0 * inf`` is never formed, ``-0.0``
plus it stays ``-0.0``), views and programs pass it on, and read by name
it is 0.0.
:func:`straight_line` records one evaluation, ring arithmetic included,
as straight-line Python code that runs with no ring objects: a value used
once is written into its use, to a depth cap, the rest are named, and pure
arithmetic that nothing reads is left out.  It renders a float program
(the tracer's kernel) or an array program over nodes (the batched jets),
whose singular tests hold at any node and whose ``math`` runs once per
array entry.
"""

import math
from collections import Counter
from itertools import chain, combinations, product, repeat
from operator import add, sub
from types import SimpleNamespace

import numpy as np

from .errors import EvalError, GeometryError

__all__ = ["Jet2", "Jet1", "Field2", "Field1", "ZERO", "dot3", "cross3",
           "failing_node", "straight_line"]


class _Absent:
    """The type of :data:`ZERO`: a sum's identity, a product's zero."""

    __slots__ = ()
    __array_ufunc__ = None  # numpy defers to the reflected methods
    __mul__ = __rmul__ = __neg__ = lambda self, *other: self
    __add__ = __radd__ = __rsub__ = lambda self, other: other
    __sub__ = lambda self, other: -other
    __repr__ = __str__ = lambda self: "ZERO"


ZERO = _Absent()  # a jet coefficient that is zero by construction


def _per_node(fn):
    """``fn`` from ``math`` applied entry by entry to an array of any shape,
    or at a float."""
    def apply(w, *args):
        if isinstance(w, float):
            return fn(w, *args)
        if w.ndim != 1:
            return apply(w.ravel(), *args).reshape(w.shape)
        return np.fromiter(map(fn, w.tolist(), *map(repeat, args)),
                           float, len(w))
    return apply


# ``math`` over arrays of nodes.  numpy's own exp, log, sinh, cosh, tanh and
# power differ from libm in the last place, so every transcendental call goes
# through ``math`` once per array entry: batched jets then equal scalar jets
# bit for bit, and raise where ``math`` raises.  On a grid given by its axes,
# an (m, 1) column and a (1, n) row that broadcast together, a value of u
# alone is computed m times and a value of v alone n times, not m * n times.
# numpy's sqrt is correctly rounded.  A float, which an array program meets
# where a coefficient that it takes is the same at every node, goes to
# ``math`` as it does in the tree walk.
_NODE_MATH = SimpleNamespace(
    sqrt=lambda w: math.sqrt(w) if isinstance(w, float) else np.sqrt(w),
    **{name: _per_node(getattr(math, name))
       for name in ("sin", "cos", "sinh", "cosh", "tanh", "exp", "log",
                    "pow")})


def _any(mask):
    """A singularity test at a float, or at any node of an array."""
    return mask is True or (mask is not False and mask.any())


def failing_node(mask, *values):
    """None where the test ``mask`` holds nowhere; else ``values`` as floats
    at the first node where it holds, in row-major order (at a point, the
    values themselves).

    ``mask`` and ``values`` are floats or arrays of nodes; a float stands
    for its value at every node.  Errors raised on a batch name this node,
    so they read as the float path's error at its first failing point.
    """
    if mask is False or mask is np.False_:  # the usual case at a point
        return None
    if mask is not True and not mask.any():  # the usual case on a batch
        return None
    mask, *values = np.broadcast_arrays(mask, *values)
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
    ZeroDivisionError or ValueError; each becomes EvalError.  At an array
    of nodes the error raised is the one the float path raises at the
    first entry that fails, in row-major order, so both paths fail alike;
    division by zero raises on arrays as it does on floats.
    """
    if isinstance(w, float):
        try:
            return formula(w, arg, math)
        except (ArithmeticError, ValueError) as exc:
            what = arg if formula is _elem_formula else f"x ** {arg}"
            raise EvalError(f"{what} at {w!r}: {exc}") from exc
    if isinstance(w, _Traced):
        return formula(w, arg, w)
    try:
        with np.errstate(divide="raise"):
            return formula(w, arg, _NODE_MATH)
    except (ArithmeticError, ValueError, EvalError):
        for x in w.ravel().tolist():
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
        cls._lift = cls.const = staticmethod(lift)

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
            _scaled(c, [f"a._{at[b]}", f"b._{at[tuple(map(sub, alpha, b))]}"])
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
        f"    __slots__ = {tuple('_' + n for n in names)!r}",  # absent too
        *(f"    {n} = property(lambda self: "
          f"0.0 if self._{n} is ZERO else self._{n})" for n in names),
        f"    def __init__(self, {names[0]}, "
        + ", ".join(f"{n}=ZERO" for n in names[1:]) + "):",
        *(f"        self._{n} = {n}" for n in names),
        "    def __neg__(self):",
        new(f"-self._{n}" for n in names),
        "    def __add__(self, other):",
        "        o = self._lift(other)",
        new(f"self._{n} + o._{n}" for n in names),
        "    __radd__ = __add__",
        "    def __mul__(self, other):",
        "        a, b = self, self._lift(other)",
        new(map(product_coeff, at)),
        "    __rmul__ = __mul__",
        "    def _compose_coeffs(self, f0, f1, f2, f3):",
        "        " + ", ".join(f"g_{n}" for n in names[1:]) + ", = "
        + ", ".join(f"self._{n}" for n in names[1:]) + ",",
        new(map(composed_coeff, at)),
    ])
    scope = {"_Taylor": _Taylor, "ZERO": ZERO, "__name__": __name__}
    exec(source, scope)
    ring = scope[name]
    ring._at, ring._names = at, tuple(names)
    return ring


def _view(ring, src, shift):
    """The ``ring`` value with the coefficients of a ``src`` jet at each
    multi-index plus ``shift``: the jet's value (shift 0) or one partial
    derivative (a unit shift), with fewer orders, as compiled code."""
    coeffs = (f"jet._{src._at[tuple(map(add, a, shift))]}" for a in ring._at)
    scope = {ring.__name__: ring}
    exec(f"def view(jet):\n    return {ring.__name__}({', '.join(coeffs)})",
         scope)
    return scope["view"]


Jet2 = _ring("Jet2", 2, 3, "f fu fv fuu fuv fvv fuuu fuuv fuvv fvvv",
             "Order-3 truncated Taylor jet of a scalar function of (u, v).")
Jet1 = _ring("Jet1", 1, 3, "f d1 d2 d3",
             "Order-3 truncated Taylor jet of a scalar function of one "
             "parameter.")


Field2 = _ring("Field2", 2, 2, "f fu fv fuu fuv fvv",
               "Scalar field on the parameter plane: value, gradient and "
               "Hessian.")
Field1 = _ring("Field1", 2, 1, "f fu fv", "Scalar field on the parameter "
               "plane: value and gradient.")
# Order-1 views of an order-2 field's value and partials.
Field2.lower, Field2.du, Field2.dv = (
    _view(Field1, Field2, shift) for shift in ((0, 0), (1, 0), (0, 1)))
# Order-2 views of an order-3 jet's value and partials.
Field2.of_jet = staticmethod(_view(Field2, Jet2, (0, 0)))
Field2.of_jet_du = staticmethod(_view(Field2, Jet2, (1, 0)))
Field2.of_jet_dv = staticmethod(_view(Field2, Jet2, (0, 1)))


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


# Straight-line programs (Griewank & Walther, ch. 6): a float function run
# once over _Traced inputs writes down each float operation, in order, once
# per operands (value numbering, Aho et al., *Compilers*, 2nd ed., 6.1).

def _binary(symbol):
    """_Traced's operator ``symbol`` and its reflection.  An absent operand
    is left to ZERO; a product with 1.0 is the other factor, bit for bit."""
    template = "{} " + symbol + " {}"
    def op(a, b, order=1):  # order -1: b is the left operand
        if b is ZERO:
            return NotImplemented
        if symbol == "*" and type(b) is float and b == 1.0:
            return a
        return a.record(template, *(a.name, str(b))[::order])
    return op, lambda a, b: op(a, b, -1)


class _Traced:
    """A float of the program in ``lines``, one ``(name, template,
    operands)`` per operation, each operand as its text (``str`` keeps
    -0.0 apart from 0.0) and name None for a guard; ``names`` numbers each
    value and guard by its text.  Arithmetic, and ``x.sin(x)`` for
    ``math.sin(x)``, records the operation.  A comparison is a singular
    test, past which the float path raises: it records a guard returning
    None, and answers False."""

    __slots__ = ("lines", "names", "name")

    def __init__(self, lines, names, name):
        self.lines, self.names, self.name = lines, names, name

    def __str__(self):
        return self.name

    def __getattr__(self, function):
        if function.startswith("_"):  # numpy's probes: __array_struct__...
            raise AttributeError(function)
        return lambda *args: self.record(
            function + "(" + ", ".join(["{}"] * len(args)) + ")",
            *map(str, args))

    def record(self, template, *operands, guard=False):
        text = template.format(*operands)
        if text not in self.names:
            name = self.names[text] = f"t{len(self.names)}"
            self.lines.append((None if guard else name, template, operands))
        return not guard and _Traced(self.lines, self.names, self.names[text])

    __add__, __radd__ = _binary("+")
    __sub__, __rsub__ = _binary("-")
    __mul__, __rmul__ = _binary("*")
    __truediv__, __rtruediv__ = _binary("/")

    def __neg__(self):
        return self.record("-{}", self.name)

    def __le__(self, other):
        return self.record("{} <= {}", self.name, str(other), guard=True)

    def __eq__(self, other):
        return self.record("{} == {}", self.name, str(other), guard=True)


# Nesting at which a value is named even when used once: CPython's
# tokenizer allows 200 nested parentheses.
_MAX_DEPTH = 32
_PURE = {"{} + {}", "{} - {}", "{} * {}", "-{}"}  # never raise or give None


def _render(lines, leaves, guard="return None"):
    """The statements of ``lines`` but those ``_PURE`` ones that no leaf,
    guard, call or division reads.  A value used exactly once, and not a
    leaf, is written into its use in parentheses, until its text is
    _MAX_DEPTH parentheses deep; every other value is named, and a guard
    runs the statement ``guard``.  Each operation keeps its operands and
    their order, so its bits, and each one is evaluated before the program
    returns."""
    # A guard's name is None: None among the roots keeps every guard.
    live = _live(lines, leaves + [name for name, template, _ in lines
                                  if template not in _PURE])
    lines = [line for line in lines if line[0] in live]
    uses = Counter(chain.from_iterable([x for _, _, x in lines]))
    once = {x for x, n in uses.items() if n == 1}.difference(leaves)
    # A value still to be written into its use: its parenthesized text
    # and that text's depth.
    inline, body = {}, []
    for name, template, operands in lines:
        deep, parts = 0, []
        for x in operands:
            written = inline.pop(x, None)
            if written is None:
                parts.append(x)
            else:
                parts.append(written[0])
                deep = max(deep, written[1])
        text = template.format(*parts)
        if name in once and deep < _MAX_DEPTH:
            # A call adds its own parentheses.
            inline[name] = "(" + text + ")", deep + 1 + ("(" in template)
        elif name is None:
            body.append("if " + text + ": " + guard)
        else:
            body.append(name + " = " + text)
    return body


def _live(lines, leaves):
    """The leaves and the operands of ``lines`` on which the leaves depend."""
    live = set(leaves)
    for name, _, operands in reversed(lines):
        if name in live:
            live.update(operands)
    return live


def _record(build, params, ring):
    """``build(ring, *params)`` run once over traced inputs: its lines, the
    texts of the floats it returns (its leaves) and of their tuple."""
    lines, names, leaves = [], {}, []

    def render(out):
        if isinstance(out, tuple):
            return "(" + "".join(render(x) + ", " for x in out) + ")"
        leaves.append(str(out))
        return leaves[-1]

    out = render(build(ring, *(_Traced(lines, names, p) for p in params)))
    return lines, leaves, out


def straight_line(build, params, ring, *, arrays):
    """``build(ring, *params)``, floats and the arithmetic of ``ring``,
    returning floats (or ZERO) in nested tuples, as straight-line code in
    ``params``.

    ``build`` runs once, over traced inputs; :func:`_render` then writes
    each value used once into its use (to a depth cap) and names the rest.
    The program gives ``build``'s bits at every value that is not NaN,
    signed zeros included, and NaN exactly where ``build`` gives NaN: which
    NaN an operation gives is left open by IEEE 754 (sec. 6.2.3), and
    CPython does not keep it from one call to the next.  It returns None
    where ``build`` raises: at its singular tests, where ``math`` or a
    division raises, and at every input if the recording raises (a
    constant subtree that fails).

    With ``arrays`` false the params are floats.  With ``arrays`` true they
    are arrays of nodes that broadcast together (1-D, or a grid's (m, 1)
    and (1, n) axes), or floats where a value is the same at every node, as
    in a batched tree walk: a singular test holds if it holds at any node,
    ``math`` runs once per array entry (``_NODE_MATH``), and the program
    runs under the batched tree walk's error states (overflow and invalid
    pass, a division by zero raises)."""
    try:
        lines, leaves, out = _record(build, params, ring)
        if arrays:  # a singular test holds if it holds at any node
            lines = [(name, template if name else "_any(" + template + ")",
                      operands) for name, template, operands in lines]
        body = _render(lines, leaves) + ["return " + out]
    except GeometryError:
        body = ["return None"]
    scope = {**vars(math), "ZERO": ZERO, "__name__": __name__}  # inf, nan
    if arrays:
        scope.update(vars(_NODE_MATH), _any=_any, _errstate=np.errstate)
        body = ['with _errstate(over="ignore", invalid="ignore", '
                'divide="raise"):', *("    " + line for line in body)]
    exec("\n".join([f"def program({', '.join(params)}):", "    try:",
                     *("        " + line for line in body),
                     "    except (ArithmeticError, ValueError):",
                     "        return None"]), scope)
    return scope.pop("program")  # no cycle: it goes with its owner
