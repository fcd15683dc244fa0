"""The generated jet rings against hand-written ones.

``jets._ring`` unrolls each ring's product and composition from a
multi-index Leibniz table and a set-partition Faa di Bruno table.  The
classes below write the same four rings out by hand, term by term, as the
package once did; they serve as the oracle.  Every ring operation must
give their bits, on float and on 1-D array coefficients.  The one
exception is Field1's division: the hand-written Field1 keeps a quotient
rule of its own, while every generated ring divides by the composed
reciprocal, so a Field1 quotient must equal the Field2 quotient truncated.
Both sides default every coefficient but the value to ``ZERO``, absent,
and the drawn operands have absent coefficients too.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcurves import jets
from tpcurves.errors import EvalError
from tpcurves.jets import ZERO


class _HandWritten(jets._Taylor):
    """A difference as the package once took it in every ring: the sum
    with the negation, which IEEE 754 defines x - y to be."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other


class Jet2(_HandWritten):
    __slots__ = ("f", "fu", "fv", "fuu", "fuv", "fvv",
                 "fuuu", "fuuv", "fuvv", "fvvv")

    def __init__(self, f, fu=ZERO, fv=ZERO, fuu=ZERO, fuv=ZERO, fvv=ZERO,
                 fuuu=ZERO, fuuv=ZERO, fuvv=ZERO, fvvv=ZERO):
        self.f, self.fu, self.fv = f, fu, fv
        self.fuu, self.fuv, self.fvv = fuu, fuv, fvv
        self.fuuu, self.fuuv, self.fuvv, self.fvvv = fuuu, fuuv, fuvv, fvvv

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


class Jet1(_HandWritten):
    __slots__ = ("f", "d1", "d2", "d3")

    def __init__(self, f, d1=ZERO, d2=ZERO, d3=ZERO):
        self.f, self.d1, self.d2, self.d3 = f, d1, d2, d3

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


class Field2(_HandWritten):
    __slots__ = ("f", "fu", "fv", "fuu", "fuv", "fvv")

    def __init__(self, f, fu=ZERO, fv=ZERO, fuu=ZERO, fuv=ZERO, fvv=ZERO):
        self.f, self.fu, self.fv = f, fu, fv
        self.fuu, self.fuv, self.fvv = fuu, fuv, fvv

    @classmethod
    def of_jet(cls, jet):
        return cls(jet.f, jet.fu, jet.fv, jet.fuu, jet.fuv, jet.fvv)

    @classmethod
    def of_jet_du(cls, jet):
        return cls(jet.fu, jet.fuu, jet.fuv, jet.fuuu, jet.fuuv, jet.fuvv)

    @classmethod
    def of_jet_dv(cls, jet):
        return cls(jet.fv, jet.fuv, jet.fvv, jet.fuuv, jet.fuvv, jet.fvvv)

    def du(self):
        return Field1(self.fu, self.fuu, self.fuv)

    def dv(self):
        return Field1(self.fv, self.fuv, self.fvv)

    def lower(self):
        return Field1(self.f, self.fu, self.fv)

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


class Field1(_HandWritten):
    __slots__ = ("f", "fu", "fv")

    def __init__(self, f, fu=ZERO, fv=ZERO):
        self.f, self.fu, self.fv = f, fu, fv

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
        # The quotient rule; the generated rings compose the reciprocal.
        o = self._lift(other)
        if o.f == 0.0:
            raise EvalError("division by zero")
        inv = 1.0 / o.f
        f = self.f * inv
        return Field1(f, (self.fu - f * o.fu) * inv, (self.fv - f * o.fv) * inv)

    def _compose_coeffs(self, f0, f1, f2, f3):
        return Field1(f0, f1 * self.fu, f1 * self.fv)


RINGS = [(jets.Jet2, Jet2), (jets.Jet1, Jet1), (jets.Field2, Field2),
         (jets.Field1, Field1)]

UNARY = {
    "neg": operator.neg,
    **{op: operator.methodcaller(op) for op in
       ("sin", "cos", "sinh", "cosh", "tanh", "exp", "log", "sqrt")},
    **{f"^{p}": operator.methodcaller("powc", p)
       for p in (0, 1, 2, 3, 5, -1, -2, 0.5, -1.5, 2.5)},
}
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}

COEFF = st.floats(-4.0, 4.0)
ARRAY = st.lists(COEFF, min_size=3, max_size=3).map(np.array)


def coefficients(n):
    """n coefficients: all floats, or arrays of three nodes with some
    coefficients left constant, as batched jets keep them; any but the
    value may be absent."""
    partial = COEFF | st.just(ZERO)
    return st.one_of(
        st.tuples(COEFF, st.lists(partial, min_size=n - 1, max_size=n - 1)),
        st.tuples(ARRAY | COEFF,
                  st.lists(ARRAY | partial, min_size=n - 1, max_size=n - 1)),
    ).map(lambda c: [c[0], *c[1]])


def bits(x):
    return b"".join(type(c).__name__.encode() + (
        b"" if c is ZERO else np.asarray(c, float).tobytes())
        for c in map(x.__getattribute__, x.__slots__))


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or the type and message of its error."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return bits(fn(*args))
    except EvalError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("new, old", RINGS, ids=lambda r: r.__name__)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_ring_matches_hand_written(new, old, data):
    n = len(new.__slots__)
    a, b = data.draw(coefficients(n)), data.draw(coefficients(n))
    c = data.draw(COEFF)
    for name, fn in UNARY.items():
        assert outcome(fn, new(*a)) == outcome(fn, old(*a)), name
    operands = (((new(*a), new(*b)), (old(*a), old(*b))),
                ((new(*a), c), (old(*a), c)),
                ((c, new(*a)), (c, old(*a))))
    for name, fn in BINARY.items():
        if name == "/" and new is jets.Field1:
            continue  # test_field1_divides_as_field2_truncated
        for args, old_args in operands:
            assert outcome(fn, *args) == outcome(fn, *old_args), name


@given(coefficients(10))
@settings(max_examples=200, deadline=None)
def test_views_match_hand_written(a):
    new, old = jets.Jet2(*a), Jet2(*a)
    for view in ("of_jet", "of_jet_du", "of_jet_dv"):
        field_new = getattr(jets.Field2, view)(new)
        field_old = getattr(Field2, view)(old)
        assert bits(field_new) == bits(field_old), view
        for lower in ("lower", "du", "dv"):
            assert bits(getattr(field_new, lower)()) == \
                bits(getattr(field_old, lower)()), (view, lower)
    assert type(jets.Field2.of_jet(new).du()) is jets.Field1


@given(coefficients(6), coefficients(6), COEFF)
@settings(max_examples=300, deadline=None)
def test_field1_divides_as_field2_truncated(a, b, c):
    """A Field1 quotient is the Field2 quotient of any Field2 values with
    the same value and gradient, truncated."""
    f1 = lambda x: jets.Field1(*x[:3])
    f2 = jets.Field2
    for x, y, wide in ((f1(a), f1(b), (f2(*a), f2(*b))),
                       (f1(a), c, (f2(*a), c)),
                       (c, f1(a), (c, f2(*a)))):
        assert outcome(operator.truediv, x, y) == \
            outcome(lambda: operator.truediv(*wide).lower())


def test_field1_quotient_rule_differs():
    """The hand-written quotient rule rounds differently somewhere, so the
    test above does not pass by accident."""
    rng = np.random.default_rng(3)
    differ = 0
    for _ in range(200):
        a, b = rng.uniform(-4.0, 4.0, (2, 3)).tolist()
        differ += bits(jets.Field1(*a) / jets.Field1(*b)) != \
            bits(Field1(*a) / Field1(*b))
    assert differ > 0


def test_generated_terms_are_the_textbook_rules():
    """Spot checks of the tables against hand counts: 6 Leibniz terms and
    3 Faa di Bruno block counts for d^3/du^2 dv."""
    rank = {a: i for i, a in enumerate(jets._indices(2, 3))}
    assert list(jets._leibniz((2, 1), 2)) == [
        ((2, 1), 1), ((2, 0), 1), ((1, 1), 2), ((1, 0), 2), ((0, 1), 1),
        ((0, 0), 1)]
    assert [(m, dict(t)) for m, t in jets._faa_di_bruno((2, 1), 2, rank)] == [
        (3, {((1, 0), (1, 0), (0, 1)): 1}),
        (2, {((1, 0), (1, 1)): 2, ((0, 1), (2, 0)): 1}),
        (1, {((2, 1),): 1})]
    # The number of set partitions of n letters is the Bell number.
    assert [len(jets._partitions(n)) for n in range(6)] == [1, 1, 2, 5, 15, 52]
