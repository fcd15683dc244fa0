"""Value numbering in the recording: four identities that IEEE 754 makes
exact, and no other rewrite.

``jets._Traced`` records a sum's or product's operands in one order,
takes a negated operand into a sum or difference (``a + (-b)`` is
``a - b``), hoists a negation out of a product or quotient (``(-a)*b`` is
``-(a*b)``) and records ``-(-a)`` as ``a``.  Guards and calls record as
they are.  The unit cases pin each rewrite; the property runs random
graphs of ``+ - * /`` and negation, compiled by ``straight_line``, against
their direct evaluation at IEEE 754's edge values, on floats and on
arrays of nodes.
"""

import math
import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcurves import jets
from tpcurves.jets import Field2, Jet1


def recorded(build, params=("a", "b")):
    """The recorded lines of ``build(*params)`` over traced floats, and its
    rendered statements with the returned text."""
    lines, leaves, out = jets._record(lambda ring, *x: build(*x), params,
                                      Jet1)
    return lines, jets._render(lines, leaves) + ["return " + out]


def test_a_ring_difference_records_one_subtraction():
    for ring in (Jet1, Field2):
        lines, _ = recorded(lambda a, b: (ring(a) - ring(b)).f)
        assert lines == [("t0", "{} - {}", ("a", "b"))]
        lines, _ = recorded(lambda a, b: (2.0 - ring(a)).f)
        assert lines == [("t0", "{} - {}", ("2.0", "a"))]


def test_a_sum_or_product_has_one_name_in_either_order():
    lines, body = recorded(lambda a, b: (a * b, b * a, a + b, b + a))
    assert [line[1:] for line in lines] == [("{} * {}", ("a", "b")),
                                            ("{} + {}", ("a", "b"))]
    assert body[-1] == "return (t0, t0, t1, t1, )"


def test_a_double_negation_emits_nothing():
    assert recorded(lambda a, b: -(-a)) == ([], ["return a"])


# Each graph of a, b with the one statement it renders to.  A negation is
# recorded where it is first read, so one taken in is never recorded.
TAKEN_IN = [
    (lambda a, b: a + (-b), "t0 = a - b"),
    (lambda a, b: (-a) + b, "t0 = b - a"),
    (lambda a, b: a - (-b), "t0 = a + b"),
    (lambda a, b: b - (-a), "t0 = a + b"),  # the sum's one order
    (lambda a, b: (-a) * b, "t1 = -(a * b)"),
    (lambda a, b: a / (-b), "t1 = -(a / b)"),
    (lambda a, b: (-a) * (-b), "t0 = a * b"),
    (lambda a, b: (-a) / (-b), "t0 = a / b"),
    # -(a + b) would turn a = 0.0, b = -0.0 into -0.0: kept as it is.
    (lambda a, b: (-a) - b, "t1 = (-a) - b"),
]


def test_negated_operands_are_taken_in_or_hoisted_out():
    for build, statement in TAKEN_IN:
        lines, body = recorded(build)
        name = statement.split()[0]
        assert body == [statement, "return " + name]
        assert len(lines) == int(name[1:]) + 1  # nothing left unread


def test_guards_and_calls_record_as_they_are():
    def build(a, b):
        x = -a
        x <= 0.0  # a singular test: a guard
        return a.sin(x), -(-a) * b
    lines, _ = recorded(build)
    assert lines == [("t0", "-{}", ("a",)),
                     (None, "{} <= {}", ("t0", "0.0")),
                     ("t2", "sin({})", ("t0",)),
                     ("t3", "{} * {}", ("a", "b"))]


# IEEE 754's edge values: signed zeros, the least subnormal, a normal
# value, the greatest magnitude near overflow, infinities and NaN.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, 1e308, -1e308,
         math.inf, -math.inf, math.nan]
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


@st.composite
def graphs(draw):
    """(param count, constants, steps): each step negates a value or
    combines two, by index into the params, constants and earlier steps."""
    n = draw(st.integers(2, 3))
    consts = draw(st.lists(st.sampled_from(EDGES), max_size=2))
    steps = []
    for k in range(draw(st.integers(1, 12))):
        index = st.integers(0, n + len(consts) + k - 1)
        steps.append((draw(st.sampled_from(["neg", *OPS])), draw(index),
                      draw(index)))
    return n, consts, steps


def build_of(n, consts, steps):
    """The graph as a float function of its params, returning every step."""
    def build(*params):
        values = [*params, *consts]
        for op, i, j in steps:
            x, y = values[i], values[j]
            values.append(-x if op == "neg" else OPS[op](x, y))
        return tuple(values[n + len(consts):])
    return build


def direct(build, args):
    """``build(*args)`` under the program's error states, None where it
    raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="raise"):
            return build(*args)
    except ArithmeticError:
        return None


def floats(x, size):
    return np.broadcast_to(np.asarray(x, float), (size,)).tolist()


def assert_same_bits(got, want, size):
    assert (got is None) == (want is None), (got, want)
    for g, w in zip(got or (), want or (), strict=True):
        for x, y in zip(floats(g, size), floats(w, size)):
            assert math.isnan(x) == math.isnan(y), (x, y)
            if not math.isnan(y):
                assert x == y and math.copysign(1.0, x) == \
                    math.copysign(1.0, y), (x, y)


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_programs_keep_the_bits_of_the_direct_evaluation(graph, data):
    n, consts, steps = graph
    build = build_of(n, consts, steps)
    params = ("a", "b", "c")[:n]
    try:
        program = jets.straight_line(lambda ring, *x: build(*x), params,
                                     Jet1)
    except ZeroDivisionError:  # constants alone divide by zero
        program = lambda *args: None  # noqa: E731
    point = data.draw(st.lists(st.sampled_from(EDGES), min_size=n,
                               max_size=n))
    assert_same_bits(program(*point), direct(build, point), 1)
    nodes = [np.array(data.draw(st.lists(st.sampled_from(EDGES),
                                         min_size=8, max_size=8)))
             for _ in params]
    assert_same_bits(program(*nodes), direct(build, nodes), 8)
