"""Parser behaviour: grammar, errors, serialization round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcurves import expr, parse_curve, parse_surface, tangency_gradient
from tpcurves.errors import (
    ArityError,
    EvalError,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from tpcurves.expr import Binary, Const, Unary, Var
from tpcurves.jets import Field1, Field2, Jet2
from tpcurves.surface import ambient_jet


def ev(text, **env):
    node = expr.parse_expression(text, tuple(env))
    return expr.evaluate(node, {k: float(v) for k, v in env.items()}, float)


def test_precedence():
    assert ev("1 + 2*3") == 7.0
    assert ev("2*3 + 1") == 7.0
    assert ev("(1 + 2)*3") == 9.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("1 - 2 - 3") == -4.0  # left-associative
    assert ev("12/2/3") == 2.0


def test_pow_binds_tighter_than_unary_minus():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^-1") == 0.5


def test_functions_and_pi():
    assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
    assert ev("cosh(0)") == 1.0
    assert ev("exp(log(3))") == pytest.approx(3.0, rel=1e-15)
    assert ev("sqrt(u)", u=9.0) == 3.0


def test_float_overflow_is_eval_error():
    with pytest.raises(EvalError, match="range error"):
        ev("exp(u)", u=1000.0)
    with pytest.raises(EvalError):
        ev("u^2.5", u=1e200)


def test_variables_scoped():
    assert ev("u*v", u=2.0, v=3.0) == 6.0
    with pytest.raises(UnknownIdentifierError):
        expr.parse_expression("u*t", ("u", "v"))


def test_unknown_function():
    with pytest.raises(UnknownIdentifierError):
        expr.parse_expression("foo(u)", ("u",))


def test_function_arity():
    with pytest.raises(ArityError):
        expr.parse_expression("sin(u, u)", ("u",))


def test_unbalanced_paren_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse_components("(u, v", ("u", "v"), 3)
    assert isinstance(err.value.position, int)


def test_component_count():
    with pytest.raises(ArityError):
        expr.parse_components("(u, v)", ("u", "v"), 3)


def test_nonconstant_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse_expression("u^v", ("u", "v"))
    # constant subexpressions fold
    node = expr.parse_expression("u^(1 + 1)", ("u",))
    assert node == Binary("^", Var("u"), Const(2.0))


def test_singular_constant_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError):
        expr.parse_expression("u^(1/0)", ("u",))


def test_components_outer_parens_optional():
    with_parens = expr.parse_components("(u, v, 0)", ("u", "v"), 3)
    without = expr.parse_components("u, v, 0", ("u", "v"), 3)
    assert with_parens == without


def test_parse_constant():
    assert expr.parse_constant("2*pi") == pytest.approx(2.0 * math.pi)
    assert expr.parse_constant("pi - 0.15") == pytest.approx(math.pi - 0.15)


EXPONENT_ERROR = ("exponent must be a finite constant expression"
                  " (at position 1)")
LIMIT, HEIGHT = expr.MAX_NESTING, expr.MAX_HEIGHT
TOO_DEEP = f"expression nested deeper than {LIMIT} levels (at position {{}})"
TOO_HIGH = f"expression more than {HEIGHT} operations high (at position {{}})"


@pytest.mark.parametrize("text,variables,error,message", [
    ("2^u", ("u",), ExpressionSyntaxError, EXPONENT_ERROR),
    ("2^log(-1)", (), ExpressionSyntaxError, EXPONENT_ERROR),
    ("2^(1/0)", (), ExpressionSyntaxError, EXPONENT_ERROR),
    ("u^v", ("u", "v"), ExpressionSyntaxError, EXPONENT_ERROR),
    # At the nesting limit the parser reads on to the identifier; one more
    # level is rejected at the parenthesis that opens it, and a chain one
    # operation too high at its last operator.
    pytest.param("(" * LIMIT + "w" + ")" * LIMIT, ("u",),
                 UnknownIdentifierError,
                 f"unknown identifier 'w' (at position {LIMIT})",
                 id="parentheses at the limit"),
    pytest.param("(" * (LIMIT + 1) + "u" + ")" * (LIMIT + 1), ("u",),
                 ExpressionSyntaxError, TOO_DEEP.format(LIMIT),
                 id="parentheses past the limit"),
    pytest.param("u" + "+u" * (HEIGHT + 1), ("u",), ExpressionSyntaxError,
                 TOO_HIGH.format(2 * HEIGHT + 1), id="a sum past the limit"),
])
def test_exponent_error_texts(text, variables, error, message):
    with pytest.raises(error) as info:
        expr.parse_expression(text, variables)
    assert str(info.value) == message


@pytest.mark.parametrize("text,error,message", [
    ("2^u", UnknownIdentifierError, "unknown identifier 'u' (at position 2)"),
    ("2^log(-1)", ExpressionSyntaxError, EXPONENT_ERROR),
    ("2^(1/0)", ExpressionSyntaxError, EXPONENT_ERROR),
    ("1/0", EvalError, "division by zero"),
    ("log(-1)", EvalError, "log of non-positive value -1.0"),
])
def test_parse_constant_error_texts(text, error, message):
    with pytest.raises(error) as info:
        expr.parse_constant(text)
    assert type(info.value) is error
    assert str(info.value) == message


# Each kind of nesting: the text at n levels, the limit on n, and the
# error at one level past it, at the token that opens that level.
NESTING = {
    "parentheses": (lambda n: "(" * n + "u" + ")" * n,
                    LIMIT, TOO_DEEP.format(LIMIT)),
    "calls": (lambda n: "sin(" * n + "u" + ")" * n,
              LIMIT, TOO_DEEP.format(4 * LIMIT)),
    "unary minus": (lambda n: "-" * n + "u", LIMIT, TOO_DEEP.format(LIMIT)),
    "powers": (lambda n: "u" + "^1" * n,
               LIMIT, TOO_DEEP.format(2 * LIMIT + 1)),
    "a minus in an exponent": (lambda n: "u^" + "-" * (n - 1) + "1",
                               LIMIT, TOO_DEEP.format(LIMIT + 1)),
    "a chain": (lambda n: "u" + "*v" * n, HEIGHT,
                TOO_HIGH.format(2 * HEIGHT + 1)),
    # Each call is one operation more: the outermost is one too many.
    "a chain in calls": (
        lambda n: "sin(" * LIMIT + "u" + "-v" * (n - LIMIT) + ")" * LIMIT,
        HEIGHT, TOO_HIGH.format(0)),
    # The parser's deepest stack: an exponent, evaluated while parsing, as
    # high as a tree may be, as deep as the parser goes.
    "a chain in an exponent": (
        lambda n: "(" * (LIMIT - 2) + "u^(1" + "*1" * n + ")" * (LIMIT - 1),
        HEIGHT, TOO_HIGH.format(LIMIT + 2 + 2 * HEIGHT)),
}


@pytest.mark.parametrize("kind", sorted(NESTING))
def test_a_tree_at_the_nesting_limit_runs_everywhere(kind):
    """A tree the parser accepts evaluates over every ring, records every
    program and goes back to text within the default recursion limit."""
    text, limit, error = NESTING[kind]
    with pytest.raises(ExpressionSyntaxError) as info:
        expr.parse_expression(text(limit + 1), ("u", "v"))
    assert str(info.value) == error
    patch = parse_surface(f"(u, v, {text(limit)})", (0.0, 1.0), (0.0, 1.0))
    tree = patch.components[2]
    # Compared as text: a tree's == recurses three frames a level.
    again = expr.parse_expression(expr.to_text(tree), ("u", "v"))
    assert expr.to_text(again) == expr.to_text(tree)
    u, v = np.array([0.5, 0.25]), np.array([0.75, 0.5])
    for ring in (Jet2, Field2, Field1):
        expr.evaluate(tree, {"u": ring(0.5, fu=1.0), "v": ring(0.75, fv=1.0)},
                      ring.const)
    expr.evaluate(tree, {"u": 0.5, "v": 0.75}, float)
    patch.jet_batch(u, v)  # the tree walk over Jet2 arrays
    patch._program("record")(u, v)  # the record program, over Jet2
    patch.metric_batch(u, v)  # the metric program, over Field2
    tangency_gradient(patch, 0.5, 0.75)  # the tracer's walk
    ambient_jet(patch, parse_curve("t", "0.5", (0.0, 1.0)), u)  # over Jet1


# --- serialization round trips ------------------------------------------

def _ast_strategy():
    leaf = st.one_of(
        st.builds(Const, st.floats(min_value=0.0, max_value=100.0,
                                   allow_nan=False, allow_infinity=False)),
        st.sampled_from([Var("u"), Var("v")]),
    )

    def extend(children):
        unary = st.builds(
            Unary,
            st.sampled_from(("neg",) + expr.FUNCTIONS),
            children)
        binary = st.builds(
            Binary, st.sampled_from("+-*/"), children, children)
        power = st.builds(
            Binary, st.just("^"), children,
            st.builds(Const, st.sampled_from([-3.0, -1.0, 0.0, 2.0, 3.0])))
        return st.one_of(unary, binary, power)

    return st.recursive(leaf, extend, max_leaves=12)


@given(_ast_strategy())
@settings(max_examples=150, deadline=None)
def test_serialize_reparse_identical(node):
    text = expr.to_text(node)
    assert expr.parse_expression(text, ("u", "v")) == node


@given(st.text(alphabet="uv t0123456789.+-*/^(),abcqs_", max_size=40))
@settings(max_examples=300, deadline=None)
def test_parsing_total(text):
    """Any string parses or raises a library error; nothing else escapes."""
    try:
        expr.parse_expression(text, ("u", "v"))
    except ExpressionError as exc:
        pos = getattr(exc, "position", None)
        if pos is not None:
            assert 0 <= pos <= len(text)
