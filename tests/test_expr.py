"""Parser behaviour: grammar, errors, serialization round trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcurves import expr
from tpcurves.errors import (
    ArityError,
    EvalError,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from tpcurves.expr import Binary, Const, Unary, Var


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


@pytest.mark.parametrize("text,variables,error,message", [
    ("2^u", ("u",), ExpressionSyntaxError, EXPONENT_ERROR),
    ("2^log(-1)", (), ExpressionSyntaxError, EXPONENT_ERROR),
    ("2^(1/0)", (), ExpressionSyntaxError, EXPONENT_ERROR),
    ("u^v", ("u", "v"), ExpressionSyntaxError, EXPONENT_ERROR),
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
