"""Expression parsing and evaluation for surface and curve definitions.

Grammar (usual infix precedence, left-associative except ``^``):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?
    atom    := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

``^`` binds tighter than unary minus, so ``-u^2`` is ``-(u^2)``.  The
exponent of ``^`` must fold to a constant at parse time; general ``f^g``
is rejected.  ``pi`` is a built-in constant.  Known functions: sin, cos,
sinh, cosh, tanh, exp, log, sqrt.  Angles are radians.  Nesting deeper
than :data:`MAX_NESTING` levels, or a tree more than :data:`MAX_HEIGHT`
operations high, is a syntax error.

Parsed trees are immutable; evaluation is a pure function of the tree and
an environment mapping variable names to numbers or jets, so trees can be
shared freely across threads.
"""

import math
from dataclasses import dataclass
from typing import Union

from .errors import (
    ArityError,
    EvalError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)

__all__ = [
    "Const", "Var", "Unary", "Binary", "Node",
    "parse_expression", "parse_components", "parse_constant",
    "evaluate", "to_text", "FUNCTIONS", "MAX_NESTING",
    "MAX_HEIGHT",
]

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "tanh", "exp", "log", "sqrt")

_CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a function name
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # "+", "-", "*", "/", "^"
    lhs: "Node"
    rhs: "Node"


Node = Union[Const, Var, Unary, Binary]


# --- tokenizer ---------------------------------------------------------

_PUNCTUATION = {"(": "lparen", ")": "rparen", ",": "comma",
                **dict.fromkeys("+-*/^", "op")}


def _tokenize(text):
    """Yield (kind, value, position) triples; kinds: num, ident, op, lparen,
    rparen, comma, end."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(("num", float(text[start:i]), start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        if c in _PUNCTUATION:
            tokens.append((_PUNCTUATION[c], c, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# Every tree the parser accepts stays within Python's default recursion
# limit (1000 frames): parentheses, calls, unary minus and ``^`` nest at
# most MAX_NESTING deep (the parser recurses 6 frames into each), and a
# tree, chains of + - * / included, is at most MAX_HEIGHT operations high
# (evaluating it over any ring, and to_text, take a frame for each).
MAX_NESTING = 64
MAX_HEIGHT = 320


def _above(height, pos):
    """The height of an operation at ``pos`` over operands at most
    ``height`` high; ExpressionSyntaxError there past MAX_HEIGHT."""
    if height >= MAX_HEIGHT:
        raise ExpressionSyntaxError(
            f"expression more than {MAX_HEIGHT} operations high", pos)
    return height + 1


class _Parser:
    """Recursive descent; each parse method returns a tree and its height,
    the most operations on a path down from its root."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = frozenset(variables)
        self.depth = 0  # levels open around the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {what}", tok[2])
        return self.advance()

    def nested(self, pos, parse):
        """``parse()`` one level deeper, opened by the token at ``pos``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", pos)
        out = parse()
        self.depth -= 1
        return out

    def parse_expr(self):
        node, height = self.parse_term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, pos = self.advance()
            rhs, rhs_height = self.parse_term()
            node, height = Binary(op, node, rhs), _above(
                max(height, rhs_height), pos)
        return node, height

    def parse_term(self):
        node, height = self.parse_unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op, pos = self.advance()
            rhs, rhs_height = self.parse_unary()
            node, height = Binary(op, node, rhs), _above(
                max(height, rhs_height), pos)
        return node, height

    def parse_unary(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            arg, height = self.nested(tok[2], self.parse_unary)
            return Unary("neg", arg), _above(height, tok[2])
        return self.parse_power()

    def parse_power(self):
        node, height = self.parse_atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            caret_pos = self.advance()[2]
            rhs = self.nested(caret_pos, self.parse_unary)[0]  # the exponent
            try:
                value = evaluate(rhs, {}, float)
            except (EvalError, KeyError):  # KeyError: a variable
                value = math.nan
            if not math.isfinite(value):
                raise ExpressionSyntaxError(
                    "exponent must be a finite constant expression", caret_pos)
            node = Binary("^", node, Const(value))
            height = _above(height, caret_pos)
        return node, height

    def parse_atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            return Const(value), 0
        if kind == "ident":
            if self.peek()[0] == "lparen":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(value, pos)
                self.advance()
                arg, height = self.nested(pos, self.parse_expr)
                if self.peek()[0] == "comma":
                    raise ArityError(
                        f"function '{value}' takes exactly one argument",
                        self.peek()[2])
                self.expect("rparen", "')'")
                return Unary(value, arg), _above(height, pos)
            if value in self.variables:
                return Var(value), 0
            if value in _CONSTANTS:
                return Const(_CONSTANTS[value]), 0
            raise UnknownIdentifierError(value, pos)
        if kind == "lparen":
            inner = self.nested(pos, self.parse_expr)  # a tree, its height
            self.expect("rparen", "')'")
            return inner
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", pos)
        raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)


def parse_expression(text, variables):
    """Parse one expression over the given variable names."""
    parser = _Parser(_tokenize(text), variables)
    node = parser.parse_expr()[0]
    tok = parser.peek()
    if tok[0] != "end":
        raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
    return node


def parse_components(text, variables, count):
    """Parse ``count`` comma-separated expressions, optionally parenthesized
    as a whole, e.g. ``(u, v, 0)``."""
    tokens = _tokenize(text)
    # Strip one outer paren pair if it encloses the entire list.
    if tokens[0][0] == "lparen" and tokens[-2][0] == "rparen":
        depth = 0
        encloses = True
        for idx, tok in enumerate(tokens[:-1]):
            if tok[0] == "lparen":
                depth += 1
            elif tok[0] == "rparen":
                depth -= 1
                if depth == 0 and idx != len(tokens) - 2:
                    encloses = False
                    break
        if encloses:
            tokens = tokens[1:-2] + [tokens[-1]]
    parser = _Parser(tokens, variables)
    nodes = [parser.parse_expr()[0]]
    while parser.peek()[0] == "comma":
        parser.advance()
        nodes.append(parser.parse_expr()[0])
    tok = parser.peek()
    if tok[0] != "end":
        raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
    if len(nodes) != count:
        raise ArityError(f"expected {count} components, got {len(nodes)}")
    return tuple(nodes)


def parse_constant(text):
    """Parse an expression with no variables and evaluate it to a float."""
    return evaluate(parse_expression(text, ()), {}, float)


# --- evaluation --------------------------------------------------------

_FLOAT_FUNCS = {
    "sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh,
    "tanh": math.tanh, "exp": math.exp,
}


def _apply_unary_float(op, x):
    if op == "log":
        if x <= 0.0:
            raise EvalError(f"log of non-positive value {x}")
        return math.log(x)
    if op == "sqrt":
        if x < 0.0:
            raise EvalError(f"sqrt of negative value {x}")
        return math.sqrt(x)
    try:
        return _FLOAT_FUNCS[op](x)
    except (OverflowError, ValueError) as exc:
        raise EvalError(f"{op} at {x!r}: {exc}") from exc


def _apply_binary_float(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise EvalError("division by zero")
        return a / b
    # "^": constant exponent
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError) as exc:
        raise EvalError(f"{a} ** {b} undefined: {exc}") from exc


def evaluate(node, env, lift):
    """Evaluate a tree over the ring of the environment values.

    ``env`` maps variable names to ring elements (floats or jets); ``lift``
    turns a float constant into a ring element (e.g. ``Jet2.const``).
    """
    if isinstance(node, Const):
        return lift(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Unary):
        arg = evaluate(node.arg, env, lift)
        if node.op == "neg":
            return -arg
        if isinstance(arg, float):
            return _apply_unary_float(node.op, arg)
        return getattr(arg, node.op)()
    lhs = evaluate(node.lhs, env, lift)
    if node.op == "^":
        exponent = node.rhs.value
        if isinstance(lhs, float):
            return _apply_binary_float("^", lhs, exponent)
        return lhs.powc(exponent)
    rhs = evaluate(node.rhs, env, lift)
    if isinstance(lhs, float) and isinstance(rhs, float):
        return _apply_binary_float(node.op, lhs, rhs)
    if node.op == "+":
        return lhs + rhs
    if node.op == "-":
        return lhs - rhs
    if node.op == "*":
        return lhs * rhs
    return lhs / rhs


# --- serialization -----------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, (Const, Var)):
        return 5
    if isinstance(node, Unary):
        return _PREC["neg"] if node.op == "neg" else 5
    return _PREC[node.op]


def to_text(node):
    """Serialize a tree; reparsing yields a structurally identical tree."""
    if isinstance(node, Const):
        if node.value < 0.0:
            return f"({node.value!r})"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_text(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_text(node.arg)})"
    lhs = to_text(node.lhs)
    rhs = to_text(node.rhs)
    if _prec(node.lhs) < _PREC[node.op] or (
            node.op == "^" and _prec(node.lhs) <= _PREC["^"]):
        lhs = f"({lhs})"
    # Right operand needs parens at equal precedence for the
    # left-associative operators.
    if _prec(node.rhs) <= _PREC[node.op] and node.op != "^":
        rhs = f"({rhs})"
    return f"{lhs} {node.op} {rhs}" if node.op != "^" else f"{lhs}^{rhs}"
