"""Arithmetic rate expressions.

Birth, death and cost rates are written in model files as small
formulas over the population size ``n`` and named action parameters,
for example ``"theta*(n + n^2)"``.  The grammar is deliberately tiny:

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right associative
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: ``min``/``max`` (two or more arguments) and
``pow`` (exactly two).  Literal numbers are non-negative; negation is
always an explicit node, so trees round-trip exactly through the
printer.  Evaluation is pure and accepts either scalars or numpy
arrays for the bound variables.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ExpressionSyntaxError, UnknownIdentifierError

__all__ = [
    "Lit", "Var", "Neg", "BinOp", "Call", "RateExpr", "parse_rate_expression",
]


@dataclass(frozen=True)
class Lit:
    value: float  # non-negative by construction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Lit, Var, Neg, BinOp, Call]

# function name -> (min arity, max arity or None for unbounded)
_FUNCTIONS = {"min": (2, None), "max": (2, None), "pow": (2, 2)}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<ws>\s+)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExpressionSyntaxError(
                f"expected {op!r}, found {text or 'end of input'!r}", off)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(
                f"trailing input starting with {text!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Lit(float(text))
        if kind == "name":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in _FUNCTIONS:
                    raise UnknownIdentifierError(
                        text, f"unknown function {text!r} (offset {off})")
                self.advance()
                args = [self.expr()]
                while True:
                    pkind, ptext, _ = self.peek()
                    if pkind == "op" and ptext == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                lo, hi = _FUNCTIONS[text]
                if len(args) < lo or (hi is not None and len(args) > hi):
                    raise ExpressionSyntaxError(
                        f"{text} takes {lo}{'+' if hi is None else ''} "
                        f"arguments, got {len(args)}", off)
                return Call(text, tuple(args))
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            f"expected a value, found {text or 'end of input'!r}", off)


def _eval(node: Node, env: Mapping[str, object]):
    # scalars are Python floats, so no numpy call is made per operation,
    # and every operation is total in the IEEE sense: where Python raises
    # (x/0, 0^-1, (-x)^0.5, a power that overflows) numpy computes the
    # inf or nan instead, exactly like the array path.  Model validation
    # turns non-finite rates into errors with a witness.
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        try:
            v = env[node.name]
        except KeyError:
            raise UnknownIdentifierError(node.name) from None
        return v if isinstance(v, np.ndarray) else float(v)
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            try:
                return a / b
            except ZeroDivisionError:
                return _ieee(operator.truediv, a, b)
        return _pow(a, b)
    # Call
    args = [_eval(a, env) for a in node.args]
    if node.func == "pow":
        return _pow(args[0], args[1])
    vectorized = any(isinstance(a, np.ndarray) for a in args)
    if node.func == "min":
        if vectorized:
            out = args[0]
            for a in args[1:]:
                out = np.minimum(out, a)
            return out
        return min(args)
    if vectorized:
        out = args[0]
        for a in args[1:]:
            out = np.maximum(out, a)
        return out
    return max(args)


def _pow(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a ** b
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError):
        return _ieee(operator.pow, a, b)


def _ieee(op, a: float, b: float) -> float:
    """op on two scalars in numpy's float64 arithmetic, which returns the
    inf or nan where Python raises."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return float(op(np.float64(a), np.float64(b)))


# precedence levels used by the printer; atoms sit above everything
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 2
    return 5


def _fmt_num(value: float) -> str:
    if value == math.floor(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _print(node: Node) -> str:
    if isinstance(node, Lit):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _print(node.operand)
        if _prec(node.operand) <= 2:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        lp, rp = _prec(node.left), _prec(node.right)
        left, right = _print(node.left), _print(node.right)
        if node.op == "^":
            if lp <= 4:
                left = f"({left})"
            if rp < 4:
                right = f"({right})"
            return f"{left}^{right}"
        me = _PREC[node.op]
        if lp < me:
            left = f"({left})"
        if rp <= me:  # keep right-association explicit so trees round-trip
            right = f"({right})"
        return f"{left} {node.op} {right}"
    return f"{node.func}({', '.join(_print(a) for a in node.args)})"


def _collect_vars(node: Node, out: set[str]):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.operand, out)
    elif isinstance(node, BinOp):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Call):
        for a in node.args:
            _collect_vars(a, out)


@dataclass(frozen=True)
class RateExpr:
    """An immutable expression tree.  Two RateExprs are equal exactly
    when their trees are equal, so parse(str(e)) == e."""

    root: Node

    def evaluate(self, env: Mapping[str, object]):
        """Evaluate under the bindings in env.  Values may be floats or
        numpy arrays; mixing is allowed.  Pure and total: numeric edge
        cases come back as inf/nan rather than raising, and identical
        input gives bit-identical output.  Scalars are evaluated in
        Python floats and come back as one."""
        for v in env.values():
            if isinstance(v, np.ndarray):
                with np.errstate(divide="ignore", over="ignore",
                                 invalid="ignore"):
                    return _eval(self.root, env)
        return _eval(self.root, env)

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        _collect_vars(self.root, out)
        return frozenset(out)

    def __str__(self) -> str:
        return _print(self.root)


def parse_rate_expression(text: str) -> RateExpr:
    """Parse a rate formula.

    Raises ExpressionSyntaxError (with byte offset) on malformed input
    and UnknownIdentifierError on an unknown function name.  Variable
    names are resolved only at evaluation time.
    """
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return RateExpr(_Parser(text).parse())
