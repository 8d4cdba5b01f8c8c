"""Recursive-descent parser for cost-function expressions.

Grammar (highest precedence first):

    atom     := NUMBER | IDENT | '(' expr ')' | 'abs' '(' expr ')'
    power    := atom ('^' UINT)*
    unary    := '-' unary | power
    term     := unary (('*' | '/') unary)*
    expr     := term (('+' | '-') term)*

Numbers are decimal literals or ``p/q`` rationals (the latter falls out of
constant division).  ``/`` is only legal with a nonzero constant divisor
and is folded into a product at parse time, so parsed trees never contain
a division node.  Exponents are nonnegative integer literals.

Parentheses, ``abs(`` and unary minus nest at most MAX_DEPTH levels, and a
number literal has at most the interpreter's integer-string digit limit
(4300 by default) before or after its point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .nodes import (Const, Expression, absval, add, const, mul, neg, power,
                    var)
from .polynomial import as_polynomial


#: nesting levels (parentheses, ``abs(`` and unary minus) a parse accepts
MAX_DEPTH = 64


class ParseError(ValueError):
    """Syntax or name error, with the 0-based offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


class UnknownVariable(ParseError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?|\.\d+)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                f"unexpected character {stripped[0]!r}",
                pos + (len(text[pos:]) - len(stripped)))
        if m.lastgroup is None:
            break
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.names = {name: i for i, name in enumerate(names)}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, value, at = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", at)
        self.advance()

    def nested(self, at: int, parse: Callable[[], Expression]) -> Expression:
        """``parse()`` one level deeper, opened by the token at ``at``."""
        if self.depth == MAX_DEPTH:
            raise ParseError(
                f"expression nested more than {MAX_DEPTH} levels deep", at)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", at)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else add(e, neg(rhs))
            else:
                return e

    def term(self) -> Expression:
        e = self.unary()
        while True:
            kind, value, at = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                if value == "*":
                    e = mul(e, rhs)
                else:
                    e = mul(e, self._reciprocal(rhs, at))
            else:
                return e

    def _reciprocal(self, divisor: Expression, at: int) -> Expression:
        if isinstance(divisor, Const) and divisor.value:
            return const(1 / divisor.value)
        p = as_polynomial(divisor)
        if p is None or not p.is_constant():
            raise ParseError("division is only allowed by a nonzero constant", at)
        value = p.constant_value()
        if value == 0:
            raise ParseError("division by zero", at)
        return const(Fraction(1) / value)

    def unary(self) -> Expression:
        kind, value, at = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return neg(self.nested(at, self.unary))
        return self.power()

    def power(self) -> Expression:
        e = self.atom()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                e = power(e, self._exponent())
            else:
                return e

    def _exponent(self) -> int:
        kind, value, at = self.peek()
        if kind != "number" or "." in value:
            raise ParseError("exponent must be a nonnegative integer", at)
        self.advance()
        return int(_literal(value, at))

    def atom(self) -> Expression:
        kind, value, at = self.advance()
        if kind == "number":
            return const(_literal(value, at))
        if kind == "ident":
            if value == "abs":
                self.expect_op("(")
                inner = self.nested(at, self.expr)
                self.expect_op(")")
                return absval(inner)
            if value not in self.names:
                raise UnknownVariable(f"unknown variable {value!r}", at)
            return var(self.names[value])
        if kind == "op" and value == "(":
            inner = self.nested(at, self.expr)
            self.expect_op(")")
            return inner
        raise ParseError(
            "expected a number, variable, or parenthesized expression"
            if kind != "end" else "unexpected end of expression", at)


def _literal(value: str, at: int) -> Fraction:
    """The value of the number token ``value`` at ``at``."""
    try:
        # an integer literal skips Fraction's string parsing
        return Fraction(value) if "." in value else Fraction(int(value))
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(
            "number literal is too long (at most "
            f"{sys.get_int_max_str_digits()} digits before or after the "
            "point)", at) from None


def parse(text: str, names: Sequence[str]) -> Expression:
    """Parse ``text`` over the declared variable ``names``."""
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return _Parser(text, names).parse()
