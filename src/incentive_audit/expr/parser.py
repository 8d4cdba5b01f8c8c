"""Recursive-descent parser for cost-function expressions.

Grammar (highest precedence first):

    atom     := NUMBER | IDENT | '(' expr ')' | 'abs' '(' expr ')'
    power    := atom ('^' UINT)*
    unary    := '-' unary | power
    expr     := unary (('*' | '/' | '+' | '-') unary)*

Binary operators are read by precedence climbing, ``*`` and ``/`` at level
2 and ``+`` and ``-`` at level 1, each folded to the left.  Numbers are
decimal literals or ``p/q`` rationals (the latter falls out of constant
division).  ``/`` is only legal with a nonzero constant divisor and is
folded into a product at parse time, so parsed trees never contain a
division node.  Exponents are nonnegative integer literals.  Constant
operands are folded, so a text with no names parses to a :class:`Const`.

Parentheses, ``abs(``, unary minus and each ``^`` that builds a power node
nest at most MAX_DEPTH levels; a ``^`` chain counts on from the power
nodes its base already holds.  A number literal has at most the
interpreter's integer-string digit limit (4300 by default) before or after
its point, and a power of a constant at most that many in its numerator
and denominator.  An error message echoes at most EXCERPT_CHARS characters
of a literal (:func:`excerpt`).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .nodes import (Const, Expression, Power, Var, absval, add, cached,
                    children, const, mul, neg, power, var)
from .polynomial import as_polynomial


#: nesting levels a parse accepts
MAX_DEPTH = 64

#: characters of a literal that an error message echoes
EXCERPT_CHARS = 40


def excerpt(text: str) -> str:
    """``text`` as written, cut after EXCERPT_CHARS characters with ``…``."""
    return text if len(text) <= EXCERPT_CHARS else text[:EXCERPT_CHARS] + "…"


class ParseError(ValueError):
    """Syntax or name error: its ``message``, and its ``position``, the
    0-based offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.message = message
        self.position = position


class UnknownVariable(ParseError):
    pass


#: one token, or one character that starts none (``bad``); whitespace
#: between tokens matches nothing and is skipped
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?|\.\d+)|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
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
        self.deeper(at)
        e = parse()
        self.depth -= 1
        return e

    def deeper(self, at: int) -> None:
        """One nesting level more, opened by the token at ``at``."""
        if self.depth >= MAX_DEPTH:
            raise ParseError(
                f"expression nested more than {MAX_DEPTH} levels deep", at)
        self.depth += 1

    def parse(self) -> Expression:
        e = self.binary()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {excerpt(value)!r}",
                             at)
        return e

    def binary(self, level: int = 1) -> Expression:
        """Binary operators of ``level`` or tighter, folded to the left."""
        ops = "+-*/" if level == 1 else "*/"
        e = self.unary()
        while True:
            kind, value, at = self.peek()
            if kind != "op" or value not in ops:
                return e
            self.advance()
            if value in "*/":
                rhs = self.unary()
                e = mul(e, rhs if value == "*" else self._reciprocal(rhs, at))
            else:
                rhs = self.binary(2)
                e = add(e, rhs if value == "+" else neg(rhs))

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
        e, depth = self.atom(), self.depth
        while self.peek()[1] == "^":  # only an op token has value "^"
            at = self.advance()[2]
            kind, value, where = self.advance()
            if kind != "number" or "." in value:
                raise ParseError("exponent must be a nonnegative integer",
                                 where)
            exponent = int(_literal(value, where))
            if exponent > 1 and isinstance(e, Const):
                # refused before it is computed: size ** exponent has
                # floor(exponent * log10(size)) + 1 digits
                limit = sys.get_int_max_str_digits()
                size = max(abs(e.value.numerator), e.value.denominator)
                if limit and exponent * math.log10(size) >= limit:
                    raise ParseError("constant power would have more than "
                                     f"{limit} digits", at)
            elif exponent > 1:  # a power node: one level deeper
                if self.depth == depth:  # the first counts on from the base
                    self.depth += _powers(e)
                self.deeper(at)
            e = power(e, exponent)
        self.depth = depth
        return e

    def atom(self) -> Expression:
        kind, value, at = self.advance()
        if kind == "number":
            return const(_literal(value, at))
        if kind == "ident" and value != "abs":
            if value not in self.names:
                raise UnknownVariable(f"unknown variable {excerpt(value)!r}", at)
            return var(self.names[value])
        if value == "abs":
            self.expect_op("(")
        elif value != "(":
            raise ParseError(
                "expected a number, variable, or parenthesized expression"
                if kind != "end" else "unexpected end of expression", at)
        inner = self.nested(at, self.binary)
        self.expect_op(")")
        return absval(inner) if value == "abs" else inner


def _powers(e: Expression) -> int:
    """The most power nodes on one path down ``e``, kept on the node."""
    if isinstance(e, (Var, Const)):
        return 0
    return cached(e, "powers", lambda: (type(e) is Power)
                  + max(map(_powers, children(e))))


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
