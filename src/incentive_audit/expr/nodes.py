"""Expression trees for multivariate cost functions.

Nodes are frozen dataclasses: every expression is immutable after
construction, so all operations here are pure and thread-safe.  Constants
are exact rationals (``fractions.Fraction``); evaluation stays exact as
long as the supplied variable values are rational and only promotes to
floating point when a float enters the computation.

The node set is deliberately small: constants, variables (indexed by
agent), sums, products, nonnegative integer powers, negation, absolute
value, and a guarded division used by engine-built incentive expressions
(user input never contains a division node; the parser folds division by
a constant into a product).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

Number = Union[int, Fraction, float]

#: Denominator magnitudes at or below this threshold make a guarded
#: division evaluate to zero instead of blowing up.
DIV_GUARD = Fraction(1, 10**12)


class ExpressionError(Exception):
    """Base class for expression-level failures."""


class NonDifferentiableError(ExpressionError):
    """Raised when differentiating through an absolute-value node."""


class UnboundVariableError(ExpressionError):
    """Raised when evaluation hits a variable without an assigned value."""


def _as_fraction(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact constant")


@dataclass(frozen=True)
class Expression:
    """Base node; use the module-level constructors to build trees."""

    def __add__(self, other: Expression | Number) -> Expression:
        return add(self, as_expression(other))

    def __radd__(self, other: Expression | Number) -> Expression:
        return add(as_expression(other), self)

    def __sub__(self, other: Expression | Number) -> Expression:
        return add(self, neg(as_expression(other)))

    def __rsub__(self, other: Expression | Number) -> Expression:
        return add(as_expression(other), neg(self))

    def __mul__(self, other: Expression | Number) -> Expression:
        return mul(self, as_expression(other))

    def __rmul__(self, other: Expression | Number) -> Expression:
        return mul(as_expression(other), self)

    def __pow__(self, exponent: int) -> Expression:
        return power(self, exponent)

    def __neg__(self) -> Expression:
        return neg(self)


@dataclass(frozen=True)
class Const(Expression):
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _as_fraction(self.value))


@dataclass(frozen=True)
class Var(Expression):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("variable index must be nonnegative")


@dataclass(frozen=True)
class Sum(Expression):
    terms: tuple[Expression, ...]


@dataclass(frozen=True)
class Product(Expression):
    factors: tuple[Expression, ...]


@dataclass(frozen=True)
class Power(Expression):
    base: Expression
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")


@dataclass(frozen=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True)
class Abs(Expression):
    operand: Expression


@dataclass(frozen=True)
class SafeDiv(Expression):
    """Engine-built division: evaluates to 0 when |denominator| <= guard."""

    numerator: Expression
    denominator: Expression
    guard: Fraction = field(default=DIV_GUARD)


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def as_expression(x: Expression | Number) -> Expression:
    if isinstance(x, Expression):
        return x
    return Const(_as_fraction(x))


def const(x: Number) -> Const:
    return Const(_as_fraction(x))


def var(index: int) -> Var:
    return Var(index)


def add(*terms: Expression) -> Expression:
    """Sum constructor; flattens nested sums and folds constants."""
    flat: list[Expression] = []
    acc = Fraction(0)
    for t in terms:
        for u in (t.terms if isinstance(t, Sum) else (t,)):
            if isinstance(u, Const):
                acc += u.value
            else:
                flat.append(u)
    if acc != 0 or not flat:
        flat.append(Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors: Expression) -> Expression:
    """Product constructor; flattens, folds constants, short-circuits zero."""
    flat: list[Expression] = []
    acc = Fraction(1)
    for f in factors:
        for u in (f.factors if isinstance(f, Product) else (f,)):
            if isinstance(u, Const):
                acc *= u.value
            else:
                flat.append(u)
    if acc == 0:
        return ZERO
    if acc != 1:
        flat.insert(0, Const(acc))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def power(base: Expression, exponent: int) -> Expression:
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value**exponent)
    return Power(base, exponent)


def neg(e: Expression) -> Expression:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.operand
    return Neg(e)


def absval(e: Expression) -> Expression:
    if isinstance(e, Const):
        return Const(abs(e.value))
    return Abs(e)


def safediv(numerator: Expression, denominator: Expression,
            guard: Fraction = DIV_GUARD) -> Expression:
    return SafeDiv(numerator, denominator, guard)


def evaluate(e: Expression, values: Sequence[Number]) -> Number:
    """Evaluate ``e`` at the given profile.

    Exact when every input is int/Fraction; a float anywhere promotes the
    result to float.  Raises UnboundVariableError when ``e`` references a
    variable index beyond ``len(values)``.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index >= len(values):
            raise UnboundVariableError(
                f"variable u{e.index + 1} has no assigned value")
        v = values[e.index]
        if isinstance(v, float):
            return v
        return _as_fraction(v)
    if isinstance(e, Sum):
        total: Number = 0
        for t in e.terms:
            total = total + evaluate(t, values)
        return total
    if isinstance(e, Product):
        prod: Number = 1
        for f in e.factors:
            prod = prod * evaluate(f, values)
            if prod == 0 and not isinstance(prod, float):
                return prod
        return prod
    if isinstance(e, Power):
        return evaluate(e.base, values) ** e.exponent
    if isinstance(e, Neg):
        return -evaluate(e.operand, values)
    if isinstance(e, Abs):
        return abs(evaluate(e.operand, values))
    if isinstance(e, SafeDiv):
        den = evaluate(e.denominator, values)
        if abs(den) <= e.guard:
            return 0.0 if isinstance(den, float) else Fraction(0)
        return evaluate(e.numerator, values) / den
    raise TypeError(f"unknown expression node {type(e).__name__}")


def diff(e: Expression, index: int) -> Expression:
    """Symbolic partial derivative with respect to variable ``index``.

    Absolute value is refused (NonDifferentiableError); guarded division
    differentiates by the quotient rule and is valid wherever the guard
    does not trigger.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == index else ZERO
    if isinstance(e, Sum):
        return add(*(diff(t, index) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        for k, f in enumerate(e.factors):
            df = diff(f, index)
            if df == ZERO:
                continue
            rest = e.factors[:k] + e.factors[k + 1:]
            terms.append(mul(df, *rest))
        return add(*terms) if terms else ZERO
    if isinstance(e, Power):
        db = diff(e.base, index)
        if db == ZERO:
            return ZERO
        return mul(const(e.exponent), power(e.base, e.exponent - 1), db)
    if isinstance(e, Neg):
        return neg(diff(e.operand, index))
    if isinstance(e, Abs):
        raise NonDifferentiableError(
            "cannot differentiate through an absolute value node")
    if isinstance(e, SafeDiv):
        num, den = e.numerator, e.denominator
        dnum, dden = diff(num, index), diff(den, index)
        return safediv(add(mul(dnum, den), neg(mul(num, dden))),
                       mul(den, den), e.guard * e.guard)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def substitute(e: Expression, assignment: Mapping[int, Expression]) -> Expression:
    """Replace variables by expressions (typically constants)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return assignment.get(e.index, e)
    if isinstance(e, Sum):
        return add(*(substitute(t, assignment) for t in e.terms))
    if isinstance(e, Product):
        return mul(*(substitute(f, assignment) for f in e.factors))
    if isinstance(e, Power):
        return power(substitute(e.base, assignment), e.exponent)
    if isinstance(e, Neg):
        return neg(substitute(e.operand, assignment))
    if isinstance(e, Abs):
        return absval(substitute(e.operand, assignment))
    if isinstance(e, SafeDiv):
        return safediv(substitute(e.numerator, assignment),
                       substitute(e.denominator, assignment), e.guard)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def structural_variables(e: Expression) -> frozenset[int]:
    """Variable indices appearing anywhere in the tree (no cancellation)."""
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.index,))
    if isinstance(e, Sum):
        return frozenset(itertools.chain(*(structural_variables(t) for t in e.terms)))
    if isinstance(e, Product):
        return frozenset(itertools.chain(*(structural_variables(f) for f in e.factors)))
    if isinstance(e, Power):
        return structural_variables(e.base)
    if isinstance(e, (Neg, Abs)):
        return structural_variables(e.operand)
    if isinstance(e, SafeDiv):
        return structural_variables(e.numerator) | structural_variables(e.denominator)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def is_smooth(e: Expression) -> bool:
    """True when the tree contains no absolute-value node."""
    if isinstance(e, Abs):
        return False
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Sum):
        return all(is_smooth(t) for t in e.terms)
    if isinstance(e, Product):
        return all(is_smooth(f) for f in e.factors)
    if isinstance(e, Power):
        return is_smooth(e.base)
    if isinstance(e, Neg):
        return is_smooth(e.operand)
    if isinstance(e, SafeDiv):
        return is_smooth(e.numerator) and is_smooth(e.denominator)
    raise TypeError(f"unknown expression node {type(e).__name__}")


_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 0, 1, 2, 3, 4


def to_text(e: Expression, names: Sequence[str] | None = None) -> str:
    """Render an expression back to grammar-compatible text."""

    def name(i: int) -> str:
        if names is not None and i < len(names):
            return names[i]
        return f"u{i + 1}"

    def fmt_const(v: Fraction) -> tuple[str, int]:
        if v.denominator == 1:
            s = str(v.numerator)
        else:
            s = f"{v.numerator}/{v.denominator}"
        return (s, _PREC_UNARY if v < 0 else _PREC_ATOM)

    def go(node: Expression) -> tuple[str, int]:
        if isinstance(node, Const):
            return fmt_const(node.value)
        if isinstance(node, Var):
            return (name(node.index), _PREC_ATOM)
        if isinstance(node, Sum):
            parts = []
            for k, t in enumerate(node.terms):
                s, p = go(t)
                if k == 0:
                    parts.append(s if p >= _PREC_SUM else f"({s})")
                elif s.startswith("-"):
                    parts.append(f"- {s[1:]}")
                else:
                    parts.append(f"+ {s}")
            return (" ".join(parts), _PREC_SUM)
        if isinstance(node, Product):
            parts = []
            for f in node.factors:
                s, p = go(f)
                parts.append(s if p > _PREC_SUM else f"({s})")
            return ("*".join(parts), _PREC_PROD)
        if isinstance(node, Power):
            s, p = go(node.base)
            base = s if p >= _PREC_ATOM else f"({s})"
            return (f"{base}^{node.exponent}", _PREC_POW)
        if isinstance(node, Neg):
            s, p = go(node.operand)
            inner = s if p >= _PREC_UNARY else f"({s})"
            return (f"-{inner}", _PREC_UNARY)
        if isinstance(node, Abs):
            s, _ = go(node.operand)
            return (f"abs({s})", _PREC_ATOM)
        if isinstance(node, SafeDiv):
            ns, np_ = go(node.numerator)
            ds, dp = go(node.denominator)
            num = ns if np_ > _PREC_SUM else f"({ns})"
            den = ds if dp >= _PREC_ATOM else f"({ds})"
            return (f"{num}/{den}", _PREC_PROD)
        raise TypeError(f"unknown expression node {type(node).__name__}")

    return go(e)[0]
