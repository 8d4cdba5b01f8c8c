"""Expression trees for multivariate cost functions.

Nodes are frozen dataclasses: every expression is immutable after
construction, so all operations here are pure and thread-safe.  Constants
are exact rationals (``fractions.Fraction``); evaluation stays exact as
long as the supplied variable values are rational and only promotes to
floating point when a float enters the computation.  At an all-exact
profile it runs on integer numerators and denominators and forms one
Fraction, the one Python's Fraction arithmetic gives.

The node set is deliberately small: constants, variables (indexed by
agent), sums, products, nonnegative integer powers, negation, absolute
value, and a guarded division used by engine-built incentive expressions
(user input never contains a division node; the parser folds division by
a constant into a product).

Trees are built by the constructor functions below; nodes have no operator
overloads and no printer.  One table gives, per node type, a node's
children and its rebuild from new children: the structural queries recurse
through :func:`children`, and :func:`substitute` rebuilds through the
table.  Only rules that differ per node keep their own dispatch: the two
walks of evaluate (on integer pairs at an all-exact profile, in Python's
arithmetic once a float enters), diff, ``polynomial._expand`` and the
compiled emitter.

Values derived from a node (its variables, derivatives, polynomial form,
Hessian and compiled forms) are kept on the node by :func:`cached`, so a
subtree shared by several trees derives each of them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence, Union

Number = Union[int, Fraction, float]

#: the value types of an exact profile
EXACT_TYPES = frozenset((int, Fraction))

#: Denominator magnitudes at or below this threshold make a guarded
#: division evaluate to zero instead of blowing up.
DIV_GUARD = Fraction(1, 10**12)


class ExpressionError(Exception):
    """Base class for expression-level failures."""


class NonDifferentiableError(ExpressionError):
    """Raised when differentiating through an absolute-value node."""


class UnboundVariableError(ExpressionError):
    """Raised when evaluation hits a variable without an assigned value."""


def unbound(index: int) -> UnboundVariableError:
    """The error for variable ``index``, which has no assigned value."""
    return UnboundVariableError(f"variable u{index + 1} has no assigned value")


def _as_fraction(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact constant")


@dataclass(frozen=True)
class Expression:
    """Base node; use the module-level constructors to build trees."""


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


#: per node type: the node's children, and the node rebuilt from new
#: children by the constructors below (which fold constants as they build)
_NODES = {
    Const: (lambda e: (), lambda e, c: e),
    Var: (lambda e: (), lambda e, c: e),
    Sum: (lambda e: e.terms, lambda e, c: add(*c)),
    Product: (lambda e: e.factors, lambda e, c: mul(*c)),
    Power: (lambda e: (e.base,), lambda e, c: power(c[0], e.exponent)),
    Neg: (lambda e: (e.operand,), lambda e, c: neg(c[0])),
    Abs: (lambda e: (e.operand,), lambda e, c: absval(c[0])),
    SafeDiv: (lambda e: (e.numerator, e.denominator),
              lambda e, c: safediv(c[0], c[1], e.guard)),
}


def children(e: Expression) -> tuple[Expression, ...]:
    """The direct subexpressions of ``e``, in field order."""
    rule = _NODES.get(type(e))
    if rule is None:
        raise TypeError(f"unknown expression node {type(e).__name__}")
    return rule[0](e)


def cached(e: Expression, key: Hashable, compute: Callable[..., Any],
           *args: Any) -> Any:
    """``compute(*args)``, a value derived from ``e``, kept on the node
    under ``key``: computed on first use only (nodes never change), so
    callers must not mutate it."""
    memo = e.__dict__.get("_derived")
    if memo is None:
        memo = e.__dict__["_derived"] = {}
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = compute(*args)
        return value


def const(x: Number) -> Const:
    return Const(_as_fraction(x))


def var(index: int) -> Var:
    return Var(index)


def add(*terms: Expression) -> Expression:
    """Sum constructor; flattens nested sums and folds constants."""
    flat: list[Expression] = []
    consts: list[Const] = []
    for t in terms:
        for u in (t.terms if isinstance(t, Sum) else (t,)):
            (consts if isinstance(u, Const) else flat).append(u)
    if len(consts) > 1:
        acc = consts[0].value
        for c in consts[1:]:
            acc += c.value
        consts = [Const(acc)]
    if consts and consts[0].value:
        flat.append(consts[0])
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat)) if flat else ZERO


def mul(*factors: Expression) -> Expression:
    """Product constructor; flattens, folds constants, short-circuits zero."""
    flat: list[Expression] = []
    consts: list[Const] = []
    for f in factors:
        for u in (f.factors if isinstance(f, Product) else (f,)):
            (consts if isinstance(u, Const) else flat).append(u)
    if len(consts) > 1:
        acc = consts[0].value
        for c in consts[1:]:
            acc *= c.value
        consts = [Const(acc)]
    if consts:
        if not consts[0].value:
            return ZERO
        if consts[0].value != 1:
            flat.insert(0, consts[0])
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat)) if flat else ONE


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

    At an all-exact profile the tree is walked on integer pairs and the
    result normalised once; a profile holding a float takes the walk in
    Python's own arithmetic, whose Fraction-with-float promotion order
    fixes the result's bits.
    """
    if EXACT_TYPES.issuperset(map(type, values)):
        return Fraction(*_exact(e, values))
    return _walk(e, values)


def _exact(e: Expression, values: Sequence[Number]) -> tuple[int, int]:
    """``e`` at the all-exact ``values`` as integers (n, d), d > 0, for
    the rational n/d: sums over the lcm of their denominators, products
    unreduced, a guard tested by cross-multiplication."""
    t = type(e)
    if t is Var:
        if e.index >= len(values):
            raise unbound(e.index)
        v = values[e.index]
        return v.numerator, v.denominator
    if t is Const:
        return e.value.numerator, e.value.denominator
    if t is Product:
        n = d = 1
        for f in e.factors:
            fn, fd = _exact(f, values)
            n *= fn
            if not n:
                return 0, 1
            d *= fd
        return n, d
    if t is Sum:
        return rational_sum(_exact(term, values) for term in e.terms)
    if t is Power:
        n, d = _exact(e.base, values)
        return n ** e.exponent, d ** e.exponent
    if t is Neg:
        n, d = _exact(e.operand, values)
        return -n, d
    if t is Abs:
        n, d = _exact(e.operand, values)
        return abs(n), d
    if t is SafeDiv:
        dn, dd = _exact(e.denominator, values)
        if abs(dn) * e.guard.denominator <= e.guard.numerator * dd:
            return 0, 1
        n, d = _exact(e.numerator, values)
        return (n * dd, d * dn) if dn > 0 else (-n * dd, -d * dn)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def rational_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the rationals n/d of ``pairs`` (d > 0) as such a pair,
    over the lcm of their denominators: one gcd per addition, and no
    denominator grows past that lcm."""
    n, d = 0, 1
    for tn, td in pairs:
        if td == d:
            n += tn
        else:
            g = gcd(d, td)
            n = n * (td // g) + tn * (d // g)
            d = d // g * td
    return n, d


def _walk(e: Expression, values: Sequence[Number]) -> Number:
    """``e`` in Python's arithmetic: Fractions promote to float as Python
    promotes them."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index >= len(values):
            raise unbound(e.index)
        v = values[e.index]
        if isinstance(v, float):
            return v
        return _as_fraction(v)
    if isinstance(e, Sum):
        total: Number = 0
        for t in e.terms:
            total = total + _walk(t, values)
        return total
    if isinstance(e, Product):
        prod: Number = 1
        for f in e.factors:
            prod = prod * _walk(f, values)
            if prod == 0 and not isinstance(prod, float):
                return prod
        return prod
    if isinstance(e, Power):
        return _walk(e.base, values) ** e.exponent
    if isinstance(e, Neg):
        return -_walk(e.operand, values)
    if isinstance(e, Abs):
        return abs(_walk(e.operand, values))
    if isinstance(e, SafeDiv):
        den = _walk(e.denominator, values)
        if abs(den) <= e.guard:
            return 0.0 if isinstance(den, float) else Fraction(0)
        return _walk(e.numerator, values) / den
    raise TypeError(f"unknown expression node {type(e).__name__}")


def diff(e: Expression, index: int) -> Expression:
    """Symbolic partial derivative with respect to variable ``index``.

    Absolute value is refused (NonDifferentiableError); guarded division
    differentiates by the quotient rule and is valid wherever the guard
    does not trigger.  Each derivative of a compound node is built once and
    kept on the node, so a tree shared by several games has one derivative
    tree (and one compiled form of it) per variable.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == index else ZERO
    return cached(e, ("diff", index), _derivative, e, index)


def _derivative(e: Expression, index: int) -> Expression:
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
        return ZERO if db == ZERO else \
            mul(const(e.exponent), power(e.base, e.exponent - 1), db)
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
    if isinstance(e, Var):
        return assignment.get(e.index, e)
    parts = [substitute(c, assignment) for c in children(e)]
    return _NODES[type(e)][1](e, parts)


def structural_variables(e: Expression) -> frozenset[int]:
    """Variable indices appearing anywhere in the tree (no cancellation),
    kept on each compound node."""
    if isinstance(e, Var):
        return frozenset((e.index,))
    if isinstance(e, Const):
        return frozenset()
    return cached(e, "variables", _variables, e)


def _variables(e: Expression) -> frozenset[int]:
    return frozenset().union(*map(structural_variables, children(e)))


def is_smooth(e: Expression) -> bool:
    """True when the tree contains no absolute-value node."""
    return not isinstance(e, Abs) and all(map(is_smooth, children(e)))
