"""Canonical polynomial form: expansion, dependency and separability analysis.

A Polynomial maps monomials to exact rational coefficients.  Monomial keys
are tuples of ``(variable index, exponent)`` pairs, sorted by variable,
with zero exponents dropped; the empty tuple is the constant monomial.
Expansion is the canonical form used for structural equality, dependency
detection and separability checks.  Trees containing absolute-value or
guarded-division nodes have no polynomial form and yield ``None``, which
keeps downstream structure checks conservative (:func:`dependencies`
then recurses through ``children`` to the polynomial subtrees).

Each polynomial also keeps, per agent axis, a :class:`LinePlan`: its
terms grouped by that agent's exponent, each coefficient as a Fraction
and as a float.  Only the plan forms the polynomial's restriction to the
axis: :meth:`LinePlan.coefficients` sums the line's coefficients at any
profile, float, exact or mixed, with the types and values exact
arithmetic gives them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .nodes import (
    Abs,
    Const,
    Expression,
    Neg,
    Number,
    Power,
    Product,
    SafeDiv,
    Sum,
    Var,
    add,
    cached,
    children,
    const,
    diff,
    mul,
    power,
    var,
)

Monomial = tuple[tuple[int, int], ...]

#: a term of a coupled line coefficient: its coefficient as a Fraction and
#: as a float, and the (index, exponent) factors of the other agents
LineTerm = tuple[Fraction, float, Monomial]


class LineGroup(NamedTuple):
    """The terms of a polynomial that carry one power ``k`` of the axis.

    A coupled group keeps its terms in monomial order.  An exact group
    (no factor of another agent, so one own-axis monomial at most) has no
    terms; it keeps its coefficient ``c`` (0 when no monomial carries
    ``k``) with ``float(c)`` and ``float(k * c)``, the float coefficient
    of the line and of its derivative.
    """

    terms: tuple[LineTerm, ...]
    coeff: Optional[Fraction] = None
    value: Optional[float] = None
    derivative: Optional[float] = None


class LinePlan(NamedTuple):
    """A polynomial along one agent's axis: one group per power of the
    axis, lowest first."""

    groups: tuple[LineGroup, ...]

    def coefficients(self, values: Sequence[Number]) -> list[Number]:
        """Ascending coefficients of the line with the other agents at
        ``values``, exact when the actions they read are exact.

        Each is the sum ``0 + t_1 + t_2 + ...`` of its group's terms, a
        term being its coefficient times the other agents' factors, left
        to right, so Fractions and floats mix as Python mixes them.  A
        Fraction times or plus a float is its float times or plus that
        float, so a term whose first factor is a float starts from the
        float coefficient: the same value, without Fraction arithmetic.
        """
        coeffs: list[Number] = []
        for group in self.groups:
            if not group.terms:
                coeffs.append(group.coeff)
                continue
            total: Number = 0
            for c, fc, others in group.terms:
                if others:
                    term = fc if type(values[others[0][0]]) is float else c
                    for idx, e in others:
                        term = term * values[idx] ** e
                else:
                    term = fc if type(total) is float else c
                total = total + term
            coeffs.append(total)
        return coeffs

    def float_line(self, coeffs: Sequence[Number]
                   ) -> tuple[list[float], list[float]]:
        """The line of :meth:`coefficients` ``coeffs`` and its derivative
        in floats; an exact group gives the floats it keeps."""
        groups = self.groups
        line = [float(c) if g.terms else g.value
                for g, c in zip(groups, coeffs)]
        slope = [float(k * coeffs[k]) if groups[k].terms
                 else groups[k].derivative for k in range(1, len(coeffs))]
        return line, slope


class Polynomial:
    """Multivariate polynomial with Fraction coefficients."""

    # _line_plans is set on the first line_plan call only
    __slots__ = ("terms", "_line_plans")

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[mono] = coeff

    @staticmethod
    def constant(value: Number) -> "Polynomial":
        return Polynomial({(): Fraction(value)})

    @staticmethod
    def variable(index: int) -> "Polynomial":
        return Polynomial({((index, 1),): Fraction(1)})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Polynomial({self.terms!r})"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _merge_monomials(m1, m2)
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Polynomial(out)

    def __pow__(self, exponent: int) -> "Polynomial":
        result = Polynomial.constant(1)
        base = self
        k = exponent
        while k > 0:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for mono in self.terms:
            for idx, _ in mono:
                out.add(idx)
        return frozenset(out)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max((sum(e for _, e in mono) for mono in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def quadratic_form(self, n: int) -> Optional[tuple[list[list[Fraction]], list[Fraction]]]:
        """Decompose a degree<=2 polynomial as (1/2) u'Qu + b'u + constant.

        Q is symmetric with exact entries; returns None for degree > 2.
        """
        if self.degree() > 2:
            return None
        Q = [[Fraction(0)] * n for _ in range(n)]
        b = [Fraction(0)] * n
        for mono, coeff in self.terms.items():
            if len(mono) == 1:
                idx, exp = mono[0]
                if exp == 1:
                    b[idx] = coeff
                else:
                    Q[idx][idx] = 2 * coeff
            elif mono:
                (i, _), (j, _) = mono
                Q[i][j] += coeff
                Q[j][i] += coeff
        return Q, b

    def to_expression(self) -> Expression:
        """Canonical expression: monomials in graded-lexicographic order."""
        if not self.terms:
            return const(0)

        def key(mono: Monomial):
            return (sum(e for _, e in mono), mono)

        parts = []
        for mono in sorted(self.terms, key=key):
            coeff = self.terms[mono]
            factors: list[Expression] = [const(coeff)]
            for idx, exp in mono:
                factors.append(power(var(idx), exp))
            parts.append(mul(*factors))
        return add(*parts)

    def line_plan(self, i: int) -> LinePlan:
        """The plan of this polynomial along axis ``i``, built once."""
        try:
            plans = self._line_plans
        except AttributeError:
            plans = self._line_plans = {}
        plan = plans.get(i)
        if plan is None:
            plan = plans[i] = _line_plan(self.terms, i)
        return plan

    def to_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Float coefficient vector and (m, n) exponent matrix for kernels."""
        m = max(len(self.terms), 1)
        coeffs = np.zeros(m, dtype=np.float64)
        exps = np.zeros((m, n), dtype=np.int64)
        for row, (mono, coeff) in enumerate(sorted(self.terms.items())):
            coeffs[row] = float(coeff)
            for idx, exp in mono:
                exps[row, idx] = exp
        return coeffs, exps


def _line_plan(terms: dict[Monomial, Fraction], i: int) -> LinePlan:
    by_power: dict[int, list[LineTerm]] = {}
    for mono, coeff in terms.items():
        power_i = 0
        others = []
        for idx, e in mono:
            if idx == i:
                power_i = e
            else:
                others.append((idx, e))
        by_power.setdefault(power_i, []).append(
            (coeff, float(coeff), tuple(others)))
    groups = []
    for k in range(max(by_power, default=0) + 1):
        entries = by_power.get(k, [])
        if all(not others for _, _, others in entries):
            c = entries[0][0] if entries else Fraction(0)
            groups.append(LineGroup((), c, float(c), float(k * c)))
            continue
        groups.append(LineGroup(tuple(entries)))
    return LinePlan(tuple(groups))


def _merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    exps: dict[int, int] = dict(a)
    for idx, e in b:
        exps[idx] = exps.get(idx, 0) + e
    return tuple(sorted((i, e) for i, e in exps.items() if e > 0))


def as_polynomial(e: Expression) -> Optional[Polynomial]:
    """Expand to canonical polynomial form; None if abs/safediv present.

    The result is kept on the node, and each child is read through this
    function, so a subtree shared by several trees is expanded once;
    callers must not mutate it.
    """
    return cached(e, "polynomial", _expand, e)


def _expand(e: Expression) -> Optional[Polynomial]:
    # every operator builds a new Polynomial: no cached child form changes
    if isinstance(e, Const):
        return Polynomial.constant(e.value)
    if isinstance(e, Var):
        return Polynomial.variable(e.index)
    if isinstance(e, (Sum, Product)):
        total = Polynomial() if isinstance(e, Sum) else Polynomial.constant(1)
        for c in children(e):
            p = as_polynomial(c)
            if p is None:
                return None
            total = total + p if isinstance(e, Sum) else total * p
        return total
    if isinstance(e, Power):
        p = as_polynomial(e.base)
        return None if p is None else p**e.exponent
    if isinstance(e, Neg):
        p = as_polynomial(e.operand)
        return None if p is None else -p
    if isinstance(e, (Abs, SafeDiv)):
        return None
    raise TypeError(f"unknown expression node {type(e).__name__}")


def expand(e: Expression) -> Expression:
    """Canonical expanded form; returns ``e`` unchanged when not polynomial."""
    p = as_polynomial(e)
    return e if p is None else p.to_expression()


def structurally_equal(a: Expression, b: Expression) -> bool:
    """Equality of expanded polynomial forms (falls back to node equality)."""
    pa, pb = as_polynomial(a), as_polynomial(b)
    if pa is not None and pb is not None:
        return pa == pb
    return a == b


def dependencies(e: Expression) -> frozenset[int]:
    """Variables that actually matter after expansion.

    Polynomial trees are exact (zero-coefficient variables vanish).  A
    non-polynomial node recurses into its children, so a variable that
    survives the expansion of any polynomial subtree is kept.
    """
    p = as_polynomial(e)
    if p is not None:
        return p.variables()
    return frozenset().union(*map(dependencies, children(e)))


def separable_decomposition(e: Expression) -> Optional[list[tuple[int, Expression]]]:
    """Split ``e`` into per-variable components summing back to ``e``.

    Succeeds iff no expanded monomial mixes two variables.  The constant
    term rides on the lowest-index component (any split is equivalent:
    the components are unique up to additive constants).  Returns None
    both for genuinely non-separable polynomials and for non-polynomial
    trees, where separability cannot be certified.
    """
    p = as_polynomial(e)
    if p is None:
        return None
    groups: dict[int, dict[Monomial, Fraction]] = {}
    constant = Fraction(0)
    for mono, coeff in p.terms.items():
        if mono == ():
            constant += coeff
            continue
        if len(mono) > 1:
            return None
        idx = mono[0][0]
        groups.setdefault(idx, {})[mono] = coeff
    if not groups:
        return [(0, const(constant))]
    first = min(groups)
    if constant != 0:
        groups[first][()] = constant
    return [(idx, Polynomial(groups[idx]).to_expression())
            for idx in sorted(groups)]


def hessian(e: Expression, n: int) -> list[list[Expression]]:
    """Symmetric n-by-n matrix of second partials (canonicalized), kept
    on the node per ``n``; callers must not mutate it."""
    return cached(e, ("hessian", n), _hessian, e, n)


def _hessian(e: Expression, n: int) -> list[list[Expression]]:
    grad = [diff(e, i) for i in range(n)]
    return [[expand(diff(grad[i], j)) for j in range(n)] for i in range(n)]
