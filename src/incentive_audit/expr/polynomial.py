"""Canonical polynomial form: expansion and dependency analysis.

A Polynomial maps monomials to exact rational coefficients.  Monomial keys
are tuples of ``(variable index, exponent)`` pairs, sorted by variable,
with zero exponents dropped; the empty tuple is the constant monomial.
Expansion is the canonical form used for structural equality, dependency
detection and the audit's separability check.  Trees containing
absolute-value or guarded-division nodes have no polynomial form and yield
``None``, which keeps downstream structure checks conservative
(:func:`dependencies` then recurses through ``children`` to the
polynomial subtrees).

A polynomial node also keeps, per agent axis, a :class:`LinePlan`
(:func:`line_plan`): its terms grouped by that agent's exponent, each
coefficient as a Fraction and as a float.  Only the plan forms the
polynomial's restriction to the axis: :meth:`LinePlan.coefficients` sums
the line's coefficients at any profile, float, exact or mixed, with the
types and values exact arithmetic gives them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .._lazy import np
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

    __slots__ = ("terms",)

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

    def __repr__(self) -> str:
        return f"Polynomial({self.terms!r})"

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return _owned(_times(self.terms, other.terms))

    def __pow__(self, exponent: int) -> "Polynomial":
        """Binary powering that squares no further than the exponent's top
        bit and never multiplies by 1; a new Polynomial, as ``*`` gives."""
        result, base, k = None, self, exponent
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:
            return Polynomial.constant(1)
        return Polynomial(result.terms) if result is self else result

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for mono in self.terms:
            for idx, _ in mono:
                out.add(idx)
        return frozenset(out)

    def degree(self) -> int:
        return max((sum(e for _, e in mono) for mono in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((), Fraction(0))

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

    def magnitude_bound(self, bounds: Sequence[tuple[Number, Number]]
                        ) -> float:
        """Sum over the terms of max(|c|, 1) * prod_k max(|lo_k|, |hi_k|,
        1)^e_k on the box ``bounds``, in floats; inf when the sum, a
        coefficient or a bound is beyond the float range.

        Up to rounding, it bounds every power, partial product and partial
        sum of the polynomial's float evaluation at any point of the box.
        """
        try:
            radius = [max(abs(float(lo)), abs(float(hi)), 1.0)
                      for lo, hi in bounds]
            total = 0.0
            for mono, coeff in self.terms.items():
                term = max(abs(float(coeff)), 1.0)
                for idx, e in mono:
                    term *= radius[idx] ** e
                total += term
        except OverflowError:
            return float("inf")
        return total

    def float_error(self, bounds: Sequence[tuple[Number, Number]],
                    bound: float | None = None) -> float:
        """(T + 3n + 3) * 2^-52 * B for T terms, n agents and B the
        ``magnitude_bound`` (``bound``, when the caller has it): twice a
        bound on |float - exact| of ``kernels.poly_eval_at`` on the box.
        With u = 2^-53, a term rounds its coefficient (u), n powers
        ``x ** e`` (numpy's, within one ulp: 2u) and n products: (3n + 1)u
        relative.  The fold's T - 1 additions each add at most u times the
        terms' total, which B bounds: (T + 3n)uB to first order.  The 6uB
        left cover higher orders, underflow (B >= 1) and B's rounding."""
        if bound is None:
            bound = self.magnitude_bound(bounds)
        return (len(self.terms) + 3 * len(bounds) + 3) * 2.0 ** -52 * bound

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


def line_plan(e: Expression, i: int) -> LinePlan:
    """The plan of the polynomial ``e`` along axis ``i``, kept on ``e``."""
    return cached(e, ("line_plan", i), _line_plan, e, i)


def _line_plan(e: Expression, i: int) -> LinePlan:
    by_power: dict[int, list[LineTerm]] = {}
    for mono, coeff in as_polynomial(e).terms.items():
        power_i = 0
        others = []
        for idx, exp in mono:
            if idx == i:
                power_i = exp
            else:
                others.append((idx, exp))
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
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for idx, e in b:
        exps[idx] = exps.get(idx, 0) + e
    return tuple(sorted(exps.items()))


def _owned(terms: dict[Monomial, Fraction]) -> Polynomial:
    """A Polynomial of ``terms``, which hold no zero and are not copied."""
    p = Polynomial.__new__(Polynomial)
    p.terms = terms
    return p


def _times(a: dict[Monomial, Fraction], b: dict[Monomial, Fraction]
           ) -> dict[Monomial, Fraction]:
    """The terms of the product, in the order of the pairwise loop over
    ``a`` then ``b``; a monomial that cancels keeps no entry."""
    if len(b) == 1:
        (m2, c2), = b.items()
        if not m2:
            return {m1: c1 * c2 for m1, c1 in a.items()}
        return {_merge_monomials(m1, m2): c1 * c2 for m1, c1 in a.items()}
    if len(a) == 1:
        (m1, c1), = a.items()
        if not m1:
            return {m2: c1 * c2 for m2, c2 in b.items()}
        return {_merge_monomials(m1, m2): c1 * c2 for m2, c2 in b.items()}
    out: dict[Monomial, Fraction] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _merge_monomials(m1, m2)
            c = out.get(mono)
            out[mono] = c1 * c2 if c is None else c + c1 * c2
    return {m: c for m, c in out.items() if c}


def as_polynomial(e: Expression) -> Optional[Polynomial]:
    """Expand to canonical polynomial form; None if abs/safediv present.

    The result is kept on the node, and each child is read through this
    function, so a subtree shared by several trees is expanded once;
    callers must not mutate it.
    """
    return cached(e, "polynomial", _expand, e)


def _expand(e: Expression) -> Optional[Polynomial]:
    # each node builds its own terms dict; no cached child form changes
    if isinstance(e, Const):
        return Polynomial.constant(e.value)
    if isinstance(e, Var):
        return Polynomial.variable(e.index)
    if isinstance(e, Sum):
        terms: dict[Monomial, Fraction] = {}
        for c in e.terms:
            p = as_polynomial(c)
            if p is None:
                return None
            for mono, coeff in p.terms.items():
                total = terms.get(mono)
                if total is not None:
                    coeff = total + coeff
                    if not coeff:
                        # a later term of this monomial goes to the end
                        del terms[mono]
                        continue
                terms[mono] = coeff
        return _owned(terms)
    if isinstance(e, Product):
        terms = {(): Fraction(1)}
        for i, c in enumerate(e.factors):
            p = as_polynomial(c)
            if p is None:
                return None
            terms = dict(p.terms) if i == 0 else _times(terms, p.terms)
        return _owned(terms)
    if isinstance(e, Power):
        if isinstance(e.base, Var) and e.exponent:
            return _owned({((e.base.index, e.exponent),): Fraction(1)})
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


def hessian(e: Expression, n: int) -> list[list[Expression]]:
    """Symmetric n-by-n matrix of second partials (canonicalized), kept
    on the node per ``n``; callers must not mutate it."""
    return cached(e, ("hessian", n), _hessian, e, n)


def _hessian(e: Expression, n: int) -> list[list[Expression]]:
    grad = [diff(e, i) for i in range(n)]
    return [[expand(diff(grad[i], j)) for j in range(n)] for i in range(n)]
