"""One-dimensional minimization along a single agent's action.

Polynomial costs never touch symbolic substitution on the hot path: the
line's coefficients are summed from the polynomial's cached
:class:`~incentive_audit.expr.polynomial.LinePlan` for the axis, typed as
exact arithmetic types them (Fractions at exact actions, floats once a
float enters), then minimized from the stationary points: exactly, by
the vertex formula, for degree <= 2 (in integers, with one Fraction per
result, when the line and its box are exact); above that from the
companion-matrix eigenvalues of the derivative, as ``np.roots`` computes
them, Newton-polished and scored in floats.  ``line_minima`` takes one cost's
lines along one axis at many profiles together: their companion matrices
of one size share one stacked eigenvalue call, which gives each matrix
the eigenvalues a call of its own gives, and ``line_minimum_at`` is its
one-profile case.

A cost with absolute values or guarded divisions is piecewise rational
along the axis.  Pieces are cut where an ``abs`` operand changes sign or
a guarded denominator crosses its guard, and cut again until no node
cuts a piece, so nested nodes are cut inner first.  On a piece the cost
is one float ratio N/D, built from the line plans of its polynomial
subtrees (once per profile), and its minimum lies at a piece end or at
a real root of N'D - ND' (first-order stationarity).  A batch of
several lines scores all its candidates in one call of the compiled
vector form (``compiled.rows``), sorted once per profile; a line alone
scores its few with ``evaluate``, since one compile costs more than those
few tree walks, and both give the same floats.  The profiles
of a batch advance in lockstep rounds: each round finds the roots that
cut all their open pieces in one ``_real_roots`` call, and the
stationary points of the uncut pieces in a second.  Ties always resolve
to the smallest action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, islice, zip_longest
from typing import Callable, Iterable, Sequence

from .._lazy import np
from ..expr import (Abs, Expression, Neg, Number, Power, Product, SafeDiv,
                    Sum, children, evaluate)
from ..expr.compiled import rows
from ..expr.nodes import EXACT_TYPES, rational_sum
from ..expr.polynomial import as_polynomial, line_plan

#: Newton steps polishing a companion-matrix root
POLISH_ITERS = 8

#: a top coefficient whose term is below this share of the lower terms'
#: magnitudes all over the box is left out of a polynomial's root finding
NEGLIGIBLE = 2.0 ** -80

#: ulps from a guard's float root at which the piece is cut as well: the
#: cost jumps there, and the guard's own float test may flip ulps away
GUARD_ULPS = (-1024, -256, -64, -16, -4, -1, 0, 1, 4, 16, 64, 256, 1024)

#: a ratio N/D of two polynomials, each as its ascending float coefficients
Ratio = tuple[list[float], list[float]]

#: an ``abs`` or guarded node on a piece: its level polynomials N - level*D,
#: the ulps from their roots that cut, and whether N/D is beyond the guard
Switch = tuple[list[list[float]], Sequence[int], bool]


class SolverError(Exception):
    """Solver escalation: a result violates a guaranteed property."""


@dataclass(frozen=True)
class LineMin:
    arg: Number
    value: Number


def _poly_value(coeffs: Sequence[Number], x: Number) -> Number:
    total: Number = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def line_minimum_at(e: Expression, i: int, values: Sequence[Number],
                    lo: Number, hi: Number) -> LineMin:
    """Minimize agent ``i``'s coordinate with the rest of ``values`` fixed."""
    return line_minima(e, i, [values], lo, hi)[0]


def line_minima(e: Expression, i: int, profiles: Sequence[Sequence[Number]],
                lo: Number, hi: Number) -> list[LineMin]:
    """``line_minimum_at`` at each of ``profiles``, in one pass: the float
    polynomial lines of degree >= 3 find their stationary points through
    one stacked eigenvalue call per companion-matrix size, and piecewise
    lines through one per size and stage of each lockstep round."""
    flo, fhi = float(lo), float(hi)
    if as_polynomial(e) is None:
        return _piecewise_minima(e, i, profiles, flo, fhi)
    plan = line_plan(e, i)
    minima: list[LineMin | None] = []
    lines: list[tuple[int, list[float], list[float]]] = []
    for values in profiles:
        coeffs = plan.coefficients(values)
        degree = len(coeffs) - 1
        while degree > 0 and coeffs[degree] == 0:
            degree -= 1
        if degree <= 2:
            minima.append(_low_degree_minimum(coeffs, degree, lo, hi))
            continue
        floats, d1 = plan.float_line(coeffs)
        if not all(map(math.isfinite, d1[:degree])):
            raise SolverError(
                f"cannot find the stationary points of a line of degree "
                f"{degree}: its derivative has a coefficient that is not "
                f"finite")
        lines.append((len(minima), floats, d1))
        minima.append(None)
    roots = _real_roots([(d1, flo, fhi) for _, _, d1 in lines])
    for (k, floats, _), stationary in zip(lines, roots):
        minima[k] = _pick_smallest(partial(_poly_value, floats),
                                   [flo, fhi, *stationary])
    return minima


def _low_degree_minimum(coeffs: Sequence[Number], degree: int,
                        lo: Number, hi: Number) -> LineMin:
    """Minimum of a line of degree <= 2, in the coefficients' own
    arithmetic: exact at an exact profile."""
    if degree == 0:
        return LineMin(lo, coeffs[0])
    if EXACT_TYPES.issuperset(map(type, (lo, hi, *coeffs))):
        return _exact_low_degree_minimum(coeffs, degree, lo, hi)
    if degree == 1:
        arg = lo if coeffs[1] >= 0 else hi
        return LineMin(arg, _poly_value(coeffs, arg))
    a, b = coeffs[2], coeffs[1]
    candidates: list[Number] = [lo, hi]
    if a > 0:
        vertex = -b / (2 * a)
        if lo <= vertex <= hi:
            candidates = [vertex]
    return _pick_smallest(partial(_poly_value, coeffs), candidates)


def _exact_low_degree_minimum(coeffs: Sequence[Fraction], degree: int,
                              lo: Number, hi: Number) -> LineMin:
    """``_low_degree_minimum`` of exact coefficients on an exact box, in
    integers: the same candidate, value and tie to ``lo``, with one
    Fraction formed per result."""
    lp, lq, hp, hq = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    ends = [(lo, lp, lq), (hi, hp, hq)]
    if degree == 1:
        ends = ends[:1] if coeffs[1].numerator >= 0 else ends[1:]
    elif coeffs[2].numerator > 0:
        a, b = coeffs[2], coeffs[1]
        # the vertex -b / (2a), over a positive denominator
        p, q = -b.numerator * a.denominator, 2 * a.numerator * b.denominator
        if lp * q <= p * lq and p * hq <= hp * q:
            ends = [(None, p, q)]
    best = None
    for x, p, q in ends:
        n, d = rational_sum((c.numerator * p ** k, c.denominator * q ** k)
                            for k, c in enumerate(coeffs[:degree + 1]))
        if best is None or n * best[2] < best[1] * d:
            best = (Fraction(p, q) if x is None else x, n, d)
    return LineMin(best[0], Fraction(best[1], best[2]))


def _real_roots(polys: Sequence[tuple[Sequence[float], float, float]]
                ) -> list[list[float]]:
    """The real roots in [lo, hi] of each ``(p, lo, hi)`` of ``polys``, p in
    ascending float coefficients (trailing zeros allowed): in closed form at
    degree 1, else the real companion-matrix eigenvalues, Newton-polished."""
    roots: list[list[float]] = []
    others = []
    for p, lo, hi in polys:
        if not all(map(math.isfinite, p)):
            raise SolverError("cannot find the real roots of a polynomial "
                              "along an agent's axis: a coefficient is not "
                              "finite")
        top = _root_degree(p, max(1.0, -lo, hi))
        if top == 1:
            # + 0.0 turns the root -0.0 of a zero constant term into 0.0
            roots.append([-p[0] / p[1] + 0.0])
        else:
            others.append((len(roots), p, top))
            roots.append([])
    eigenvalues = _derivative_roots([p[:top + 1] for _, p, top in others])
    for (k, p, _), found in zip(others, eigenvalues):
        dp = [j * p[j] for j in range(1, len(p))]
        roots[k] = [_newton_polish(p, dp, r.real)
                    for r in found if abs(r.imag) < 1e-9]
    return [[x for x in found if lo <= x <= hi]
            for found, (_, lo, hi) in zip(roots, polys)]


def _root_degree(p: Sequence[float], scale: float) -> int:
    """The degree at which the roots of ``p`` in a box within [-scale,
    scale] are found: its top nonzero coefficient, passing over any whose
    term stays below NEGLIGIBLE times the lower terms' magnitudes there.
    Such a term moves no value in the box, and the roots it adds lie far
    outside; beside them the eigenvalue solver loses the roots inside (a
    top coefficient of 1e-206 turned the roots +-1 into 0.0)."""
    top = len(p) - 1
    while top > 0 and (p[top] == 0 or top > 1 and _negligible(p, top, scale)):
        top -= 1
    return top


def _negligible(p: Sequence[float], top: int, scale: float) -> bool:
    lead = abs(p[top])
    # each scale ** (k - top) is at most 1, so the plain sum of magnitudes
    # is a cheap first test that almost every line fails
    return lead < NEGLIGIBLE * sum(map(abs, p[:top])) and lead < NEGLIGIBLE \
        * sum(abs(p[k]) * scale ** (k - top) for k in range(top))


def _derivative_roots(derivs: Sequence[Sequence[float]]) -> list[list]:
    """``np.roots(deriv[::-1])`` for each of the finite ascending
    coefficient lists ``derivs``, computed the same way without its array
    overhead: the eigenvalues of the companion matrix of the polynomial
    stripped of its zero leading and trailing coefficients, then a zero
    root per trailing zero.  The companion matrices of one size share one
    stacked ``np.linalg.eigvals`` call, which gives each matrix the
    eigenvalues a call of its own gives.

    Where ``np.roots`` fails because a leading coefficient is so small
    next to the others (a subnormal, say) that the companion matrix
    overflows, that coefficient is dropped and the next nonzero one leads:
    the roots it would add are about as large as the float range, outside
    any bound box."""
    rows: list[list[float] | None] = []
    lows: list[int] = []
    for deriv in derivs:
        nonzero = [k for k, c in enumerate(deriv) if c != 0]
        low = nonzero[0] if nonzero else 0
        row = None
        for top in reversed(nonzero):
            if top == low:
                break
            lead = deriv[top]
            first = [-deriv[k] / lead for k in range(top - 1, low - 1, -1)]
            if all(map(math.isfinite, first)):
                row = first
                break
        rows.append(row)
        lows.append(low)
    found: list[list] = [[] for _ in rows]
    for size in sorted({len(row) for row in rows if row is not None}):
        ks = [k for k, row in enumerate(rows)
              if row is not None and len(row) == size]
        companions = np.zeros((len(ks), size, size))
        companions[:, 0] = [rows[k] for k in ks]
        companions[:, range(1, size), range(size - 1)] = 1.0
        for k, eigenvalues in zip(ks, np.linalg.eigvals(companions)):
            found[k] = eigenvalues.tolist()
    return [f + [0.0] * low for f, low in zip(found, lows)]


def _newton_polish(d1: Sequence[float], d2: Sequence[float], x: float
                   ) -> float:
    for _ in range(POLISH_ITERS):
        g = _poly_value(d1, x)
        h = _poly_value(d2, x)
        if h == 0 or not math.isfinite(h):
            break
        step = g / h
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
        x -= step
    return x


def _pick_smallest(score: Callable[[Number], Number],
                   candidates: Iterable[Number]) -> LineMin:
    xs = sorted(candidates, key=float)
    return _first_minimum(xs, list(map(score, xs)))


def _first_minimum(xs: Sequence[Number], values: Sequence[Number]
                   ) -> LineMin:
    # min keeps the first of equal values: ties go to the smallest action
    k = min(range(len(xs)), key=values.__getitem__)
    return LineMin(xs[k], values[k])


def _piecewise_minima(e: Expression, i: int,
                      profiles: Sequence[Sequence[Number]], lo: float,
                      hi: float) -> list[LineMin]:
    """The line minima of the non-polynomial ``e`` at ``profiles``, in
    floats.  Each round restricts every open piece of every profile, splits
    the pieces that the roots of their ``abs`` operands and guard levels
    cut (one batch), and finds the stationary points of the others (a
    second batch): each profile gets the pieces it gets alone."""
    bases = [[float(v) for v in values] for values in profiles]
    memos: list[dict[int, Ratio]] = [{} for _ in bases]
    candidates = [{lo, hi} for _ in bases]
    pieces = [(k, lo, hi) for k in range(len(bases))]
    while pieces:
        switches: list[list[Switch]] = [[] for _ in pieces]
        ratios = [_restrict(e, i, bases[k], memos[k], a, b, found)
                  for (k, a, b), found in zip(pieces, switches)]
        # a guard's second level too, though the rule below may skip it;
        # a guard's float root up to its farthest cut's ulps beyond the
        # piece still cuts it
        roots = iter(_real_roots([
            (level, a - ulps[-1] * math.ulp(a), b + ulps[-1] * math.ulp(b))
            for (_, a, b), found in zip(pieces, switches)
            for levels, ulps, _ in found for level in levels]))
        split, uncut = [], []
        for (k, a, b), found, (num, den) in zip(pieces, switches, ratios):
            cuts: list[float] = []
            for levels, ulps, beyond in found:
                for xs in [next(roots) for _ in levels]:
                    cuts += [y for x in xs for y in (
                        x + u * math.ulp(x) for u in ulps) if a < y < b]
                    # N/D beyond the level on its midpoint's side and never
                    # at it: never at the other level either
                    if not xs and beyond:
                        break
            if cuts:
                ends = [a, *sorted(set(cuts)), b]
                split += ((k, x, y) for x, y in zip(ends, ends[1:]))
                candidates[k].update(cuts)
            else:
                stationary = _plus(_times(_derivative(num), den),
                                   _times(num, _derivative(den)), -1.0)
                uncut.append((k, (stationary, a, b)))
        for (k, _), xs in zip(uncut, _real_roots([p for _, p in uncut])):
            candidates[k].update(xs)
        pieces = split
    if len(bases) == 1:
        base = bases[0]
        return [_pick_smallest(
            lambda x: float(evaluate(e, base[:i] + [x] + base[i + 1:])),
            candidates[0])]
    # one call scores a batch; its re-check of the scores that are not
    # finite goes by profile, then by ascending candidate, so the first
    # overflow raises where it raises one candidate at a time
    ordered = [sorted(found) for found in candidates]
    points = np.repeat(np.array(bases), list(map(len, ordered)), axis=0)
    points[:, i] = list(chain.from_iterable(ordered))
    scores = iter(rows([e], points)[:, 0].tolist())
    return [_first_minimum(xs, list(islice(scores, len(xs))))
            for xs in ordered]


def _restrict(e: Expression, i: int, base: list[float],
              memo: dict[int, Ratio], a: float, b: float,
              switches: list[Switch]) -> Ratio:
    """``e`` on the piece (a, b) of axis ``i`` as float coefficients (N, D)
    of N/D, each ``abs`` sign and guard state read at the midpoint; adds to
    ``switches`` each ``abs`` and guarded node, whose level roots cut the
    piece.  ``memo`` keeps the lines of the polynomial subtrees at
    ``base``, which no piece changes."""
    if id(e) in memo:
        return memo[id(e)]
    if as_polynomial(e) is not None:
        plan = line_plan(e, i)
        memo[id(e)] = plan.float_line(plan.coefficients(base))[0], [1.0]
        return memo[id(e)]
    parts = [_restrict(c, i, base, memo, a, b, switches)
             for c in children(e)]
    if isinstance(e, Sum):
        return reduce(_add, parts)
    if isinstance(e, (Product, Power)):
        return reduce(_mul, parts * (e.exponent if type(e) is Power else 1))
    num, den = parts[-1]  # the operand, or the guarded denominator
    if isinstance(e, Neg):
        return [-c for c in num], den
    guard = e.guard if isinstance(e, SafeDiv) else 0
    n, d = _poly_value(num, (a + b) / 2), _poly_value(den, (a + b) / 2)
    side = float(guard) if (n < 0) == (d < 0) else -float(guard)
    beyond = abs(n) > guard * abs(d)
    levels = (side, -side) if guard else (0.0,)
    switches.append(([_plus(num, den, -level) for level in levels],
                     GUARD_ULPS if guard else (0,), beyond))
    if isinstance(e, Abs):
        return ([-c for c in num] if (n < 0) != (d < 0) else num), den
    return _mul(parts[0], (den, num)) if beyond else ([0.0], [1.0])


def _add(r: Ratio, s: Ratio) -> Ratio:
    (n1, d1), (n2, d2) = r, s
    if d1 == d2:
        return _plus(n1, n2), d1
    return _plus(_times(n1, d2), _times(n2, d1)), _times(d1, d2)


def _mul(r: Ratio, s: Ratio) -> Ratio:
    return _times(r[0], s[0]), _times(r[1], s[1])


def _times(a: list[float], b: list[float]) -> list[float]:
    return np.convolve(a, b).tolist()


def _plus(a: list[float], b: list[float], scale: float = 1.0) -> list[float]:
    """``a + scale * b``."""
    return [x + scale * y for x, y in zip_longest(a, b, fillvalue=0.0)]


def _derivative(p: list[float]) -> list[float]:
    return [k * p[k] for k in range(1, len(p))] or [0.0]
