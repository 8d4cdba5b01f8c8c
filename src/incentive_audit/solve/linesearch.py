"""One-dimensional minimization along a single agent's action.

Polynomial costs never touch symbolic substitution on the hot path: the
expanded form is collapsed to univariate coefficients numerically, then
minimized from its stationary points (exactly, via the vertex formula,
for degree <= 2; via derivative root finding above that).  Non-polynomial
restrictions (absolute value, guarded division) fall back to a scan plus
golden-section refinement.  Ties always resolve to the smallest action.

Two paths build the coefficients of a polynomial line:

- ``collect_line_coeffs`` is the exact path: Fraction coefficients stay
  exact, and mix with float actions as Python mixes them.  It serves
  exact profiles, lines with no factor of another agent (decoupled), and
  lines of degree 2 or less, so the ``exact`` flag and the vertex formula
  see exactly what they always saw.
- The float kernel serves the rest: a coupled line of degree 3 or more
  whose other actions are all floats.  It reads the polynomial's cached
  :class:`~incentive_audit.expr.polynomial.LinePlan` for the axis, sums
  each coefficient with the same float operations in the same order, and
  minimizes from the companion-matrix eigenvalues of the derivative, as
  ``np.roots`` computes them, Newton-polished and scored in floats.

Both give the same minimum bit for bit (``tests/test_linesearch.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ..expr import Expression, Number, scalar_fn, vector_fn
from ..expr.polynomial import LinePlan, Polynomial
from .config import SolverConfig

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

#: scan resolution for non-polynomial line searches inside iterative
#: solvers; verification passes request the full configured grid instead
SCAN_POINTS_FAST = 65


@dataclass(frozen=True)
class LineMin:
    arg: Number
    value: Number
    exact: bool


def collect_line_coeffs(p: Polynomial, i: int,
                        values: Sequence[Number]) -> list[Number]:
    """Ascending coefficients of ``p`` along variable ``i`` with the other
    coordinates pinned at ``values``; exact when the inputs are exact."""
    groups: dict[int, Number] = {}
    degree = 0
    for mono, coeff in p.terms.items():
        e_i = 0
        term: Number = coeff
        for idx, e in mono:
            if idx == i:
                e_i = e
            else:
                term = term * values[idx] ** e
        groups[e_i] = groups.get(e_i, 0) + term
        degree = max(degree, e_i)
    return [groups.get(k, Fraction(0)) for k in range(degree + 1)]


def _poly_value(coeffs: Sequence[Number], x: Number) -> Number:
    total: Number = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def line_minimum_at(e: Expression, p: Optional[Polynomial], i: int,
                    values: Sequence[Number], lo: Number, hi: Number,
                    cfg: SolverConfig, full_scan: bool = False) -> LineMin:
    """Minimize agent ``i``'s coordinate with the rest of ``values`` fixed.

    ``p`` is the pre-expanded polynomial form of ``e`` when one exists
    (pass None for abs/guarded-division trees).
    """
    if p is not None:
        plan = p.line_plan(i)
        # a coupled line of degree >= 3 at float actions
        if len(plan.groups) > 3 and plan.reads \
                and all(type(values[k]) is float for k in plan.reads):
            found = _float_line_minimum(plan, values, lo, hi)
            if found is not None:
                return found
        return _poly_line_minimum(collect_line_coeffs(p, i, values), lo, hi)
    base = [float(v) for v in values]
    if len(base) <= i:
        base.extend(0.0 for _ in range(i + 1 - len(base)))
    points = cfg.grid_points_per_axis if full_scan \
        else min(cfg.grid_points_per_axis, SCAN_POINTS_FAST)
    xs = np.linspace(float(lo), float(hi), points)
    base[i] = xs
    vals = np.broadcast_to(
        np.asarray(vector_fn(e)(base), dtype=np.float64), xs.shape)
    scalar = scalar_fn(e)

    def f(x: float) -> float:
        base[i] = x
        return scalar(base)

    return _scan_line_minimum(f, xs, vals)


def _float_line_minimum(plan: LinePlan, values: Sequence[float],
                        lo: Number, hi: Number) -> Optional[LineMin]:
    """The degree >= 3 branch of ``_poly_line_minimum`` on a coupled line
    whose coefficients come from float actions, built from the plan in
    floats; None when the line's degree drops to 2 or less at ``values``
    (the vertex branch then runs on the exact path's coefficients)."""
    coeffs: list[float] = []
    d1: list[float] = []
    for k, (start, terms, derivative) in enumerate(plan.groups):
        total = start
        for term, others in terms:
            for idx, e in others:
                term = term * values[idx] ** e
            total = total + term
        coeffs.append(total)
        if k:
            d1.append(k * total if derivative is None else derivative)
    degree = len(coeffs) - 1
    while degree > plan.floor and coeffs[degree] == 0:
        degree -= 1
    if degree <= 2:
        return None
    return _roots_line_minimum(coeffs, d1, degree, lo, hi)


def _poly_line_minimum(coeffs: list[Number], lo: Number, hi: Number) -> LineMin:
    exact = not any(isinstance(c, float) for c in coeffs) \
        and not (isinstance(lo, float) or isinstance(hi, float))
    degree = len(coeffs) - 1
    while degree > 0 and coeffs[degree] == 0:
        degree -= 1
    if degree == 0:
        value = coeffs[0] if coeffs else Fraction(0)
        return LineMin(lo, value, exact)
    if degree == 1:
        arg = lo if coeffs[1] >= 0 else hi
        return LineMin(arg, _poly_value(coeffs, arg), exact)
    if degree == 2:
        a, b = coeffs[2], coeffs[1]
        candidates: list[Number] = [lo, hi]
        if a > 0:
            vertex = -b / (2 * a)
            if lo <= vertex <= hi:
                candidates = [vertex]
        return _pick_smallest(coeffs, candidates, exact)
    # at a float point, Fraction coefficients act as their float values
    return _roots_line_minimum(
        [float(c) for c in coeffs],
        [float(k * coeffs[k]) for k in range(1, len(coeffs))], degree, lo, hi)


def _roots_line_minimum(coeffs: list[float], d1: list[float], degree: int,
                        lo: Number, hi: Number) -> LineMin:
    """Minimum of a line of degree >= 3 with float coefficients ``coeffs``
    (trailing zeros above ``degree`` allowed) and derivative ``d1``: the
    interval ends and the real stationary points, polished by Newton."""
    d2 = [k * d1[k] for k in range(1, len(d1))]
    flo, fhi = float(lo), float(hi)
    candidates = [flo, fhi]
    for r in _derivative_roots(d1[:degree]):
        if abs(r.imag) < 1e-9:
            x = _newton_polish(d1, d2, float(r.real))
            if flo <= x <= fhi:
                candidates.append(x)
    return _pick_smallest(coeffs, candidates, exact=False)


def _derivative_roots(deriv: Sequence[float]) -> list:
    """``np.roots(deriv[::-1])`` for ascending coefficients ``deriv``,
    computed the same way without its array overhead: the eigenvalues of
    the companion matrix of the polynomial stripped of its zero leading
    and trailing coefficients, then a zero root per trailing zero."""
    nonzero = [k for k, c in enumerate(deriv) if c != 0]
    if not nonzero:
        return []
    low, top = nonzero[0], nonzero[-1]
    roots: list = []
    if top > low:
        lead = deriv[top]
        companion = np.eye(top - low, k=-1)
        companion[0] = [-deriv[k] / lead for k in range(top - 1, low - 1, -1)]
        roots = list(np.linalg.eigvals(companion))
    return roots + [0.0] * low


def _newton_polish(d1: Sequence[float], d2: Sequence[float], x: float,
                   iters: int = 8) -> float:
    for _ in range(iters):
        g = _poly_value(d1, x)
        h = _poly_value(d2, x)
        if h == 0 or not math.isfinite(h):
            break
        step = g / h
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
        x -= step
    return x


def _pick_smallest(coeffs: Sequence[Number], candidates: Sequence[Number],
                   exact: bool) -> LineMin:
    best_arg: Number | None = None
    best_val: Number | None = None
    for x in sorted(candidates, key=float):
        v = _poly_value(coeffs, x)
        if best_val is None or v < best_val:
            best_arg, best_val = x, v
    is_exact = exact and not isinstance(best_arg, float) \
        and not isinstance(best_val, float)
    return LineMin(best_arg, best_val, is_exact)


def _scan_line_minimum(f: Callable[[float], float], xs: np.ndarray,
                       vals: np.ndarray) -> LineMin:
    """Refine the best of the scanned values ``vals = f(xs)`` by
    golden-section search between its neighbours."""
    best = int(np.argmin(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, len(xs) - 1)]
    arg, val = _golden_section(f, a, b)
    if vals[best] < val:
        arg, val = float(xs[best]), float(vals[best])
    return LineMin(arg, val, False)


def _golden_section(f: Callable[[float], float], a: float, b: float,
                    tol: float = 1e-12, max_iter: int = 90) -> tuple[float, float]:
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a), abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    # prefer the left candidate on ties
    if f1 <= f2:
        return x1, f1
    return x2, f2
