"""One-dimensional minimization along a single agent's action.

Polynomial costs never touch symbolic substitution on the hot path: the
expanded form is collapsed to univariate coefficients numerically, then
minimized from its stationary points (exactly, via the vertex formula,
for degree <= 2; via derivative root finding above that).  Non-polynomial
restrictions (absolute value, guarded division) fall back to a scan plus
golden-section refinement.  Ties always resolve to the smallest action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from ..expr import Expression, Number, evaluate
from ..expr.polynomial import Polynomial
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
        return _poly_line_minimum(collect_line_coeffs(p, i, values), lo, hi)
    base = [float(v) for v in values]
    if len(base) <= i:
        base.extend(0.0 for _ in range(i + 1 - len(base)))

    def f(x: float) -> float:
        base[i] = x
        return float(evaluate(e, base))

    points = cfg.grid_points_per_axis if full_scan \
        else min(cfg.grid_points_per_axis, SCAN_POINTS_FAST)
    return _scan_line_minimum(f, lo, hi, points)


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
    # degree >= 3: stationary points of the derivative, floating
    deriv = [float(k * coeffs[k]) for k in range(1, degree + 1)]
    candidates = [float(lo), float(hi)]
    flo, fhi = float(lo), float(hi)
    if any(deriv):
        for r in np.roots(deriv[::-1]):
            if abs(r.imag) < 1e-9:
                x = _newton_polish(coeffs, float(r.real))
                if flo <= x <= fhi:
                    candidates.append(x)
    return _pick_smallest(coeffs, candidates, exact=False)


def _newton_polish(coeffs: Sequence[Number], x: float, iters: int = 8) -> float:
    d1 = [float(k * coeffs[k]) for k in range(1, len(coeffs))]
    d2 = [float(k * d1[k]) for k in range(1, len(d1))]
    for _ in range(iters):
        g = _poly_value(d1, x)
        h = _poly_value(d2, x)
        if h == 0 or not np.isfinite(h):
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


def _scan_line_minimum(f: Callable[[float], float], lo: Number, hi: Number,
                       points: int) -> LineMin:
    flo, fhi = float(lo), float(hi)
    xs = np.linspace(flo, fhi, points)
    vals = [f(x) for x in xs]
    best = int(np.argmin(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, len(xs) - 1)]
    arg, val = _golden_section(f, a, b)
    if vals[best] < val:
        arg, val = float(xs[best]), vals[best]
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
