"""One-dimensional minimization along a single agent's action.

Polynomial costs never touch symbolic substitution on the hot path: the
line's coefficients are summed from the polynomial's cached
:class:`~incentive_audit.expr.polynomial.LinePlan` for the axis, typed as
exact arithmetic types them (Fractions at exact actions, floats once a
float enters), then minimized from the stationary points: exactly, by
the vertex formula, for degree <= 2; above that from the companion-matrix
eigenvalues of the derivative, as ``np.roots`` computes them,
Newton-polished and scored in floats.  Non-polynomial restrictions
(absolute value, guarded division) fall back to a scan plus
golden-section refinement.  Ties always resolve to the smallest action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..expr import Expression, Number, scalar_fn, vector_fn
from ..expr.polynomial import LinePlan, as_polynomial
from .config import SolverConfig

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

#: scan resolution for non-polynomial line searches inside iterative
#: solvers; verification passes request the full configured grid instead
SCAN_POINTS_FAST = 65

#: golden-section stopping rule (relative bracket width, iteration cap),
#: and Newton steps polishing a companion-matrix root
GOLDEN_TOL = 1e-12
GOLDEN_MAX_ITERS = 90
POLISH_ITERS = 8


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
                    lo: Number, hi: Number, cfg: SolverConfig,
                    full_scan: bool = False) -> LineMin:
    """Minimize agent ``i``'s coordinate with the rest of ``values`` fixed."""
    p = as_polynomial(e)
    if p is not None:
        return _poly_line_minimum(p.line_plan(i), values, lo, hi)
    base = [float(v) for v in values]
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


def _poly_line_minimum(plan: LinePlan, values: Sequence[Number],
                       lo: Number, hi: Number) -> LineMin:
    coeffs = plan.coefficients(values)
    degree = len(coeffs) - 1
    while degree > 0 and coeffs[degree] == 0:
        degree -= 1
    if degree > 2:
        # at a float point, Fraction coefficients act as their float
        # values, which an exact group keeps for the line and derivative
        groups = plan.groups
        floats = [float(c) if g.terms else g.value
                  for g, c in zip(groups, coeffs)]
        d1 = [float(k * coeffs[k]) if groups[k].terms
              else groups[k].derivative for k in range(1, len(coeffs))]
        return _roots_line_minimum(floats, d1, degree, lo, hi)
    if degree == 0:
        return LineMin(lo, coeffs[0])
    if degree == 1:
        arg = lo if coeffs[1] >= 0 else hi
        return LineMin(arg, _poly_value(coeffs, arg))
    a, b = coeffs[2], coeffs[1]
    candidates: list[Number] = [lo, hi]
    if a > 0:
        vertex = -b / (2 * a)
        if lo <= vertex <= hi:
            candidates = [vertex]
    return _pick_smallest(coeffs, candidates)


def _roots_line_minimum(coeffs: list[float], d1: list[float], degree: int,
                        lo: Number, hi: Number) -> LineMin:
    """Minimum of a line of degree >= 3 with float coefficients ``coeffs``
    (trailing zeros above ``degree`` allowed) and derivative ``d1``: the
    interval ends and the real stationary points, polished by Newton."""
    if not all(map(math.isfinite, d1[:degree])):
        raise SolverError(
            f"cannot find the stationary points of a line of degree "
            f"{degree}: its derivative has a coefficient that is not finite")
    d2 = [k * d1[k] for k in range(1, len(d1))]
    flo, fhi = float(lo), float(hi)
    candidates = [flo, fhi]
    for r in _derivative_roots(d1[:degree]):
        if abs(r.imag) < 1e-9:
            x = _newton_polish(d1, d2, float(r.real))
            if flo <= x <= fhi:
                candidates.append(x)
    return _pick_smallest(coeffs, candidates)


def _derivative_roots(deriv: Sequence[float]) -> list:
    """``np.roots(deriv[::-1])`` for finite ascending coefficients
    ``deriv``, computed the same way without its array overhead: the
    eigenvalues of the companion matrix of the polynomial stripped of its
    zero leading and trailing coefficients, then a zero root per trailing
    zero.

    Where ``np.roots`` fails because a leading coefficient is so small
    next to the others (a subnormal, say) that the companion matrix
    overflows, that coefficient is dropped and the next nonzero one leads:
    the roots it would add are about as large as the float range, outside
    any bound box."""
    nonzero = [k for k, c in enumerate(deriv) if c != 0]
    if not nonzero:
        return []
    low = nonzero[0]
    for top in reversed(nonzero):
        if top == low:
            break
        lead = deriv[top]
        row = [-deriv[k] / lead for k in range(top - 1, low - 1, -1)]
        if all(map(math.isfinite, row)):
            companion = np.eye(top - low, k=-1)
            companion[0] = row
            return list(np.linalg.eigvals(companion)) + [0.0] * low
    return [0.0] * low


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


def _pick_smallest(coeffs: Sequence[Number], candidates: Sequence[Number]
                   ) -> LineMin:
    best_arg: Number | None = None
    best_val: Number | None = None
    for x in sorted(candidates, key=float):
        v = _poly_value(coeffs, x)
        if best_val is None or v < best_val:
            best_arg, best_val = x, v
    return LineMin(best_arg, best_val)


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
    return LineMin(arg, val)


def _golden_section(f: Callable[[float], float], a: float, b: float
                    ) -> tuple[float, float]:
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(GOLDEN_MAX_ITERS):
        if b - a <= GOLDEN_TOL * max(1.0, abs(a), abs(b)):
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
