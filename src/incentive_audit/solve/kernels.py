"""Hot grid kernels: polynomial evaluation, line minima, grid equilibria.

``poly_eval_at`` evaluates a polynomial at the cells that broadcasting
index arrays pick from the grid; ``poly_grid_eval`` is its full-grid case.
``candidate_box`` encloses, before any cell is read, the cells that can be
a best response of a cost that is a parabola along its axis: every grid
equilibrium, or every cell at a grid minimum.  The box is the one read:
``pure_nash_mask`` reads each agent's cost on the whole lines along its
own axis through the box, and ``grid_argmin`` reads a cost on its box.
Where no axis is certified the box is the whole grid and the read is the
full table.  A table is read as a slice, which is a view; a polynomial is
evaluated on the box, each cell the same fold as in a full table, so
results are the tables' bit for bit.  ``oracle.check_grid_size`` bounds
the tables.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf
from typing import NamedTuple, Sequence

from .._lazy import np

#: a grid cell is a best response when its cost is within this of the
#: line minimum, absolutely plus relative to the minimum's size
MASK_TOL_ABS = 1e-12
MASK_TOL_REL = 1e-12


class Poly(NamedTuple):
    """``Polynomial.to_arrays``, ``float_error`` and ``magnitude_bound``."""

    coeffs: np.ndarray
    exps: np.ndarray
    err: float = inf
    bound: float = inf


def poly_eval_at(coeffs: np.ndarray, exps: np.ndarray,
                 axes: Sequence[np.ndarray],
                 index: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate sum_t coeffs[t] * prod_k axes[k][index[k]]^exps[t,k] on
    the broadcast shape of the integer arrays ``index``.

    Every cell is the fold ``0 + T_0 + T_1 + ...`` over the terms in row
    order, each term its coefficient times its factors in axis order, the
    factors gathered from ``axes[k] ** e``: a cell's value does not depend
    on which other cells are evaluated with it.  The running sum stays on
    the broadcast of the terms seen so far until it spans the whole shape,
    and is added to in place from then on.

    A value beyond the float range is left as numpy computes it (inf, or
    nan where infinities cancel), without a warning; callers that need a
    finite table check for one."""
    axes = [np.asarray(ax, dtype=np.float64) for ax in axes]
    shape = np.broadcast_shapes(*(np.shape(i) for i in index))
    factors: dict[tuple[int, int], np.ndarray] = {}
    total: np.ndarray | float = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(coeffs.size):
            term: np.ndarray | np.float64 = coeffs[t]
            for k in range(len(axes)):
                e = int(exps[t, k])
                if e:
                    f = factors.get((k, e))
                    if f is None:
                        f = factors[k, e] = (axes[k] ** e)[index[k]]
                    term = term * f
            if np.shape(total) == shape:
                total += term
            else:
                total = total + term
    if np.shape(total) != shape:
        total = np.array(np.broadcast_to(total, shape))
    return total


def poly_grid_eval(coeffs: np.ndarray, exps: np.ndarray,
                   axes: Sequence[np.ndarray]) -> np.ndarray:
    """``poly_eval_at`` on every cell of the axes grid."""
    index = np.ix_(*(np.arange(len(ax)) for ax in axes))
    return poly_eval_at(coeffs, exps, axes, index)


def _bar(line_min: np.ndarray) -> np.ndarray:
    """The largest cost that is a best response against ``line_min``."""
    return line_min + MASK_TOL_ABS + MASK_TOL_REL * np.abs(line_min)


def _on_box(cost: np.ndarray | Poly, axes: Sequence[np.ndarray],
           box: Sequence[range]) -> np.ndarray:
    """``cost`` on the cells of ``box``: a table's slice, which is a view,
    or the polynomial evaluated there."""
    if isinstance(cost, np.ndarray):
        return cost[tuple(slice(r.start, r.stop) for r in box)]
    return poly_eval_at(cost.coeffs, cost.exps, axes, np.ix_(*box))


def _best_on_box(cost: np.ndarray | Poly, axes: Sequence[np.ndarray],
                 box: Sequence[range], a: int) -> np.ndarray:
    """Which cells of ``box`` are best responses of ``cost`` on their
    whole lines along axis ``a``."""
    lines = list(box)
    lines[a] = range(len(axes[a]))
    values = _on_box(cost, axes, lines)
    own = [slice(None)] * len(box)
    own[a] = slice(box[a].start, box[a].stop)
    return values[tuple(own)] <= _bar(values.min(axis=a, keepdims=True))


def _parabola(cost: np.ndarray | Poly, axes: Sequence[np.ndarray], a: int
              ) -> tuple[float, list, float] | None:
    """The vertex rule of ``cost`` along axis ``a``, when its lines there
    are parabolas whose best responses lie within H of the clipped vertex
    (see ``candidate_box``): the own-square coefficient alpha, the terms of
    the own-linear coefficient beta as (coefficient, [(axis, exponent),
    ...]), and H padded for the rounding of the cells' bounds; else None.
    """
    if not isinstance(cost, Poly):
        return None
    # Python lists: the arrays hold a few terms, too few for numpy calls
    rows, coeffs = cost.exps.tolist(), cost.coeffs.tolist()
    square = [t for t, row in enumerate(rows) if row[a] == 2]
    if len(square) != 1 or max(row[a] for row in rows) > 2:
        return None
    alpha = coeffs[square[0]]
    gaps = np.diff(axes[a])
    h = float(gaps.min()) * (1 - 2.0 ** -40)
    if (alpha <= 0 or sum(map(bool, rows[square[0]])) != 1
            or not 0.75 * alpha * h * h > 3 * cost.err + MASK_TOL_ABS
            + MASK_TOL_REL * cost.bound):
        return None
    beta = [(c, [(k, e) for k, e in enumerate(row) if e and k != a])
            for c, row in zip(coeffs, rows) if row[a] == 1]
    wide = float(gaps.max())
    pad = wide + 2.0 ** -40 * (abs(float(axes[a][0])) + abs(float(axes[a][-1]))
                               + wide)
    return alpha, beta, pad


def candidate_box(costs: Sequence[np.ndarray | Poly],
                  axes: Sequence[np.ndarray]) -> list[range]:
    """Index ranges, one per axis, whose product holds every cell that is
    a best response of every cost along its own axis: every grid
    equilibrium of ``costs``, and with ``[J] * n`` every cell that holds
    J's grid minimum.

    Axis ``a`` is certified when its cost is a ``Poly`` with one own-square
    term alpha * u_a^2, alpha > 0, no other factor and no higher own power,
    and 3/4 alpha h^2 > 3 err + ``MASK_TOL_ABS`` + ``MASK_TOL_REL`` B (h
    and H the smallest and largest spacing of the axis, err the
    ``float_error``, B the ``magnitude_bound``).  A line is then
    alpha u^2 + beta(y) u + gamma(y), and a cell farther than H from its
    vertex -beta / (2 alpha), clipped to the axis, is above the cell
    nearest the vertex by more than 3/4 alpha h^2 (the nearest is within
    H/2): in floats it is above the line minimum's bar even with the fold's
    error, so it is no best response.

    From the whole grid, sweeps shrink each certified axis's range to the
    cells within H of its clipped vertices, beta enclosed one monomial at a
    time over the other axes' current ranges (interval products in floats,
    widened by 2^-40 of the summed term magnitudes, which also covers the
    division and alpha's rounding), until a sweep changes nothing.  A cell
    that is a best response on each axis stays in the box through every
    sweep.  Other axes keep their full range.  No range empties: the map
    from a profile to its clipped vertices is continuous, so it has a fixed
    point (Brouwer), whose vertices every enclosure holds; each range keeps
    the cells on both sides of it.
    """
    box = [range(len(ax)) for ax in axes]
    rules = [(a, rule) for a, cost in enumerate(costs)
             if (rule := _parabola(cost, axes, a))]
    points = [ax.tolist() for ax in axes] if rules else []
    changed = bool(rules)
    while changed:
        changed = False
        for a, (alpha, beta, pad) in rules:
            lo = hi = size = 0.0
            for c, factors in beta:
                low = high = c
                mag = abs(c)
                for k, e in factors:
                    left, right = points[k][box[k][0]], points[k][box[k][-1]]
                    p, q = sorted((left ** e, right ** e))
                    if e % 2 == 0 and left < 0 < right:
                        p = 0.0
                    ends = (low * p, low * q, high * p, high * q)
                    low, high = min(ends), max(ends)
                    mag *= max(abs(p), abs(q))
                lo, hi, size = lo + low, hi + high, size + mag
            slack = 2.0 ** -40 * size
            first, last = points[a][0], points[a][-1]
            v_lo = min(max(-(hi + slack) / (2 * alpha), first), last)
            v_hi = min(max(-(lo - slack) / (2 * alpha), first), last)
            new = range(max(box[a].start, bisect_left(points[a], v_lo - pad)),
                        min(box[a].stop, bisect_right(points[a], v_hi + pad)))
            if new != box[a]:
                box[a], changed = new, True
    return box


def pure_nash_mask(costs: Sequence[np.ndarray | Poly],
                   axes: Sequence[np.ndarray]) -> np.ndarray:
    """Grid cells where no agent can strictly improve alone, as rows of
    axis indices in C order.  Each cost is a full table or a ``Poly``.

    Every agent reads its cost on the whole lines along its own axis
    through ``candidate_box``, and the box's cells that are best responses
    of every agent stand.  On a box that is the whole grid, every agent
    reads its full table.
    """
    box = candidate_box(costs, axes)
    keep = np.ones(tuple(len(r) for r in box), dtype=bool)
    for a, cost in enumerate(costs):
        # one agent at a time, so that its values are freed before the
        # next agent's are read
        keep &= _best_on_box(cost, axes, box, a)
    return np.argwhere(keep) + [r.start for r in box]


def grid_argmin(cost: np.ndarray | Poly, axes: Sequence[np.ndarray]
                ) -> tuple[tuple[int, ...], float]:
    """The first cell in C order that holds the grid minimum of ``cost``,
    and its value: ``np.argmin``'s choice on the full table.

    ``cost`` is read on ``candidate_box`` of ``[cost] * n``, which holds
    every cell at the minimum; on a box that is the whole grid, that is
    the full table."""
    box = candidate_box([cost] * len(axes), axes)
    values = _on_box(cost, axes, box)
    first = np.unravel_index(np.argmin(values), values.shape)
    return (tuple(r[i] for r, i in zip(box, first)), float(values[first]))
