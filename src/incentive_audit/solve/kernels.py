"""Hot grid kernels: polynomial evaluation, line minima, grid equilibria.

``poly_eval_at`` evaluates a polynomial at the cells that broadcasting
index arrays pick from the grid; ``poly_grid_eval`` is its full-grid case.
``candidate_box`` encloses, before any cell is read, the cells that can be
a best response of a cost that is a parabola along its axis: every grid
equilibrium, or every cell at a grid minimum.  ``pure_nash_mask`` and
``grid_argmin`` read only the box when it holds fewer cells than the first
axis has lines: every agent filters the box's cells on its own lines
through them, and the grid minimum is the box's.  Otherwise
``pure_nash_mask`` reads the first agent's cost on every line along its
action and each later agent's on the lines through the cells still
standing, and ``grid_argmin`` reads a cost on every line along the first
axis.  ``line_best`` is the one read of a cost on lines, always whole: on
every line it is the full table, otherwise the lines through the cells
given.  Each cell read is the same fold as in a full table, so results are
the tables' bit for bit.  ``oracle.check_grid_size`` bounds the tables.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf, prod
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


def _table(cost: np.ndarray | Poly, axes: Sequence[np.ndarray]) -> np.ndarray:
    return cost if isinstance(cost, np.ndarray) else poly_grid_eval(
        cost.coeffs, cost.exps, axes)


def _read(cost: np.ndarray | Poly, axes: Sequence[np.ndarray], a: int,
          lines: Sequence[np.ndarray]) -> np.ndarray:
    """``cost`` on the whole ``lines`` along axis ``a``, as (points,
    lines)."""
    index = list(lines)
    index.insert(a, np.arange(len(axes[a]))[:, None])
    if isinstance(cost, np.ndarray):
        return cost[tuple(index)]
    return poly_eval_at(cost.coeffs, cost.exps, axes, index)


def line_best(cost: np.ndarray | Poly, axes: Sequence[np.ndarray], a: int,
              lines: Sequence[np.ndarray] | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minima of the lines along axis ``a`` through ``lines`` (one
    index array per other axis; ``None``: every line, in C order of the
    other axes), and their best-response cells in ascending order as flat
    indices, the index along ``a`` times the number of lines plus the line
    number, and their costs.  On every line along the first axis, a cell's
    flat index is its C-order index on the grid.

    Lines are read whole: every line (``None``) as the full table viewed
    as (points, lines), given lines through ``_read``.
    """
    if lines is None:
        values = np.moveaxis(_table(cost, axes), a, 0).reshape(
            len(axes[a]), -1)
    else:
        values = _read(cost, axes, a, lines)
    line_min = values.min(axis=0)
    cell = np.flatnonzero(values <= _bar(line_min))
    return line_min, cell, values.ravel()[cell]


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


def _cells(box: Sequence[range]) -> int:
    return prod(len(r) for r in box)


def pure_nash_mask(costs: Sequence[np.ndarray | Poly],
                   axes: Sequence[np.ndarray]) -> np.ndarray:
    """Grid cells where no agent can strictly improve alone, as rows of
    axis indices in C order.  Each cost is a full table or a ``Poly``.

    The candidates are the cells of ``candidate_box`` when it holds fewer
    cells than the first axis has lines, and every agent keeps those that
    are best responses on its own lines through them.  Otherwise they are
    the first agent's best responses on all its lines, and each later
    agent filters them the same way.
    """
    shape = tuple(len(ax) for ax in axes)
    box = candidate_box(costs, axes)
    if _cells(box) < prod(shape[1:]):
        flat = np.ravel_multi_index(np.ix_(*box), shape).ravel()
        agents = range(len(costs))
    else:
        box = [range(p) for p in shape]
        _, flat, _ = line_best(costs[0], axes, 0)
        agents = range(1, len(costs))
    for a in agents:
        # the lines through the candidates, numbered within the box
        cells = np.unravel_index(flat, shape)
        others = [k for k in range(len(shape)) if k != a]
        dims = tuple(len(box[k]) for k in others)
        keys = np.ravel_multi_index(
            [cells[k] - box[k].start for k in others], dims)
        seen = np.zeros(prod(dims), dtype=bool)
        seen[keys] = True
        row = (np.cumsum(seen) - 1)[keys]
        lines = [i + box[k].start for k, i in
                 zip(others, np.unravel_index(np.flatnonzero(seen), dims))]
        count = len(lines[0])
        best = np.zeros(shape[a] * count, dtype=bool)
        best[line_best(costs[a], axes, a, lines)[1]] = True
        flat = flat[best[cells[a] * count + row]]
    return np.stack(np.unravel_index(flat, shape), axis=1)


def grid_argmin(cost: np.ndarray | Poly, axes: Sequence[np.ndarray]
                ) -> tuple[tuple[int, ...], float]:
    """The first cell in C order that holds the grid minimum of ``cost``,
    and its value: ``np.argmin``'s choice on the full table.

    When ``candidate_box`` of ``[cost] * n`` holds fewer cells than the
    first axis has lines, ``cost`` is evaluated on the box alone, which
    holds every cell at the minimum; otherwise it is read along the first
    axis."""
    box = candidate_box([cost] * len(axes), axes)
    if _cells(box) < prod(len(ax) for ax in axes[1:]):
        values = poly_eval_at(cost.coeffs, cost.exps, axes, np.ix_(*box))
        first = np.unravel_index(np.argmin(values), values.shape)
        return (tuple(r[i] for r, i in zip(box, first)),
                float(values[first]))
    line_min, flat, value = line_best(cost, axes, 0)
    first = np.flatnonzero(value == line_min.min())[0]
    return (np.unravel_index(flat[first], tuple(len(ax) for ax in axes)),
            float(value[first]))
