"""Hot grid kernels: polynomial evaluation, line minima, grid equilibria.

``poly_eval_at`` evaluates a polynomial at the cells that broadcasting
index arrays pick from the grid; ``poly_grid_eval`` is its full-grid case.
``line_best`` reads a cost on lines along one axis: a ``Poly`` convex
along it on a certified window of 2R+1 cells per line, anything else (and
a line whose certificate fails) whole.  Each cell read is the same fold
as in a full table, so results are the tables' bit for bit.  Other costs
read on all lines are tabulated (``oracle.check_grid_size`` bounds them).
"""

from __future__ import annotations

from math import inf, prod
from typing import NamedTuple, Sequence

from .._lazy import np

#: a grid cell is a best response when its cost is within this of the
#: line minimum, absolutely plus relative to the minimum's size
MASK_TOL_ABS = 1e-12
MASK_TOL_REL = 1e-12

#: a window is the 2R+1 cells of a line around its estimated minimizer
WINDOW_RADIUS = 2

#: shorter lines are read whole: a window cell costs several table cells.
#: Measured (2-core VM, numpy 2.4.6): windows read 101-point lines about 3x
#: faster than tables, but on 31-point 4-agent grids the first agent's
#: filter went 5.55 -> 8.10 ms and the grid minimum 7.84 -> 12.56 ms
WINDOW_MIN_POINTS = 8 * (2 * WINDOW_RADIUS + 1)


class Poly(NamedTuple):
    """``Polynomial.to_arrays``, ``float_error`` and its convex axes."""

    coeffs: np.ndarray
    exps: np.ndarray
    err: float = inf
    convex: tuple[int, ...] = ()


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


def _windowed(cost: np.ndarray | Poly, a: int,
              axes: Sequence[np.ndarray]) -> bool:
    """Whether ``line_best`` reads ``cost`` along axis ``a`` by windows."""
    return (isinstance(cost, Poly) and a in cost.convex
            and len(axes[a]) >= WINDOW_MIN_POINTS)


def _table(cost: np.ndarray | Poly, axes: Sequence[np.ndarray]) -> np.ndarray:
    return cost if isinstance(cost, np.ndarray) else poly_grid_eval(
        cost.coeffs, cost.exps, axes)


def _read(cost: np.ndarray | Poly, axes: Sequence[np.ndarray], a: int,
          lines: Sequence[np.ndarray], pos: np.ndarray) -> np.ndarray:
    """``cost`` at the indices ``pos`` along axis ``a`` of the ``lines``."""
    index = list(lines)
    index.insert(a, pos)
    if isinstance(cost, np.ndarray):
        return cost[tuple(index)]
    return poly_eval_at(cost.coeffs, cost.exps, axes, index)


def line_best(cost: np.ndarray | Poly, axes: Sequence[np.ndarray], a: int,
              lines: Sequence[np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The minima of the lines along axis ``a`` through ``lines`` (one
    index array per other axis), and their best-response cells (in no set
    order) as line numbers, indices along ``a`` and costs.

    A window is 2R+1 cells around the grid point nearest the line's float
    vertex -g1 / (2 g2), a guess; m is its minimum.  Each window end that
    is not an axis end must exceed ``_bar(m) + 2 * err``: the exact line is
    convex, so every cell beyond then exceeds ``_bar(m)`` in floats (half
    of ``err`` covers the fold, the rest the threshold's rounding), m is
    the line minimum and the window holds every best response.
    """
    points = len(axes[a])
    if not _windowed(cost, a, axes):
        values = _read(cost, axes, a, lines, np.arange(points)[:, None])
        line_min = values.min(axis=0)
        pos, line = np.nonzero(values <= _bar(line_min))
        return line_min, line, pos, values[pos, line]
    coeffs, exps, err, _ = cost
    own, r = exps[:, a], WINDOW_RADIUS
    slope = Poly(coeffs[own == 1], exps[own == 1] * (np.arange(len(axes)) != a))
    g1 = _read(slope, axes, a, lines, np.zeros((1, 1), dtype=np.intp))[0]
    lo, hi = axes[a][0], axes[a][-1]
    with np.errstate(all="ignore"):
        guess = (-g1 / (2.0 * coeffs[own == 2].sum()) - lo) / (hi - lo)
    guess = np.clip(np.nan_to_num(guess * (points - 1)), r, points - 1 - r)
    start, width = np.rint(guess).astype(np.intp) - r, 2 * r + 1
    values = _read(cost, axes, a, lines, start + np.arange(width)[:, None])
    line_min = values.min(axis=0)
    bar = _bar(line_min)
    sure = (((start == 0) | (values[0] > bar + 2 * err))
            & ((start == points - width) | (values[-1] > bar + 2 * err)))
    pos, line = np.nonzero((values <= bar) & sure)
    pos, value = start[line] + pos, values[pos, line]
    if not sure.all():
        redo = np.flatnonzero(~sure)
        whole = line_best(cost._replace(convex=()), axes, a,
                          [k[redo] for k in lines])
        line_min[redo] = whole[0]
        line, pos, value = (np.concatenate(pair) for pair in zip(
            (line, pos, value), (redo[whole[1]], whole[2], whole[3])))
    return line_min, line, pos, value


def pure_nash_mask(costs: Sequence[np.ndarray | Poly],
                   axes: Sequence[np.ndarray]) -> np.ndarray:
    """Grid cells where no agent can strictly improve alone, as rows of
    axis indices in C order.  Each cost is a full table or a ``Poly``.
    The candidates are the first agent's best responses on all its lines;
    agent ``a`` keeps those that are best responses on its own lines.
    """
    shape = tuple(len(ax) for ax in axes)
    first, rest = costs[0], prod(shape[1:])
    if _windowed(first, 0, axes):
        lines = list(np.indices(shape[1:]).reshape(len(shape) - 1, rest))
        _, line, pos, _ = line_best(first, axes, 0, lines)
        flat = np.sort(pos * rest + line)
    else:
        # flat indices ascend in C order
        table = _table(first, axes)
        flat = np.flatnonzero(table <= _bar(table.min(axis=0, keepdims=True)))
    cells = np.unravel_index(flat, shape)
    for a in range(1, len(costs)):
        others = [k for k in range(len(shape)) if k != a]
        dims = tuple(shape[k] for k in others)
        keys = np.ravel_multi_index([cells[k] for k in others], dims)
        seen = np.zeros(prod(dims), dtype=bool)
        seen[keys] = True
        row = (np.cumsum(seen) - 1)[keys]
        lines = np.unravel_index(np.flatnonzero(seen), dims)
        _, line, pos, _ = line_best(costs[a], axes, a, lines)
        best = np.zeros((len(lines[0]), shape[a]), dtype=bool)
        best[line, pos] = True
        keep = best[row, cells[a]]
        cells = [c[keep] for c in cells]
    return np.stack(cells, axis=1)


def grid_argmin(cost: np.ndarray | Poly, axes: Sequence[np.ndarray]
                ) -> tuple[tuple[int, ...], float]:
    """The first cell in C order that holds the grid minimum of ``cost``,
    and its value: ``np.argmin``'s choice on the full table."""
    shape = tuple(len(ax) for ax in axes)
    a = next((a for a in range(len(axes)) if _windowed(cost, a, axes)), None)
    if a is None:
        table = _table(cost, axes)
        idx = np.unravel_index(int(np.argmin(table)), shape)
        return idx, float(table[idx])
    dims = shape[:a] + shape[a + 1:]
    lines = list(np.indices(dims).reshape(len(dims), prod(dims)))
    line_min, line, pos, value = line_best(cost, axes, a, lines)
    hit = np.flatnonzero(value == line_min.min())
    index = [k[line[hit]] for k in lines]
    index.insert(a, pos[hit])
    first = int(np.argmin(np.ravel_multi_index(index, shape)))
    return tuple(k[first] for k in index), float(value[hit[first]])
