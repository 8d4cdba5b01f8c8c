"""Hot grid kernels: polynomial evaluation, line minima, grid equilibria.

``poly_eval_at`` evaluates a polynomial at the cells that broadcasting
index arrays pick from the grid; ``poly_grid_eval`` is its full-grid case.
``line_best`` reads a cost on lines along one axis: a ``Poly`` convex
along it on a certified window of 4 cells per line when that costs less
than whole lines, anything else (and a line whose certificate fails)
whole.  A cost read on all lines, the first agent's in ``pure_nash_mask``
and the one in ``grid_argmin``, is tabulated unless windows cost less
than its table (``_windowed`` counts both).  Each cell read is the same
fold as in a full table, so results are the tables' bit for bit.
``oracle.check_grid_size`` bounds the tables.
"""

from __future__ import annotations

from math import inf, prod
from typing import NamedTuple, Sequence

from .._lazy import np

#: a grid cell is a best response when its cost is within this of the
#: line minimum, absolutely plus relative to the minimum's size
MASK_TOL_ABS = 1e-12
MASK_TOL_REL = 1e-12

#: one pass over a window's cells, in passes of a table's in-place add
#: over as many cells.  Measured (2-core VM, numpy 2.4.6): a gather, a
#: multiply and an add on the windows of all lines took 4.2 table adds
#: together on a 31^4 grid (the gather about 2) and 3.5 on a 101^3 grid;
#: the 31^4 ratio is taken, since only there is the choice close
WINDOW_PASS_COST = 1.4

#: what a windowed read costs beyond its passes, in the same cell passes:
#: about two dozen more numpy calls than a table or whole lines, 0.1-0.2
#: ms.  Fitted to in-process times of both reads of each cost of 95
#: ``oracle`` workload games and the bundled games at 201 points (445
#: reads, 572 ms at the faster read): from 40 000 to 70 000 the rule
#: loses 2.2 ms on 8 reads (4 of them 4-agent first agents, whose tables
#: are kept on purpose); with no fixed cost it loses 19 ms on 154, mostly
#: later agents with a few dozen lines to read
WINDOW_READ_COST = 60_000


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


def _full_terms(exps: np.ndarray) -> int:
    """The terms that ``poly_eval_at`` folds into a full-size running sum:
    those from the first after which the sum spans every axis, or the one
    broadcast copy when it never does."""
    spanned = np.logical_or.accumulate(exps > 0, axis=0).all(axis=1)
    return max(1, int(spanned.sum()))


def _windowed(cost: np.ndarray | Poly, a: int, axes: Sequence[np.ndarray],
              lines: int, table: bool) -> bool:
    """Whether ``cost`` is read on ``lines`` lines along axis ``a`` by
    windows rather than by a full table (``table``) or by whole lines,
    whichever costs less.

    Counted in cells times passes: a table folds each line's points once
    per term it folds at full size, and a whole line once per term.  A
    window folds its 4 cells in three passes per term in the action read
    (gather, multiply, add) and in one per other term, whose factors are
    gathered per line and which is only added; each pass weighs
    ``WINDOW_PASS_COST``, and the read adds ``WINDOW_READ_COST``.  On
    thousands of 31-point lines whole lines took 1.9-2.1 times the
    windows' time, where the count gives 1.85."""
    if not (isinstance(cost, Poly) and a in cost.convex):
        return False
    terms = len(cost.coeffs)
    own = np.count_nonzero(cost.exps[:, a])
    window = 4 * WINDOW_PASS_COST * (terms + 2 * own)
    other = _full_terms(cost.exps) if table else terms
    return lines * window + WINDOW_READ_COST < lines * len(axes[a]) * other


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

    A window is the cells f-1 .. f+2, f the grid point at or below the
    line's float vertex -g1 / (2 g2), a guess, moved inside the axis; m is
    its minimum.  A vertex midway between two grid points has both in the
    window, with a cell beyond each.  Each window end that
    is not an axis end must exceed ``_bar(m) + 2 * err``: the exact line is
    convex, so every cell beyond then exceeds ``_bar(m)`` in floats (half
    of ``err`` covers the fold, the rest the threshold's rounding), m is
    the line minimum and the window holds every best response.
    """
    points = len(axes[a])
    if not _windowed(cost, a, axes, len(lines[0]), table=False):
        values = _read(cost, axes, a, lines, np.arange(points)[:, None])
        line_min = values.min(axis=0)
        pos, line = np.nonzero(values <= _bar(line_min))
        return line_min, line, pos, values[pos, line]
    coeffs, exps, err, _ = cost
    own = exps[:, a]
    slope = Poly(coeffs[own == 1], exps[own == 1] * (np.arange(len(axes)) != a))
    g1 = _read(slope, axes, a, lines, np.zeros((1, 1), dtype=np.intp))[0]
    lo, hi = axes[a][0], axes[a][-1]
    with np.errstate(all="ignore"):
        guess = (-g1 / (2.0 * coeffs[own == 2].sum()) - lo) / (hi - lo)
    # clipped while a float, so that the cast sees only finite values
    guess = np.clip(np.nan_to_num(guess * (points - 1)), 1, points - 3)
    start = np.floor(guess).astype(np.intp) - 1
    values = _read(cost, axes, a, lines, start + np.arange(4)[:, None])
    line_min = values.min(axis=0)
    bar = _bar(line_min)
    sure = (((start == 0) | (values[0] > bar + 2 * err))
            & ((start == points - 4) | (values[-1] > bar + 2 * err)))
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
    if _windowed(first, 0, axes, rest, table=True):
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
    a = next((a for a in range(len(axes))
              if _windowed(cost, a, axes, prod(shape) // shape[a],
                           table=True)), None)
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
