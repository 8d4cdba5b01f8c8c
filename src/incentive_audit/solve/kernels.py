"""Hot grid kernels: polynomial evaluation and the pure-equilibrium filter.

``poly_eval_at`` evaluates a polynomial at the cells that broadcasting
index arrays pick from the grid; ``poly_grid_eval`` is its full-grid case.
``pure_nash_mask`` filters agent by agent: the first agent's cost is a
full table, and each later agent's cost is read only on its own lines
through the cells still standing, from a full table or from its
polynomial.  The full tables grow with the grid's cell count;
``oracle.check_grid_size`` bounds them before any is built.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

#: a grid cell is a best response when its cost is within this of the
#: line minimum, absolutely plus relative to the minimum's size
MASK_TOL_ABS = 1e-12
MASK_TOL_REL = 1e-12


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


def _best(values: np.ndarray, line_min: np.ndarray) -> np.ndarray:
    """Where ``values`` is a best response against its ``line_min``."""
    return values <= line_min + MASK_TOL_ABS + MASK_TOL_REL * np.abs(line_min)


def pure_nash_mask(costs: Sequence[np.ndarray | tuple[np.ndarray, np.ndarray]],
                   axes: Sequence[np.ndarray]) -> np.ndarray:
    """Grid cells where no agent can strictly improve alone, as rows of
    axis indices in C order.

    Each cost is a table on the full grid, or a polynomial's arrays as
    ``Polynomial.to_arrays`` gives them; ``costs[0]`` is a table, and its
    best-response cells are the candidates.  Agent ``a`` then keeps the
    candidates that are best responses on its own lines (axis ``a``
    varying, every other index fixed).  Each distinct line through the
    candidates is evaluated once, gathered from the agent's table or
    computed from its polynomial by ``poly_eval_at``.
    """
    first = costs[0]
    shape = first.shape
    # flat indices ascend in C order; unravelled, one index array per axis
    best = _best(first, first.min(axis=0, keepdims=True))
    cells = np.unravel_index(np.flatnonzero(best), shape)
    for a in range(1, len(costs)):
        others = [k for k in range(len(shape)) if k != a]
        dims = tuple(shape[k] for k in others)
        keys = np.ravel_multi_index([cells[k] for k in others], dims)
        seen = np.zeros(prod(dims), dtype=bool)
        seen[keys] = True
        row = (np.cumsum(seen) - 1)[keys]
        index = [i[:, None] for i in np.unravel_index(np.flatnonzero(seen),
                                                      dims)]
        index.insert(a, np.arange(shape[a]))
        cost = costs[a]
        if isinstance(cost, np.ndarray):
            values = cost[tuple(index)]
        else:
            values = poly_eval_at(*cost, axes, index)
        line_min = values.min(axis=1)
        keep = _best(values[row, cells[a]], line_min[row])
        cells = [c[keep] for c in cells]
    return np.stack(cells, axis=1)
