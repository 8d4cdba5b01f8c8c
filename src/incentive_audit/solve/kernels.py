"""Hot grid kernels: polynomial evaluation and pure-equilibrium scans.

Both kernels are vectorized numpy over the full cartesian grid, so their
memory grows with the grid's cell count; ``oracle.check_grid_size``
bounds it before any table is built.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: a grid cell is a best response when its cost is within this of the
#: line minimum, absolutely plus relative to the minimum's size
MASK_TOL_ABS = 1e-12
MASK_TOL_REL = 1e-12


def poly_grid_eval(coeffs: np.ndarray, exps: np.ndarray,
                   axes: Sequence[np.ndarray],
                   out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate sum_t coeffs[t] * prod_k x_k^exps[t,k] on the axes grid,
    into ``out`` (a float64 array of the grid's shape) when one is given.

    A value beyond the float range is left as numpy computes it (inf, or
    nan where infinities cancel), without a warning; callers that need a
    finite table check for one."""
    axes = [np.asarray(ax, dtype=np.float64) for ax in axes]
    n = len(axes)
    shape = tuple(len(ax) for ax in axes)
    if out is None:
        out = np.zeros(shape, dtype=np.float64)
    else:
        out.fill(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(coeffs.size):
            term: np.ndarray | float = coeffs[t]
            for k in range(n):
                e = int(exps[t, k])
                if e:
                    reshape = [1] * n
                    reshape[k] = shape[k]
                    term = term * (axes[k] ** e).reshape(reshape)
            out += term
    return out


def pure_nash_mask(tables: np.ndarray) -> np.ndarray:
    """Mask of grid points where no agent can strictly improve alone.

    ``tables[a]`` holds agent ``a``'s cost on the full grid; axis ``a`` of
    each table corresponds to that agent's own action.
    """
    tables = np.asarray(tables, dtype=np.float64)
    mask = np.ones(tables.shape[1:], dtype=bool)
    for a in range(tables.shape[0]):
        t = tables[a]
        line_min = t.min(axis=a, keepdims=True)
        mask &= t <= line_min + MASK_TOL_ABS + MASK_TOL_REL * np.abs(line_min)
    return mask
