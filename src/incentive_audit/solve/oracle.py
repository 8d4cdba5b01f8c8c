"""Brute-force grid reference: exhaustive equilibrium and minimum search.

This is the independent cross-check for the analytic solvers: costs are
tabulated on a dense cartesian grid and a profile counts as a grid
equilibrium when no unilateral move along the grid strictly improves any
agent.  Intended for small games (n <= 4); the per-axis resolution comes
from SolverConfig.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..expr import Expression, Number, vector_fn
from ..expr.polynomial import as_polynomial
from ..game import ActionProfile
from .config import SolverConfig
from . import kernels

ORACLE_MAX_AGENTS = 4

#: budget for the stacked float64 cost tables of one oracle run
ORACLE_MAX_TABLE_BYTES = 1 << 30


class OracleDimensionError(ValueError):
    """Raised when the exhaustive oracle is asked for too many agents or a
    grid whose tables would not fit the memory budget."""


def max_axis_points(cells: int, n: int) -> int:
    """Largest per-axis count ``p >= 1`` with ``p**n <= cells``: the integer
    n-th root, by bisection."""
    fits, hi = 1, cells
    while fits < hi:
        mid = (fits + hi + 1) // 2
        if mid ** n <= cells:
            fits = mid
        else:
            hi = mid - 1
    return fits


def check_grid_size(n: int, points: int) -> None:
    """Refuse an oracle run of ``n`` agents at ``points`` per axis before
    anything is allocated.

    The estimate is the stacked cost tables, ``n * points**n`` float64
    cells; the message names the largest grid that fits the budget.
    """
    if n > ORACLE_MAX_AGENTS:
        raise OracleDimensionError(
            f"grid oracle supports at most {ORACLE_MAX_AGENTS} agents, got {n}")
    needed = n * points ** n * 8
    if needed <= ORACLE_MAX_TABLE_BYTES:
        return
    fits = max_axis_points(ORACLE_MAX_TABLE_BYTES // (n * 8), n)
    raise OracleDimensionError(
        f"grid oracle tables for {n} agents at {points} points per axis need "
        f"{needed / 2**30:.1f} GiB, over the "
        f"{ORACLE_MAX_TABLE_BYTES / 2**30:g} GiB budget; use --grid {fits} "
        f"or less")


def grid_axes(bounds: Sequence[tuple[Number, Number]],
              points: int) -> list[np.ndarray]:
    return [np.linspace(float(lo), float(hi), points) for lo, hi in bounds]


def eval_array(e: Expression, arrays: Sequence[np.ndarray]) -> np.ndarray | float:
    """``e`` on arrays that broadcast against each other (compiled once)."""
    return vector_fn(e)(arrays)


def eval_on_grid(e: Expression, axes: Sequence[np.ndarray],
                 out: np.ndarray | None = None) -> np.ndarray:
    """Tabulate ``e`` on the cartesian product of the axes, into ``out``
    (a float64 array of the grid's shape) when one is given."""
    n = len(axes)
    shape = tuple(len(ax) for ax in axes)
    if out is None:
        out = np.empty(shape)
    p = as_polynomial(e)
    if p is not None:
        coeffs, exps = p.to_arrays(n)
        return kernels.poly_grid_eval(coeffs, exps, axes, out=out)
    grids = []
    for k, ax in enumerate(axes):
        reshape = [1] * n
        reshape[k] = shape[k]
        grids.append(np.asarray(ax, dtype=np.float64).reshape(reshape))
    out[...] = eval_array(e, grids)
    return out


def _finite(table: np.ndarray) -> np.ndarray:
    """``table``, refused with an ``OverflowError`` when a cell is not
    finite: costs beyond the float range cannot be compared."""
    if not np.isfinite(table).all():
        raise OverflowError("a cost on the grid is beyond the float range")
    return table


def grid_nash_oracle(costs: Sequence[Expression],
                     bounds: Sequence[tuple[Number, Number]],
                     cfg: SolverConfig) -> list[ActionProfile]:
    """All grid profiles where no unilateral grid move strictly improves.

    Returned in lexicographic order of the profile values.
    """
    check_grid_size(len(costs), cfg.grid_points_per_axis)
    axes = grid_axes(bounds, cfg.grid_points_per_axis)
    # each table is written in place: no second copy of the stack
    tables = np.empty((len(costs),) + tuple(len(ax) for ax in axes))
    for c, table in zip(costs, tables):
        _finite(eval_on_grid(c, axes, out=table))
    mask = kernels.pure_nash_mask(tables)
    profiles = []
    for idx in np.argwhere(mask):
        profiles.append(ActionProfile([axes[k][i] for k, i in enumerate(idx)]))
    return profiles


def grid_minimum(e: Expression, bounds: Sequence[tuple[Number, Number]],
                 cfg: SolverConfig) -> tuple[ActionProfile, float]:
    """Best grid point of ``e``; first (lexicographically smallest) on ties."""
    check_grid_size(len(bounds), cfg.grid_points_per_axis)
    axes = grid_axes(bounds, cfg.grid_points_per_axis)
    table = _finite(eval_on_grid(e, axes))
    flat = int(np.argmin(table))
    idx = np.unravel_index(flat, table.shape)
    profile = ActionProfile([axes[k][i] for k, i in enumerate(idx)])
    return profile, float(table[idx])


def grid_step(bounds: Sequence[tuple[Number, Number]], points: int) -> float:
    """The largest axis spacing, i.e. the oracle's resolution."""
    return max((float(hi) - float(lo)) / (points - 1) for lo, hi in bounds)
