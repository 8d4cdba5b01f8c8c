"""Brute-force grid reference: exhaustive equilibrium and minimum search.

This is the independent cross-check for the analytic solvers: a profile
of a dense cartesian grid counts as a grid equilibrium when no unilateral
move along the grid strictly improves any agent.  A polynomial cost that
is a parabola in its own action, curved enough for the float error
margin, bounds where its best responses can lie: ``kernels.candidate_box``
encloses their cells before any cell is read, and each cost is read on
the box alone, an agent's along its own action in full.  Where no axis is
certified the box is the whole grid, and the read is the full table.  A
cost that is not a polynomial, or whose float evaluation might overflow
on the box, is tabulated and checked for non-finite cells.
Intended for small games (n <= 4); the per-axis resolution comes from
SolverConfig.
"""

from __future__ import annotations

from typing import Sequence

from .._lazy import np
from ..expr import Expression, Number, vector_fn
from ..expr.polynomial import as_polynomial
from ..game import ActionProfile
from .config import SolverConfig
from . import kernels

ORACLE_MAX_AGENTS = 4

#: budget for the float64 cost tables of one oracle run, counted as one
#: full table per agent
ORACLE_MAX_TABLE_BYTES = 1 << 30

#: a polynomial whose ``magnitude_bound`` on the box is below this cannot
#: overflow in floats there: the 2^24 left under the largest float absorb
#: the rounding of the bound and of the evaluation
FLOAT_SAFE_BOUND = 2.0 ** 1000


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

    The estimate is ``n * points**n`` float64 cells, one full table per
    agent: an upper bound.  A run reads each cost on its candidate box
    (``kernels.candidate_box``), an agent's along its own axis in full: a
    polynomial is evaluated on a full table only where the box keeps every
    other axis whole (every axis, for a grid minimum), one agent at a
    time, and a cost that is not one is tabulated once.  The message names
    the largest grid that fits the budget.
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
    """``e`` on arrays that broadcast against each other (compiled once);
    inf or nan beyond the float range, without a warning."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return vector_fn(e)(arrays)


def eval_on_grid(e: Expression, axes: Sequence[np.ndarray]) -> np.ndarray:
    """Tabulate ``e`` on the cartesian product of the axes."""
    p = as_polynomial(e)
    if p is not None:
        return kernels.poly_grid_eval(*p.to_arrays(len(axes)), axes)
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    out = eval_array(e, grids)
    shape = tuple(len(ax) for ax in axes)
    return np.broadcast_to(np.asarray(out, dtype=np.float64), shape).copy()


def _finite(table: np.ndarray) -> np.ndarray:
    """``table``, refused with an ``OverflowError`` when a cell is not
    finite: costs beyond the float range cannot be compared."""
    if not np.isfinite(table).all():
        raise OverflowError("a cost on the grid is beyond the float range")
    return table


def _cost_source(e: Expression, axes: Sequence[np.ndarray],
                 bounds: Sequence[tuple[Number, Number]]
                 ) -> np.ndarray | kernels.Poly:
    """``e`` as the kernels read it.

    A polynomial whose ``magnitude_bound`` rules out an overflow on the
    box gives a ``kernels.Poly``: its arrays, its ``float_error`` and the
    bound, computed once for both.  Any other cost gives its table,
    refused by ``_finite`` when a cell is not finite."""
    p = as_polynomial(e)
    if p is None or (bound := p.magnitude_bound(bounds)) >= FLOAT_SAFE_BOUND:
        return _finite(eval_on_grid(e, axes))
    return kernels.Poly(*p.to_arrays(len(axes)), p.float_error(bounds, bound),
                        bound)


def grid_nash_oracle(costs: Sequence[Expression],
                     bounds: Sequence[tuple[Number, Number]],
                     cfg: SolverConfig) -> list[ActionProfile]:
    """All grid profiles where no unilateral grid move strictly improves.

    Returned in lexicographic order of the profile values.
    """
    check_grid_size(len(costs), cfg.grid_points_per_axis)
    axes = grid_axes(bounds, cfg.grid_points_per_axis)
    sources = [_cost_source(c, axes, bounds) for c in costs]
    return [ActionProfile([axes[k][i] for k, i in enumerate(idx)])
            for idx in kernels.pure_nash_mask(sources, axes)]


def grid_minimum(e: Expression, bounds: Sequence[tuple[Number, Number]],
                 cfg: SolverConfig) -> tuple[ActionProfile, float]:
    """Best grid point of ``e``; first (lexicographically smallest) on ties."""
    check_grid_size(len(bounds), cfg.grid_points_per_axis)
    axes = grid_axes(bounds, cfg.grid_points_per_axis)
    idx, value = kernels.grid_argmin(_cost_source(e, axes, bounds), axes)
    return ActionProfile([axes[k][i] for k, i in enumerate(idx)]), value


def grid_step(bounds: Sequence[tuple[Number, Number]], points: int) -> float:
    """The largest axis spacing, i.e. the oracle's resolution."""
    return max((float(hi) - float(lo)) / (points - 1) for lo, hi in bounds)
