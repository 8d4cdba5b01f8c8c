"""Optimization, equilibrium computation, and the brute-force grid oracle."""

from .config import RNG_SEED, SolverConfig
from .linesearch import LineMin
from .oracle import (
    OracleDimensionError,
    check_grid_size,
    grid_minimum,
    grid_nash_oracle,
    grid_step,
)
from .solvers import (
    ConvexityReport,
    EquilibriumResult,
    OperatorSolution,
    SolverError,
    best_response,
    diagonal_strict_convexity_check,
    hessian_pd_check,
    minimize_operator,
    nash_equilibrium,
    verify_nash,
)

__all__ = [
    "ConvexityReport",
    "EquilibriumResult",
    "LineMin",
    "OperatorSolution",
    "OracleDimensionError",
    "RNG_SEED",
    "SolverConfig",
    "SolverError",
    "best_response",
    "check_grid_size",
    "diagonal_strict_convexity_check",
    "grid_minimum",
    "grid_nash_oracle",
    "grid_step",
    "hessian_pd_check",
    "minimize_operator",
    "nash_equilibrium",
    "verify_nash",
]
