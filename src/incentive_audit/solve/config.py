"""Solver configuration shared by the optimization and equilibrium routines."""

from __future__ import annotations

from dataclasses import dataclass

#: largest grid resolution accepted; scan and grid memory grow with it
MAX_GRID_POINTS = 10_001


@dataclass(frozen=True)
class SolverConfig:
    grid_points_per_axis: int = 201
    br_max_iters: int = 500
    tol_fixed_point: float = 1e-9
    tol_stationarity: float = 1e-9
    multistart_count: int = 8
    rng_seed: int = 202401

    def __post_init__(self) -> None:
        if not 3 <= self.grid_points_per_axis <= MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points_per_axis must be between 3 and "
                f"{MAX_GRID_POINTS}, got {self.grid_points_per_axis}")
        if self.tol_fixed_point <= 0 or self.tol_stationarity <= 0:
            raise ValueError("tolerances must be positive")
        if self.br_max_iters < 1 or self.multistart_count < 1:
            raise ValueError("iteration counts must be positive")

    def replace(self, **kwargs) -> "SolverConfig":
        from dataclasses import replace

        return replace(self, **kwargs)
