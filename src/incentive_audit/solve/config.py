"""Solver configuration shared by the optimization and equilibrium routines."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: largest grid resolution accepted; grid memory grows with it
MAX_GRID_POINTS = 10_001

#: seed of the random multistart points and the audit's sampled profiles
RNG_SEED = 202401


@dataclass(frozen=True)
class SolverConfig:
    grid_points_per_axis: int = 201
    #: fixed-point, stationarity and verification tolerance
    tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 3 <= self.grid_points_per_axis <= MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points_per_axis must be between 3 and "
                f"{MAX_GRID_POINTS}, got {self.grid_points_per_axis}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(
                f"tolerances must be positive and finite, got {self.tol}")

    def replace(self, **kwargs) -> "SolverConfig":
        from dataclasses import replace

        return replace(self, **kwargs)
