"""Equilibrium computation and incentive-scheme auditing for coupled-cost
multi-agent systems with a central operator."""

from . import audit, expr, gamefile, incentive, report, solve
from .game import (
    ANTICIPATORY,
    NON_ANTICIPATORY,
    ActionProfile,
    Game,
    Participation,
    Scenario,
    effective_cost,
)

__version__ = "0.1.0"

__all__ = [
    "ANTICIPATORY",
    "ActionProfile",
    "Game",
    "NON_ANTICIPATORY",
    "Participation",
    "Scenario",
    "audit",
    "effective_cost",
    "expr",
    "gamefile",
    "incentive",
    "report",
    "solve",
    "__version__",
]
