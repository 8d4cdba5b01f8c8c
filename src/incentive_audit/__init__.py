"""Equilibrium computation and incentive-scheme auditing for coupled-cost
multi-agent systems with a central operator."""

from . import audit, expr, gamefile, incentive, report, solve

__version__ = "0.1.0"

__all__ = [
    "audit",
    "expr",
    "gamefile",
    "incentive",
    "report",
    "solve",
    "__version__",
]
