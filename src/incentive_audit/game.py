"""Scenario model: games, incentive schemes, scenarios and action profiles.

Actions are scalar and live in mandatory closed intervals; the defaults of
[-10, 10] are wide enough for every bundled example while keeping grid
methods on a compact box.  Every class here is immutable, so each is safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .expr import Expression, Number, structural_variables

DEFAULT_BOUND = (Fraction(-10), Fraction(10))

ANTICIPATORY = "anticipatory"
NON_ANTICIPATORY = "non-anticipatory"

PROPORTIONAL = "proportional"
VCG = "vcg"
CUSTOM = "custom"
#: every incentive kind, in the order ``incentive.RULES`` lists their rules
KINDS = (PROPORTIONAL, VCG, CUSTOM)


def empty_interval(lo: Number, hi: Number) -> bool:
    """True when [lo, hi]'s ends are not increasing as floats."""
    return not float(lo) < float(hi)


def _coerce(v: Number) -> Number:
    if isinstance(v, bool):
        raise TypeError("profile values must be numbers")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, float)):
        return v
    # numpy scalars and anything float-like
    return float(v)


@dataclass(frozen=True)
class ActionProfile:
    """One scalar action per agent.

    Values may be exact rationals or floats; ``exact`` reports whether the
    whole profile stayed rational (the golden paths of the bundled
    examples do).
    """

    values: tuple[Number, ...]

    def __init__(self, values: Sequence[Number]):
        object.__setattr__(self, "values", tuple(_coerce(v) for v in values))

    def __iter__(self) -> Iterator[Number]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Number:
        return self.values[i]

    @property
    def exact(self) -> bool:
        return all(not isinstance(v, float) for v in self.values)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)

    def replace(self, i: int, value: Number) -> "ActionProfile":
        vals = list(self.values)
        vals[i] = value
        return ActionProfile(vals)

    def max_distance(self, other: "ActionProfile") -> float:
        return max(abs(float(a) - float(b))
                   for a, b in zip(self.values, other.values))


@dataclass(frozen=True)
class Game:
    """n agents with cost expressions, an operator objective, and box bounds."""

    n: int
    agent_costs: tuple[Expression, ...]
    operator_cost: Expression
    bounds: tuple[tuple[Number, Number], ...] = ()
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a game needs at least two agents")
        if len(self.agent_costs) != self.n:
            raise ValueError("one cost expression per agent required")
        object.__setattr__(self, "agent_costs", tuple(self.agent_costs))
        bounds = tuple(self.bounds) if self.bounds else (DEFAULT_BOUND,) * self.n
        if len(bounds) != self.n:
            raise ValueError("one bound interval per agent required")
        for lo, hi in bounds:
            if empty_interval(lo, hi):
                raise ValueError(f"empty bound interval [{lo}, {hi}]")
        object.__setattr__(self, "bounds", bounds)
        names = tuple(self.names) if self.names else tuple(
            f"u{i + 1}" for i in range(self.n))
        if len(names) != self.n:
            raise ValueError("one name per agent required")
        object.__setattr__(self, "names", names)
        for e in (*self.agent_costs, self.operator_cost):
            stray = [i for i in structural_variables(e) if i >= self.n]
            if stray:
                raise ValueError(
                    f"expression references undeclared variable index {stray[0]}")


@dataclass(frozen=True)
class IncentiveScheme:
    """One of the built-in rules or a custom per-agent expression list."""

    kind: str
    mode: str = ANTICIPATORY
    expressions: Optional[tuple[Expression, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown incentive kind {self.kind!r}")
        if self.mode not in (ANTICIPATORY, NON_ANTICIPATORY):
            raise ValueError(f"unknown anticipation mode {self.mode!r}")
        if self.kind == CUSTOM:
            if not self.expressions:
                raise ValueError("custom scheme needs one expression per agent")
            object.__setattr__(self, "expressions", tuple(self.expressions))
        elif self.expressions is not None:
            raise ValueError(f"{self.kind} scheme does not take expressions")


@dataclass(frozen=True)
class Scenario:
    """A game plus (optionally) an incentive scheme and the agents that
    unilaterally opt out of it.

    ``incentive=None`` models the plain no-incentive game, which forces
    all-in participation.
    """

    game: Game
    incentive: Optional[IncentiveScheme] = None
    opted_out: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        bad = [i for i in self.opted_out if i < 0 or i >= self.game.n]
        if bad:
            raise ValueError(f"opt-out index {bad[0]} out of range")
        custom = self.incentive and self.incentive.expressions
        if custom and len(custom) != self.game.n:
            raise ValueError("custom scheme needs one expression per agent")
        if self.incentive is None and self.opted_out:
            raise ValueError("opting out is meaningless without an incentive")
