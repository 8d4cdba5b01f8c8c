"""Game model: agents, cost functions, operator objective, action bounds.

Actions are scalar and live in mandatory closed intervals; the defaults of
[-10, 10] are wide enough for every bundled example while keeping grid
methods on a compact box.  Game, Scenario and the profile/participation
types are immutable, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .expr import Expression, Number, add, structural_variables

DEFAULT_BOUND = (Fraction(-10), Fraction(10))

ANTICIPATORY = "anticipatory"
NON_ANTICIPATORY = "non-anticipatory"


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
            if not float(lo) < float(hi):
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
class Participation:
    """The set of agents that unilaterally opt out of the incentive scheme."""

    opted_out: frozenset[int] = frozenset()

    def __init__(self, opted_out: Sequence[int] = ()):
        object.__setattr__(self, "opted_out", frozenset(opted_out))

    def participants(self, n: int) -> tuple[int, ...]:
        return tuple(i for i in range(n) if i not in self.opted_out)

    def validate(self, n: int) -> None:
        bad = [i for i in self.opted_out if i < 0 or i >= n]
        if bad:
            raise ValueError(f"opt-out index {bad[0]} out of range")


@dataclass(frozen=True)
class Scenario:
    """A game plus (optionally) an incentive scheme and participation state.

    ``incentive`` is any object with ``kind`` and ``mode`` attributes (see
    the incentive module); ``incentive=None`` models the plain
    no-incentive game, which forces all-in participation.
    """

    game: Game
    incentive: Optional[object] = None
    participation: Participation = field(default_factory=Participation)

    def __post_init__(self) -> None:
        self.participation.validate(self.game.n)
        if self.incentive is None and self.participation.opted_out:
            raise ValueError("opting out is meaningless without an incentive")


def effective_cost(scenario: Scenario, i: int,
                   t_exprs: Optional[Sequence[Optional[Expression]]]
                   ) -> Expression:
    """The cost function agent ``i`` actually optimizes.

    Raw C_i when the agent opted out, there is no incentive, or agents do
    not anticipate the scheme; C_i + t_i otherwise, where ``t_exprs`` are
    the materialized incentive expressions.
    """
    game = scenario.game
    c_i = game.agent_costs[i]
    if scenario.incentive is None or i in scenario.participation.opted_out:
        return c_i
    if scenario.incentive.mode == NON_ANTICIPATORY:
        return c_i
    if t_exprs is None or t_exprs[i] is None:
        raise ValueError(
            f"no materialized incentive expression for agent {i}")
    return add(c_i, t_exprs[i])
