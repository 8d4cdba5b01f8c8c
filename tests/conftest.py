"""Shared fixtures: the bundled example games and random-game builders."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from incentive_audit.expr import parse
from incentive_audit.game import Game
from incentive_audit.incentive import CUSTOM, IncentiveScheme
from incentive_audit.solve import SolverConfig

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"

NAMES2 = ["u1", "u2"]
BOX2 = ((Fraction(-2), Fraction(2)), (Fraction(-2), Fraction(2)))


def build_example1() -> Game:
    return Game(
        n=2,
        agent_costs=(parse("u1^2 - 2*u1*u2", NAMES2),
                     parse("u1*u2 - u2", NAMES2)),
        operator_cost=parse("(u1 - 3/4)^2 + (u2 - 2)^2", NAMES2),
        bounds=BOX2,
        names=tuple(NAMES2),
    )


def example1_scheme() -> IncentiveScheme:
    return IncentiveScheme(CUSTOM, expressions=(
        parse("u1^2", NAMES2), parse("-1/2", NAMES2)))


def build_example2() -> Game:
    return Game(
        n=2,
        agent_costs=(parse("u1^2 + (1/2)*u1*u2", NAMES2),
                     parse("u2^2 + (1/2)*u1*u2", NAMES2)),
        operator_cost=parse("u1^2 + u2^2 + u1 + u2 - u1*u2", NAMES2),
        bounds=BOX2,
        names=tuple(NAMES2),
    )


def build_example3(case: int) -> Game:
    c1 = "u1^2/2 - u1" if case == 1 else "u1^2/2 + u1"
    return Game(
        n=2,
        agent_costs=(parse(c1, NAMES2),
                     parse("u2^2/2 + u1*u2 - u2", NAMES2)),
        operator_cost=parse("u1^2/2 + u2^2 - u1 + u2 - u1*u2", NAMES2),
        bounds=BOX2,
        names=tuple(NAMES2),
    )


#: a custom anticipatory scheme on a game with three equilibria, so an
#: audit has three sections that share one set of opt-out games
THREE_EQUILIBRIA_GAME = """\
[agents]
names = u1, u2

[costs]
u1 = "-u1*u2 + u1^2/4"
u2 = "-u1*u2 + u2^2/4"

[operator]
J = "(u1 - 1/2)^2 + (u2 - 1/2)^2"

[bounds]
u1 = [-1, 1]
u2 = [-1, 1]

[incentive]
kind = custom
mode = anticipatory
t.u1 = "u1/8"
t.u2 = "u2/8"
"""

#: the same game under the non-anticipatory VCG-like rule with a declared
#: separable base: three sections, each anchored at its own baseline
#: equilibrium and each carrying the VCG-like conditions
THREE_EQUILIBRIA_VCG_GAME = THREE_EQUILIBRIA_GAME.split("[incentive]")[0] + """\
[incentive]
kind = vcg
mode = non-anticipatory
separable_base = "(u1 - 1/2)^2 + (u2 - 1/2)^2"
"""


#: three agents with quartic own-action costs and mild bilinear coupling
#: under a custom anticipatory scheme, the shape of the benchmark's
#: ``smooth`` family: every line minimum is a cubic derivative's roots
QUARTIC_GAME = """\
[agents]
names = u1, u2, u3

[costs]
u1 = "(1/2)*u1^4 + u1^2 - (3/4)*u1 + (1/4)*u1*u2 - (1/8)*u1*u3"
u2 = "(3/8)*u2^4 + (3/2)*u2^2 + (1/2)*u2 - (1/8)*u1*u2 + (1/4)*u2*u3"
u3 = "(1/4)*u3^4 + (5/4)*u3^2 - u3 + (1/8)*u1*u3 - (1/8)*u2*u3"

[operator]
J = "(u1 - 1/2)^2 + (u2 + 1/4)^2 + (u3 - 3/4)^2 + (1/4)*(u1 - 1/2)^4 + (1/8)*u1*u2"

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]
u3 = [-2, 2]

[incentive]
kind = custom
mode = anticipatory
t.u1 = "(1/2)*u1^2 - 1/4"
t.u2 = "(1/8)*u2^2 + 1/2"
t.u3 = "(3/4)*u3^2 - 1/8"
"""


#: the bundled ``example1`` game under the anticipatory proportional rule:
#: its effective costs hold guarded divisions, so every line minimum goes
#: through the piecewise line search
EXAMPLE1_PROPORTIONAL_GAME = (GAMES_DIR / "example1.game").read_text().split(
    "[incentive]")[0] + """\
[incentive]
kind = proportional
mode = anticipatory
"""


#: two agents with ``abs`` terms in their costs under a custom anticipatory
#: scheme: costs and operator objective are piecewise quadratic along
#: every axis
ABS_GAME = """\
[agents]
names = u1, u2

[costs]
u1 = "u1^2 - u1 + (1/4)*u1*u2 + (3/4)*abs(u1 - 1/2)"
u2 = "u2^2 + (1/2)*u2 - (1/8)*u1*u2 + abs(u2 + 1/4)"

[operator]
J = "(u1 - 1/2)^2 + (u2 + 1/4)^2 + (1/8)*u1*u2 + (1/4)*abs(u1 + u2)"

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]

[incentive]
kind = custom
mode = anticipatory
t.u1 = "(1/4)*u1^2 - 1/8"
t.u2 = "(1/2)*u2^2 + 1/4"
"""


def build_decoupled() -> Game:
    return Game(
        n=2,
        agent_costs=(parse("(u1 - 1)^2", NAMES2),
                     parse("(u2 + 1)^2", NAMES2)),
        operator_cost=parse("u1^2 + u2^2", NAMES2),
        bounds=BOX2,
        names=tuple(NAMES2),
    )


@pytest.fixture
def example1() -> Game:
    return build_example1()


@pytest.fixture
def example2() -> Game:
    return build_example2()


@pytest.fixture
def example3_case1() -> Game:
    return build_example3(1)


@pytest.fixture
def example3_case2() -> Game:
    return build_example3(2)


@pytest.fixture
def decoupled_game() -> Game:
    return build_decoupled()


@pytest.fixture
def cfg() -> SolverConfig:
    return SolverConfig()


# ---------------------------------------------------------------------------
# deterministic random-game builders (exact rational coefficients)


def _frac(rng: np.random.Generator, lo: int, hi: int, den: int = 8) -> Fraction:
    return Fraction(int(rng.integers(lo * den, hi * den + 1)), den)


def random_separable_objective(rng: np.random.Generator, n: int):
    """Strictly convex separable quadratic: sum of a_i*(u_i - s_i)^2."""
    from incentive_audit.expr import add, const, mul, power, var

    parts = []
    for i in range(n):
        a = _frac(rng, 1, 3)
        s = _frac(rng, -2, 2)
        parts.append(mul(const(a), power(add(var(i), const(-s)), 2)))
    return add(*parts)


def random_coupled_costs(rng: np.random.Generator, n: int):
    """Quadratic agent costs with mild coupling; the stacked first-order
    system stays diagonally dominant, so a unique equilibrium exists."""
    from incentive_audit.expr import add, const, mul, var

    costs = []
    for i in range(n):
        q = _frac(rng, 1, 2)
        parts = [mul(const(q), var(i), var(i)),
                 mul(const(_frac(rng, -2, 2)), var(i))]
        for j in range(n):
            if j != i:
                c = Fraction(int(rng.integers(-2, 3)), 8)
                if c:
                    parts.append(mul(const(c), var(i), var(j)))
        costs.append(add(*parts))
    return costs


def random_pd_objective(rng: np.random.Generator, n: int):
    """Quadratic with an exactly positive definite Hessian: A^T A + I."""
    from incentive_audit.expr import add, const, mul, var

    A = [[Fraction(int(rng.integers(-2, 3)), 2) for _ in range(n)]
         for _ in range(n)]
    H = [[sum(A[k][i] * A[k][j] for k in range(n)) + (1 if i == j else 0)
          for j in range(n)] for i in range(n)]
    parts = []
    for i in range(n):
        for j in range(n):
            if H[i][j]:
                parts.append(mul(const(H[i][j] / 2), var(i), var(j)))
        b = _frac(rng, -2, 2)
        if b:
            parts.append(mul(const(b), var(i)))
    return add(*parts)


def random_game(rng: np.random.Generator, n: int, separable: bool) -> Game:
    objective = (random_separable_objective(rng, n) if separable
                 else random_pd_objective(rng, n))
    return Game(
        n=n,
        agent_costs=tuple(random_coupled_costs(rng, n)),
        operator_cost=objective,
        bounds=((Fraction(-10), Fraction(10)),) * n,
    )
