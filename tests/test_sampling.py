"""Sampled checks stay bounded at any number of agents: the curvature
samples of ``solvers`` and the audit's sampled profiles."""

from fractions import Fraction

import numpy as np
import pytest

from incentive_audit import audit
from incentive_audit.expr import parse
from incentive_audit.game import Game
from incentive_audit.solve import hessian_pd_check
from incentive_audit.solve import RNG_SEED
from incentive_audit.solve.solvers import random_points, sample_grid

#: SAMPLE_MAX_CELLS, written out so a change to it is seen here
BUDGET = 5 ** 5


def quartic_game(n: int, term: str = "{u}^4 + {u}^2") -> Game:
    """An operator summing ``term`` over the agents.  The default's Hessian,
    diag(12 u_i^2 + 2), is positive definite but not constant, so the
    curvature check samples every grid point."""
    names = [f"u{i}" for i in range(1, n + 1)]
    objective = parse(" + ".join(term.format(u=u) for u in names), names)
    box = (Fraction(-1), Fraction(1))
    return Game(n=n, agent_costs=tuple(parse(f"{u}^2", names)
                                       for u in names),
                operator_cost=objective, bounds=(box,) * n)


def sample_counts(game: Game, monkeypatch) -> tuple[int, int]:
    """The audit's sampled profiles, and the points the curvature check
    of the operator samples (one ``eigvalsh`` each)."""
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(m):
        calls.append(None)
        assert len(calls) <= BUDGET, "sampled past the budget"
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    report = hessian_pd_check(game.operator_cost, game)
    assert report.status == "holds" and report.sampled
    return len(audit._sample_points(game)), len(calls)


@pytest.mark.parametrize("n, counts", [(2, (113, 81)), (3, (407, 729)),
                                       (4, (689, 625)), (5, (3189, 3125))])
def test_counts_up_to_five_agents(n, counts, monkeypatch):
    assert sample_counts(quartic_game(n), monkeypatch) == counts


def test_eight_agents_stay_within_the_budget(monkeypatch):
    profiles, curvature = sample_counts(quartic_game(8), monkeypatch)
    assert profiles <= BUDGET + audit.SAMPLE_RANDOM_POINTS
    assert curvature <= BUDGET


def test_eight_agents_sample_the_interior(monkeypatch):
    """Hessian diag(12 u_i^2 - 1) is indefinite only where some |u_i| is
    below 1/sqrt(12): the corners alone would certify it."""
    game = quartic_game(8, "{u}^4 - {u}^2/2")
    report = hessian_pd_check(game.operator_cost, game)
    assert report.status == "fails" and report.sampled
    assert report.min_eigenvalue == -1.0


def test_capped_sample_is_drawn_from_the_lattice():
    box = ((Fraction(-1), Fraction(3)),) * 6
    points = list(sample_grid(box, 5))
    assert len(points) == BUDGET
    assert points[0] == (1.0,) * 6
    assert {v for p in points for v in p} == {-1.0, 0.0, 1.0, 2.0, 3.0}
    assert points == list(sample_grid(box, 5))


def test_sampled_points_are_python_floats():
    box2 = ((Fraction(-1), Fraction(3)),) * 2
    box6 = ((Fraction(-1), Fraction(3)),) * 6
    for points in (list(sample_grid(box2, 9)), list(sample_grid(box6, 5)),
                   random_points(box2, 4)):
        assert {type(v) for p in points for v in p} == {float}


def test_random_points_are_the_seeded_uniform_draws():
    box = ((Fraction(-1), Fraction(3)), (Fraction(0), Fraction(1, 3)))
    rng = np.random.default_rng(RNG_SEED)
    expected = [tuple(rng.uniform([-1.0, 0.0], [3.0, 1 / 3]))
                for _ in range(5)]
    assert random_points(box, 5) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("ends", [(-1, 3), (0, Fraction(1, 3)),
                                  (Fraction(-7, 5), Fraction(-7, 5)),
                                  (-10 ** 300, 10 ** 300)])
def test_random_points_are_the_draws_one_point_at_a_time(n, ends):
    box = tuple((Fraction(ends[0]) - k, Fraction(ends[1]) + k)
                for k in range(n))
    lows, highs = [float(lo) for lo, _ in box], [float(hi) for _, hi in box]
    for count in (8, 64):
        rng = np.random.default_rng(RNG_SEED)
        expected = [tuple(rng.uniform(lows, highs).tolist())
                    for _ in range(count)]
        assert repr(random_points(box, count)) == repr(expected)
