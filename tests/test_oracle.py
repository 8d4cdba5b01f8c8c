"""Exhaustive grid oracle and its agreement with the analytic pipeline."""

import json
import tracemalloc
from fractions import Fraction

import pytest

from incentive_audit.expr import add, const, mul, parse, power, var
from incentive_audit.solve import (
    OracleDimensionError,
    SolverConfig,
    check_grid_size,
    grid_minimum,
    grid_nash_oracle,
    grid_step,
    minimize_operator,
    nash_equilibrium,
)

from incentive_audit.solve import oracle

from conftest import BOX2, GAMES_DIR, NAMES2


class TestGridNashOracle:
    def test_example1_contains_baseline_equilibrium(self, example1, cfg):
        grid = grid_nash_oracle(example1.agent_costs, example1.bounds, cfg)
        step = grid_step(example1.bounds, cfg.grid_points_per_axis)
        target = (1.0, 1.0)
        assert any(max(abs(a - b) for a, b in zip(p.as_floats(), target))
                   <= step + 1e-12 for p in grid)

    def test_no_pure_equilibrium_case(self, cfg):
        # pursuit game on the grid: agent 1 matches, agent 2 escapes
        gap = add(var(0), mul(const(-1), var(1)))
        costs = [power(gap, 2), mul(const(-1), power(gap, 2))]
        small = cfg.replace(grid_points_per_axis=41)
        assert grid_nash_oracle(costs, BOX2, small) == []

    def test_decoupled_quadratics_hit_nearest_grid_point(self, cfg):
        a, b = Fraction(1, 3), Fraction(-2, 3)
        costs = [power(add(var(0), const(-a)), 2),
                 power(add(var(1), const(-b)), 2)]
        small = cfg.replace(grid_points_per_axis=41)
        grid = grid_nash_oracle(costs, BOX2, small)
        step = grid_step(BOX2, 41)
        assert len(grid) == 1
        found = grid[0].as_floats()
        assert abs(found[0] - float(a)) <= step / 2 + 1e-12
        assert abs(found[1] - float(b)) <= step / 2 + 1e-12

    def test_second_cost_overflowing_off_the_candidates_is_refused(self):
        # the first agent's best responses all sit at u1 = 0, where the
        # second cost is finite; its table overflows at |u1| >= 10^8
        costs = [parse("u1^2", NAMES2), parse("(u2 - 1)^2 + u1^40", NAMES2)]
        bounds = ((Fraction(-10**10), Fraction(10**10)), BOX2[1])
        with pytest.raises(OverflowError, match="beyond the float range"):
            grid_nash_oracle(costs, bounds, SolverConfig(
                grid_points_per_axis=11))

    def test_bounded_polynomials_skip_the_finite_scan(self, example1, cfg,
                                                      monkeypatch):
        def scan(table):
            raise AssertionError("scanned a table that cannot overflow")

        monkeypatch.setattr(oracle, "_finite", scan)
        assert grid_nash_oracle(example1.agent_costs, example1.bounds, cfg)
        grid_minimum(example1.operator_cost, example1.bounds, cfg)

    def test_dimension_refusal(self, cfg):
        costs = [var(i) for i in range(5)]
        bounds = ((Fraction(0), Fraction(1)),) * 5
        with pytest.raises(OracleDimensionError):
            grid_nash_oracle(costs, bounds, cfg)


class TestCheckGridSize:
    # arithmetic only: none of these cases builds a grid

    @pytest.mark.parametrize("n, points", [(3, 201), (3, 101), (4, 31),
                                           (4, 76)])
    def test_accepts_within_budget(self, n, points):
        check_grid_size(n, points)

    @pytest.mark.parametrize("n, points", [(4, 77), (4, 201)])
    def test_refuses_over_budget_and_suggests_grid(self, n, points):
        with pytest.raises(OracleDimensionError, match="--grid 76 "):
            check_grid_size(n, points)


class TestGridMinimum:
    def test_tie_breaks_lexicographically(self, cfg):
        # symmetric double well: -1 and +1 tie; the smaller one wins
        objective = power(add(mul(var(0), var(0)), const(-1)), 2)
        small = cfg.replace(grid_points_per_axis=41)
        profile, value = grid_minimum(objective, BOX2[:1], small)
        assert profile.as_floats()[0] == -1.0
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_analytic_minimum(self, example2, cfg):
        small = cfg.replace(grid_points_per_axis=81)
        profile, value = grid_minimum(example2.operator_cost, example2.bounds,
                                      small)
        sol = minimize_operator(example2, small)
        step = grid_step(example2.bounds, 81)
        assert profile.max_distance(sol.profile) <= step + 1e-12


class TestOracleAgainstAnalytic:
    def test_effective_costs_of_example1(self, example1, cfg):
        costs = [parse("u1^2 - 2*u1*u2 + u1^2", NAMES2),
                 parse("u1*u2 - u2 - 1/2", NAMES2)]
        grid = grid_nash_oracle(costs, example1.bounds, cfg)
        analytic = nash_equilibrium(costs, example1.bounds, cfg)
        step = grid_step(example1.bounds, cfg.grid_points_per_axis)
        assert analytic and grid
        for eq in analytic:
            assert min(eq.profile.max_distance(p) for p in grid) <= step + 1e-12
        for p in grid:
            assert min(p.max_distance(eq.profile) for eq in analytic) \
                <= step + 1e-12


#: a 3-agent game whose costs and operator are quadratics convex in each
#: agent's own action (``OWN_CONVEX``), and variants of it
OWN_CONVEX = """
[agents]
names = u1, u2, u3

[costs]
u1 = "U1"
u2 = "(u2 - 1/3)^2 + u2*u3/2"
u3 = "u3^2/2 - u1*u3 + u2^2"

[operator]
J = "OPERATOR"

[bounds]
u1 = [-2, 2]
u2 = [-1, 2]
u3 = [-2, 1]
"""

FOUR_AGENTS = """
[agents]
names = u1, u2, u3, u4

[costs]
u1 = "u1^2 - u1*u2"
u2 = "u2^2 - u2*u3"
u3 = "u3^2 - u3*u4/2"
u4 = "(u4 - 1/2)^2 + u1*u4/4"

[operator]
J = "u1^2 + u2^2 + u3^2 + u4^2 - u1"

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]
u3 = [-2, 2]
u4 = [-2, 2]
"""

#: an operator coupled like the benchmark's 4-agent ones: its running sum
#: spans every axis from u2*u3 on, so a table folds 5 of its 11 terms at
#: full size
COUPLED_J = ("(u1 - 1/2)^2 + (u2 + 1/4)^2 + u3^2 + (u4 - 1)^2 + u1*u4/8"
             " - u2*u3/8 + u1*u2/8")

CONVEX_U1 = "u1^2 - u1*u2 + u3"
CONVEX_J = "(u1 - 1/4)^2 + u2^2 + (u3 + 1/2)^2 + u1*u2/4"


#: concave in u1, convex in u2: its grid minimum is read along u1, the
#: first axis, so it is tabulated
CONCAVE_U1_J = "-(u1 - 1/2)^2 + u2^2 + (u3 + 1/2)^2 + u1*u2/4"


class TestTablePaths:
    """Every read per ``oracle`` request: a cost read on its candidate box
    (``kernels.candidate_box``), an agent's along its own axis in full,
    counted as ``"table"`` when every range is whole and ``"box"``
    otherwise; and the full tables built outside those reads
    (``poly_grid_eval`` calls for polynomials, ``eval_array`` calls for
    other costs)."""

    @pytest.mark.parametrize("text, grid, reads", [
        # every cost is a parabola in its own action with weak coupling:
        # the candidate box is a few cells, so each agent reads only the
        # lines through them, whole, and the grid minimum is the box's
        (OWN_CONVEX.replace("U1", CONVEX_U1).replace("OPERATOR", CONVEX_J),
         101, {"box": 4}),
        # a cubic first cost leaves the first axis whole, and the third
        # stays whole with it: the box narrows only the second axis, so the
        # second agent, whose own axis that is, reads its full table; a
        # concave operator is not certified on any axis, so its grid
        # minimum is the full table too, and the operator solve builds its
        # seed table
        (OWN_CONVEX.replace("U1", "u1^3/8 + u1^2 - u1*u2 + u3")
         .replace("OPERATOR", "-u1^2 - u2^2 - u3^2 + u1*u2/4"),
         101, {"box": 2, "table": 2, "poly_grid_eval": 1}),
        # 4 agents at 31 points: no 31^4 table, for the agents or the
        # grid minimum, whether the operator is separable or coupled
        (FOUR_AGENTS, 31, {"box": 5}),
        (FOUR_AGENTS.replace('"u1^2 + u2^2 + u3^2 + u4^2 - u1"',
                             f'"{COUPLED_J}"'), 31, {"box": 5}),
        # 4 points per axis
        (OWN_CONVEX.replace("U1", CONVEX_U1).replace("OPERATOR", CONVEX_J),
         4, {"box": 4}),
        # decoupled costs and a separable operator at 201 points: each box
        # is 3 x 3 cells
        ((GAMES_DIR / "decoupled_demo.game").read_text(), 201, {"box": 3}),
        # the anticipatory proportional rule's guarded divisions: each cost
        # is tabulated by its vector function and certifies no axis, so
        # every agent reads its table whole, as a view; the polynomial
        # operator's grid minimum is its box
        (OWN_CONVEX.replace("U1", CONVEX_U1).replace("OPERATOR", CONVEX_J)
         + "\n[incentive]\nkind = proportional\nmode = anticipatory\n",
         101, {"eval_array": 3, "table": 3, "box": 1}),
        # an operator concave in u1: its box keeps the first axis whole and
        # its grid minimum is evaluated on it; only the operator solve's
        # seed table is left
        (OWN_CONVEX.replace("U1", CONVEX_U1).replace("OPERATOR", CONCAVE_U1_J),
         101, {"box": 4, "poly_grid_eval": 1}),
    ], ids=["own-convex", "concave-operator", "four-agents-31",
            "four-agents-coupled-31", "own-convex-4", "decoupled-201",
            "guarded", "concave-u1-operator"])
    def test_tables_per_request(self, tmp_path, monkeypatch, capsys, text,
                                grid, reads):
        from incentive_audit.cli import main
        from incentive_audit.solve import kernels

        calls: dict[str, int] = {}

        def count(name):
            calls[name] = calls.get(name, 0) + 1

        for module, name in [(kernels, "poly_grid_eval"),
                             (oracle, "eval_array")]:
            def counting(*args, _real=getattr(module, name), _name=name):
                count(_name)
                return _real(*args)
            monkeypatch.setattr(module, name, counting)

        def reading(cost, axes, box, _real=kernels._on_box):
            whole = all(len(r) == len(ax) for r, ax in zip(box, axes))
            count("table" if whole else "box")
            return _real(cost, axes, box)

        monkeypatch.setattr(kernels, "_on_box", reading)
        path = tmp_path / "game.game"
        path.write_text(text)
        assert main(["oracle", str(path), "--grid", str(grid), "--format",
                     "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["agreement"] is True
        assert calls == reads

    def test_four_agent_reads_stay_far_under_a_table(self, tmp_path):
        # with the candidate box, the agents' filter and the grid minimum
        # of a 4-agent game at 31 points allocate under a tenth of one
        # 31^4 float64 table (7.4 MB) at their peak
        from incentive_audit.gamefile import load_game_file
        from incentive_audit.solve import kernels

        path = tmp_path / "game.game"
        path.write_text(FOUR_AGENTS.replace(
            '"u1^2 + u2^2 + u3^2 + u4^2 - u1"', f'"{COUPLED_J}"'))
        game = load_game_file(path).game
        axes = oracle.grid_axes(game.bounds, 31)
        sources = [oracle._cost_source(c, axes, game.bounds)
                   for c in game.agent_costs]
        objective = oracle._cost_source(game.operator_cost, axes, game.bounds)
        tracemalloc.start()
        try:
            assert len(kernels.pure_nash_mask(sources, axes))
            kernels.grid_argmin(objective, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 31 ** 4 * 8 / 10
