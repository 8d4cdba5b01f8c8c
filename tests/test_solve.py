"""Operator optimization, best responses, equilibria, curvature checks."""

from fractions import Fraction

import numpy as np
import pytest

from incentive_audit.expr import absval, add, const, mul, parse, power, var
from incentive_audit.game import ActionProfile, Game
from incentive_audit.solve import solvers
from incentive_audit.solve import (
    SolverConfig,
    best_response,
    diagonal_strict_convexity_check,
    grid_nash_oracle,
    hessian_pd_check,
    minimize_operator,
    nash_equilibrium,
    verify_nash,
)

from conftest import BOX2, NAMES2, random_game


class TestMinimizeOperator:
    def test_example1_optimum(self, example1, cfg):
        sol = minimize_operator(example1, cfg)
        assert sol.profile.values == (Fraction(3, 4), Fraction(2))
        assert sol.value == 0
        assert sol.exact and not sol.on_boundary

    def test_example2_optimum(self, example2, cfg):
        sol = minimize_operator(example2, cfg)
        assert sol.profile.values == (Fraction(-1), Fraction(-1))

    def test_example3_optimum(self, example3_case1, cfg):
        sol = minimize_operator(example3_case1, cfg)
        assert sol.profile.values == (Fraction(1), Fraction(0))

    def test_boundary_minimizer_flagged(self, cfg):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=parse("u1 + u2", NAMES2), bounds=BOX2)
        sol = minimize_operator(g, cfg)
        assert sol.on_boundary
        assert sol.profile.as_floats() == (-2.0, -2.0)

    def test_nonsmooth_objective(self, cfg):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=absval(parse("u1 + u2 - 2", NAMES2)),
                 bounds=BOX2)
        sol = minimize_operator(g, cfg)
        assert float(sol.value) == pytest.approx(0.0, abs=1e-9)

    def test_never_beats_grid(self, cfg):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_game(rng, 2, separable=False)
            sol = minimize_operator(g, cfg)
            from incentive_audit.solve import grid_minimum

            _, grid_val = grid_minimum(g.operator_cost, g.bounds,
                                       cfg.replace(grid_points_per_axis=41))
            assert float(sol.value) <= grid_val + 1e-9


class TestSeedTable:
    # arithmetic only: no seed table is built here

    @pytest.mark.parametrize("n, grid, points", [
        (1, 10_001, 10_001), (2, 201, 201), (3, 101, 61), (3, 201, 61),
        (4, 31, 21), (4, 201, 21)])
    def test_budget_leaves_current_sizes_alone(self, n, grid, points):
        cfg = SolverConfig(grid_points_per_axis=grid)
        assert solvers._axis_counts(n, cfg) == points

    @pytest.mark.parametrize("n, points", [(2, 1024), (5, 16), (7, 7),
                                           (12, 3)])
    def test_budget_shrinks_the_axis(self, n, points):
        cfg = SolverConfig(grid_points_per_axis=10_001)
        assert solvers._axis_counts(n, cfg) == points
        assert points ** n <= solvers.SEED_MAX_CELLS < (points + 1) ** n

    def test_seven_agent_operator_asks_for_a_bounded_table(self, cfg,
                                                           monkeypatch):
        asked = []

        def record(e, axes):
            asked.append([len(ax) for ax in axes])
            raise LookupError("stop before tabulating")

        monkeypatch.setattr(solvers, "eval_on_grid", record)
        n = 7
        g = Game(n=n, agent_costs=tuple(var(i) for i in range(n)),
                 operator_cost=add(*(power(var(i), 4) for i in range(n))),
                 bounds=((Fraction(-1), Fraction(1)),) * n)
        with pytest.raises(LookupError):
            minimize_operator(g, cfg)
        assert asked == [[7] * n]


class TestBestResponse:
    def test_example1_agent1(self, example1, cfg):
        r = best_response(example1.agent_costs, 0, [0, Fraction(1)],
                          example1.bounds, cfg)
        assert r == Fraction(1)

    def test_degenerate_flat_returns_lowest(self, example1, cfg):
        # agent 2's cost is flat once u1 = 1; ties go to the lower bound
        r = best_response(example1.agent_costs, 1, [Fraction(1), 0],
                          example1.bounds, cfg)
        assert r == Fraction(-2)

    def test_pure_quadratic(self, cfg):
        costs = [power(add(var(0), const(Fraction(-1, 3))), 2), var(1)]
        r = best_response(costs, 0, [0, 0], BOX2, cfg)
        assert r == Fraction(1, 3)


class TestNashEquilibrium:
    def test_example1_baseline(self, example1, cfg):
        eqs = nash_equilibrium(example1.agent_costs, example1.bounds, cfg)
        assert len(eqs) == 1
        assert eqs[0].profile.values == (Fraction(1), Fraction(1))
        assert eqs[0].exact and eqs[0].converged

    def test_example1_with_incentive(self, example1, cfg):
        costs = [parse("u1^2 - 2*u1*u2 + u1^2", NAMES2),
                 parse("u1*u2 - u2 - 1/2", NAMES2)]
        eqs = nash_equilibrium(costs, example1.bounds, cfg)
        assert [e.profile.values for e in eqs] == [(Fraction(1), Fraction(2))]

    def test_single_agent_degenerates_to_argmin(self, cfg):
        costs = [power(add(var(0), const(-1)), 2)]
        eqs = nash_equilibrium(costs, ((Fraction(-2), Fraction(2)),), cfg)
        assert eqs[0].profile.values == (Fraction(1),)

    def test_no_pure_equilibrium_reports_empty(self, cfg):
        # matching-style conflict: agent 1 chases agent 2, agent 2 flees
        costs = [power(add(var(0), mul(const(-1), var(1))), 2),
                 mul(const(-1), power(add(var(0), mul(const(-1), var(1))), 2))]
        eqs = nash_equilibrium(costs, BOX2, cfg)
        assert eqs == []

    def test_returned_equilibria_verify(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_game(rng, int(rng.integers(2, 4)), separable=True)
            for eq in nash_equilibrium(g.agent_costs, g.bounds, cfg):
                assert verify_nash(g.agent_costs, eq.profile, g.bounds,
                                   cfg) <= cfg.tol_fixed_point + 1e-9

    def test_unique_on_diagonally_convex_quadratics(self, cfg):
        # strict diagonal convexity forces uniqueness; the single
        # equilibrium must agree with the exhaustive grid
        rng = np.random.default_rng(23)
        small = cfg.replace(grid_points_per_axis=101)
        for _ in range(5):
            g = random_game(rng, 2, separable=True)
            dsc = diagonal_strict_convexity_check(g.agent_costs, g, cfg)
            if dsc.status != "holds":
                continue
            eqs = nash_equilibrium(g.agent_costs, g.bounds, small)
            assert len(eqs) == 1
            grid = grid_nash_oracle(g.agent_costs, g.bounds, small)
            step = 20.0 / 100
            assert any(eqs[0].profile.max_distance(p) <= step + 1e-9
                       for p in grid)


class TestVerifyNash:
    def test_zero_at_equilibrium(self, example1, cfg):
        r = verify_nash(example1.agent_costs,
                        ActionProfile([Fraction(1), Fraction(1)]),
                        example1.bounds, cfg)
        assert r <= 1e-9

    def test_positive_off_equilibrium(self, example1, cfg):
        r = verify_nash(example1.agent_costs,
                        ActionProfile([Fraction(0), Fraction(0)]),
                        example1.bounds, cfg)
        # agent 2 gains by running to the top of the box
        assert r >= 2.0 - 1e-9

    def test_constant_costs_zero_residual(self, cfg):
        r = verify_nash([const(3), const(5)],
                        ActionProfile([Fraction(0), Fraction(0)]), BOX2, cfg)
        assert r == 0.0


class TestCurvatureChecks:
    def test_pd_hessian(self, example3_case1, cfg):
        rep = hessian_pd_check(example3_case1.operator_cost, example3_case1,
                               cfg)
        assert rep.status == "holds" and not rep.sampled

    def test_indefinite_fails(self, cfg):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=mul(var(0), var(1)), bounds=BOX2)
        rep = hessian_pd_check(g.operator_cost, g, cfg)
        assert rep.status == "fails"

    def test_separable_convex_holds(self, cfg):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=parse("u1^2 + u2^2", NAMES2), bounds=BOX2)
        assert hessian_pd_check(g.operator_cost, g, cfg).status == "holds"

    def test_nonsmooth_unknown(self, cfg):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=absval(var(0)), bounds=BOX2)
        assert hessian_pd_check(g.operator_cost, g, cfg).status == "unknown"

    def test_quartic_sampled(self, cfg):
        g = Game(n=2, agent_costs=(var(0), var(1)),
                 operator_cost=parse("u1^4 + u2^4 + 1", NAMES2),
                 bounds=BOX2)
        rep = hessian_pd_check(g.operator_cost, g, cfg)
        # zero Hessian at the origin: not positive definite everywhere
        assert rep.sampled and rep.status == "fails"

    def test_dsc_for_aligned_agents(self, example3_case1, cfg):
        costs = [example3_case1.operator_cost] * 2
        rep = diagonal_strict_convexity_check(costs, example3_case1, cfg)
        assert rep.status == "holds"

    def test_dsc_concave_agent_fails(self, cfg):
        g = Game(n=2, agent_costs=(mul(const(-1), power(var(0), 2)),
                                   power(var(1), 2)),
                 operator_cost=var(0), bounds=BOX2)
        rep = diagonal_strict_convexity_check(g.agent_costs, g, cfg)
        assert rep.status == "fails"

    def test_dsc_decoupled_convex_holds(self, cfg):
        g = Game(n=2, agent_costs=(power(var(0), 2), power(var(1), 2)),
                 operator_cost=var(0), bounds=BOX2)
        rep = diagonal_strict_convexity_check(g.agent_costs, g, cfg)
        assert rep.status == "holds"


class TestDeterminism:
    def test_equilibria_stable_across_runs(self, example1, cfg):
        a = nash_equilibrium(example1.agent_costs, example1.bounds, cfg)
        b = nash_equilibrium(example1.agent_costs, example1.bounds, cfg)
        assert [e.profile.values for e in a] == [e.profile.values for e in b]
