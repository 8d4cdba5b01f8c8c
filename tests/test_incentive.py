"""Marginal/excess costs, allocation rules, opt-out play, realized outcomes."""

from fractions import Fraction

import pytest

from incentive_audit.expr import evaluate, parse
from incentive_audit.game import (
    CUSTOM,
    PROPORTIONAL,
    VCG,
    ActionProfile,
    Game,
    IncentiveScheme,
    NON_ANTICIPATORY,
    Scenario,
)
from incentive_audit.incentive import (
    ScenarioSolve,
    cost_decomposition,
    materialize,
    opt_out_equilibrium,
    proportional_allocation,
    proportional_expressions,
    realized_outcome,
    vcg_incentive,
)
from incentive_audit.solve import SolverError, minimize_operator

from conftest import BOX2, NAMES2, example1_scheme


def _bowl_game():
    return Game(n=2,
                agent_costs=(parse("(u1 - 1)^2", NAMES2),
                             parse("(u2 - 2)^2", NAMES2)),
                operator_cost=parse("u1^2 + u2^2", NAMES2),
                bounds=((Fraction(-10), Fraction(10)),) * 2)


ORIGIN = ActionProfile([Fraction(0), Fraction(0)])


def _marginal_cost(game, u_star, i, u_ri):
    """Agent i's marginal cost when it alone deviates to ``u_ri``."""
    return cost_decomposition(game, u_star, u_star.replace(i, u_ri)).theta[i]


def _excess_cost(game, u_star, u_r):
    return cost_decomposition(game, u_star, u_r).total_excess


class TestMarginalCost:
    def test_direct_definition(self):
        g = _bowl_game()
        assert _marginal_cost(g, ORIGIN, 0, Fraction(1)) == 1

    def test_identity_deviation_is_zero(self):
        g = _bowl_game()
        assert _marginal_cost(g, ORIGIN, 1, Fraction(0)) == 0

    def test_nonseparable_formula(self, example2, cfg):
        # deviating alone from the optimum (-1, -1) in the coupled
        # objective costs exactly the squared displacement
        u_star = minimize_operator(example2, cfg).profile
        assert u_star.values == (Fraction(-1), Fraction(-1))
        for i, u_ri in ((0, Fraction(0)), (0, Fraction(-2)), (1, Fraction(2))):
            expected = (u_ri + 1) ** 2
            assert _marginal_cost(example2, u_star, i, u_ri) == expected

    def test_negative_beyond_tolerance_escalates(self):
        g = _bowl_game()
        bad_star = ActionProfile([Fraction(1), Fraction(1)])
        with pytest.raises(SolverError):
            _marginal_cost(g, bad_star, 0, Fraction(0))

    def test_tiny_negative_clamps(self):
        g = _bowl_game()
        val = _marginal_cost(g, ORIGIN, 0, 1e-7)
        assert val >= 0


class TestExcessCost:
    def test_example1_realized(self, example1, cfg):
        u_star = minimize_operator(example1, cfg).profile
        u_prime = ActionProfile([Fraction(1), Fraction(2)])
        assert _excess_cost(example1, u_star, u_prime) == Fraction(1, 16)

    def test_at_optimum_zero(self, example1, cfg):
        u_star = minimize_operator(example1, cfg).profile
        assert _excess_cost(example1, u_star, u_star) == 0

    def test_bowl(self):
        g = _bowl_game()
        assert _excess_cost(g, ORIGIN, ActionProfile([1, 2])) == 5


class TestProportionalAllocation:
    def test_bowl_split(self):
        g = _bowl_game()
        u_r = ActionProfile([Fraction(1), Fraction(2)])
        t = proportional_allocation(g, ORIGIN, u_r)
        dec = cost_decomposition(g, ORIGIN, u_r)
        assert dec.theta == (1, 4)
        assert dec.total_excess == 5
        assert t == (1, 4)
        assert sum(t) == dec.total_excess

    def test_zero_guard_at_optimum(self):
        g = _bowl_game()
        assert proportional_allocation(g, ORIGIN, ORIGIN) == (0, 0)

    def test_symmetric_marginals_get_equal_shares(self):
        g = _bowl_game()
        u_r = ActionProfile([Fraction(3), Fraction(-3)])
        t = proportional_allocation(g, ORIGIN, u_r)
        assert t[0] == t[1]


class TestProportionalExpression:
    def test_matches_pointwise_rule(self):
        g = _bowl_game()
        t0 = proportional_expressions(g, ORIGIN)[0]
        u_r = ActionProfile([Fraction(1), Fraction(2)])
        assert evaluate(t0, u_r.values) == 1

    def test_zero_at_optimum(self):
        g = _bowl_game()
        t0 = proportional_expressions(g, ORIGIN)[0]
        assert evaluate(t0, ORIGIN.values) == 0

    def test_separable_identity(self):
        # separable objective: the rule collapses to each agent's own
        # component measured from the optimum
        g = _bowl_game()
        t1 = proportional_expressions(g, ORIGIN)[1]
        for pt in ([Fraction(1, 3), Fraction(-5, 7)],
                   [Fraction(2), Fraction(2)],
                   [Fraction(-1, 2), Fraction(1, 9)]):
            expected = pt[1] ** 2  # f_2(u_2) - f_2(0)
            assert evaluate(t1, pt) == expected


class TestOptOutEquilibrium:
    def test_example1_agent1_out(self, example1, cfg):
        sc = Scenario(example1, example1_scheme())
        eq = opt_out_equilibrium(ScenarioSolve(sc, cfg), 0)
        assert eq.profile.values == (Fraction(1), Fraction(1))

    def test_example1_agent2_out(self, example1, cfg):
        sc = Scenario(example1, example1_scheme())
        eq = opt_out_equilibrium(ScenarioSolve(sc, cfg), 1)
        assert eq.profile.values == (Fraction(1), Fraction(2))

    def test_vcg_agent1_out(self, example3_case1, cfg):
        sc = Scenario(example3_case1, IncentiveScheme(VCG))
        eq = opt_out_equilibrium(ScenarioSolve(sc, cfg), 0)
        assert eq.profile.values == (Fraction(1), Fraction(0))


class TestVcgIncentive:
    def test_benign_case(self, example3_case1, cfg):
        out = vcg_incentive(ScenarioSolve(Scenario(example3_case1), cfg))
        assert out.realized.values == (Fraction(1), Fraction(0))
        assert out.t_values == (0, 0)
        assert out.total_incentive == 0

    def test_adversarial_case(self, example3_case2, cfg):
        ctx = ScenarioSolve(Scenario(example3_case2), cfg)
        out = vcg_incentive(ctx)
        terms = ctx.vcg_terms
        assert out.realized.values == (Fraction(1), Fraction(0))
        # agent 1's opt-out game, solved once for the offsets
        opt_out = ctx.equilibria([example3_case2.agent_costs[0],
                                  example3_case2.operator_cost])
        assert opt_out[0].profile.values == (Fraction(-1), Fraction(-1))
        assert out.t_values == (Fraction(-3), Fraction(0))
        assert terms.offsets == (Fraction(1), Fraction(-1, 2))

    def test_fully_aligned_agents_pay_nothing(self, cfg):
        j = parse("(u1 - 1)^2 + (u2 + 1)^2", NAMES2)
        g = Game(n=2, agent_costs=(j, j), operator_cost=j, bounds=BOX2)
        out = vcg_incentive(ScenarioSolve(Scenario(g), cfg))
        assert out.t_values == (0, 0)
        assert out.realized.values == \
            minimize_operator(g, cfg).profile.values

    def test_participation_inequality(self, example3_case2, cfg):
        # opting out never beats participating under this rule
        g = example3_case2
        ctx = ScenarioSolve(Scenario(g), cfg)
        out = vcg_incentive(ctx)
        for i in range(2):
            costs = [g.agent_costs[j] if j == i else g.operator_cost
                     for j in range(2)]
            outside = evaluate(g.agent_costs[i],
                               ctx.equilibria(costs)[0].profile.values)
            inside = evaluate(g.agent_costs[i], out.realized.values) \
                + out.t_values[i]
            assert outside >= inside


class TestRealizedOutcome:
    def test_example1_custom_anticipatory(self, example1, cfg):
        ctx = ScenarioSolve(Scenario(example1, example1_scheme()), cfg)
        outs = realized_outcome(ctx)
        assert len(outs) == 1
        out = outs[0]
        assert out.realized.values == (Fraction(1), Fraction(2))
        assert out.t_values == (Fraction(1), Fraction(-1, 2))
        assert out.exact
        assert [e.profile.values for e in ctx.opt_outs] == \
            [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))]

    def test_proportional_non_anticipatory_keeps_baseline(self, cfg):
        g = _bowl_game()
        sc = Scenario(g, IncentiveScheme(PROPORTIONAL, NON_ANTICIPATORY))
        ctx = ScenarioSolve(sc, cfg)
        outs = realized_outcome(ctx)
        assert len(outs) == 1
        out = outs[0]
        assert out.realized.values == (Fraction(1), Fraction(2))  # baseline
        assert out.realized == ctx.baseline[0].profile
        # separable objective: each pays its own marginal cost
        assert out.t_values == (1, 4)

    def test_no_incentive_zero_transfers(self, example1, cfg):
        outs = realized_outcome(ScenarioSolve(Scenario(example1), cfg))
        assert outs[0].t_values == (0, 0)
        assert outs[0].realized.values == (Fraction(1), Fraction(1))

    def test_materialize_custom_passthrough(self, example1, cfg):
        sc = Scenario(example1, example1_scheme())
        assert materialize(ScenarioSolve(sc, cfg)) == example1_scheme().expressions

    def test_vcg_realizes_operator_optimum(self, example3_case2, cfg):
        sc = Scenario(example3_case2, IncentiveScheme(VCG))
        outs = realized_outcome(ScenarioSolve(sc, cfg))
        assert outs[0].realized.values == (Fraction(1), Fraction(0))
        assert outs[0].t_values == (Fraction(-3), Fraction(0))


class TestAbsoluteDeviationObjective:
    def test_excess_never_exceeds_marginal_sum(self, cfg):
        # objective |base(U) - base(U*)| with separable base: the triangle
        # inequality bounds the excess by the marginal-cost sum everywhere
        import numpy as np

        from incentive_audit.expr import absval

        base = parse("u1 + 2*u2", NAMES2)
        g = Game(n=2,
                 agent_costs=(parse("(u1 - 1)^2", NAMES2),
                              parse("(u2 + 1)^2", NAMES2)),
                 operator_cost=absval(parse("u1 + 2*u2 - 2", NAMES2)),
                 bounds=BOX2)
        u_star = minimize_operator(g, cfg).profile
        assert abs(float(evaluate(g.operator_cost, u_star.values))) <= 1e-9
        rng = np.random.default_rng(3)
        for _ in range(50):
            u_r = ActionProfile(rng.uniform(-2, 2, size=2))
            dec = cost_decomposition(g, u_star, u_r)
            assert float(dec.total_excess) \
                <= sum(float(th) for th in dec.theta) + 1e-9


class TestSchemeValidation:
    def test_custom_requires_expressions(self):
        with pytest.raises(ValueError):
            IncentiveScheme(CUSTOM)

    def test_builtin_rejects_expressions(self):
        with pytest.raises(ValueError):
            IncentiveScheme(PROPORTIONAL,
                            expressions=(parse("u1", NAMES2),))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            IncentiveScheme("shapley")
