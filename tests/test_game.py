"""Game model, profiles, scenarios, and effective-cost assembly."""

from fractions import Fraction

import pytest

from incentive_audit.expr import as_polynomial, evaluate, parse, var
from incentive_audit.game import (
    CUSTOM,
    ActionProfile,
    Game,
    IncentiveScheme,
    NON_ANTICIPATORY,
    Scenario,
)
from incentive_audit.incentive import ScenarioSolve

from conftest import NAMES2, build_example1, example1_scheme


class TestActionProfile:
    def test_exactness(self):
        assert ActionProfile([Fraction(1, 2), 1]).exact
        assert not ActionProfile([0.5, Fraction(1)]).exact

    def test_replace_and_distance(self):
        p = ActionProfile([Fraction(1), Fraction(1)])
        q = p.replace(1, Fraction(2))
        assert q.values == (Fraction(1), Fraction(2))
        assert p.max_distance(q) == 1.0


class TestGameValidation:
    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            Game(n=1, agent_costs=(var(0),), operator_cost=var(0))

    def test_cost_count_must_match(self):
        with pytest.raises(ValueError):
            Game(n=2, agent_costs=(var(0),), operator_cost=var(0))

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            Game(n=2, agent_costs=(var(0), var(2)), operator_cost=var(0))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Game(n=2, agent_costs=(var(0), var(1)), operator_cost=var(0),
                 bounds=((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))

    def test_default_bounds(self):
        g = Game(n=2, agent_costs=(var(0), var(1)), operator_cost=var(0))
        assert g.bounds == ((Fraction(-10), Fraction(10)),) * 2
        assert g.names == ("u1", "u2")


class TestScenario:
    def test_opt_out_without_incentive_rejected(self):
        g = build_example1()
        with pytest.raises(ValueError):
            Scenario(g, None, frozenset({0}))

    def test_opt_out_index_range(self):
        g = build_example1()
        with pytest.raises(ValueError):
            Scenario(g, example1_scheme(), frozenset({5}))


class TestEffectiveCost:
    def test_participant_gets_cost_plus_incentive(self, cfg):
        g = build_example1()
        e = ScenarioSolve(Scenario(g, example1_scheme()),
                          cfg).effective_costs[0]
        expected = parse("u1^2 - 2*u1*u2 + u1^2", NAMES2)
        assert as_polynomial(e) == as_polynomial(expected)

    def test_opted_out_agent_keeps_raw_cost(self, cfg):
        g = build_example1()
        sc = Scenario(g, example1_scheme(), frozenset({0}))
        assert ScenarioSolve(sc, cfg).effective_costs[0] is g.agent_costs[0]

    def test_non_anticipatory_ignores_incentive(self, cfg):
        g = build_example1()
        scheme = IncentiveScheme(CUSTOM, mode=NON_ANTICIPATORY,
                                 expressions=example1_scheme().expressions)
        sc = Scenario(g, scheme)
        assert ScenarioSolve(sc, cfg).effective_costs[0] is g.agent_costs[0]

    def test_no_incentive(self, cfg):
        g = build_example1()
        sc = Scenario(g)
        assert ScenarioSolve(sc, cfg).effective_costs[1] is g.agent_costs[1]

    def test_additivity(self, cfg):
        g = build_example1()
        sc = Scenario(g, example1_scheme())
        costs = ScenarioSolve(sc, cfg).effective_costs
        pt = (Fraction(1, 3), Fraction(-2, 7))
        for i in range(2):
            lhs = evaluate(costs[i], pt)
            rhs = evaluate(g.agent_costs[i], pt) \
                + evaluate(sc.incentive.expressions[i], pt)
            assert lhs == rhs

    def test_other_agents_participation_is_irrelevant(self, cfg):
        g = build_example1()
        all_in = Scenario(g, example1_scheme())
        two_out = Scenario(g, example1_scheme(), frozenset({1}))
        assert ScenarioSolve(all_in, cfg).effective_costs[0] \
            == ScenarioSolve(two_out, cfg).effective_costs[0]
