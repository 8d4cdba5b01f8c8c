"""Property checks and report assembly against the worked examples."""

from fractions import Fraction

import pytest

from incentive_audit.audit import (
    AuditReport,
    check_allocable_excess,
    check_alignment_sufficiency,
    check_budget_balance,
    check_decoupled_impossibility,
    check_equity_monotonicity,
    check_participation_anticipatory,
    check_participation_weak,
    check_separability_conditions,
    check_social_optimality,
    check_vcg_conditions,
    full_audit,
)
from incentive_audit.expr import absval, parse
from incentive_audit.game import (
    ActionProfile,
    Game,
    NON_ANTICIPATORY,
    Scenario,
)
from incentive_audit.incentive import (
    PROPORTIONAL,
    VCG,
    IncentiveScheme,
    ScenarioSolve,
    cost_decomposition,
    proportional_as_expression,
    realized_outcome,
    vcg_incentive,
)
from incentive_audit.report import audit_document, from_json, to_json
from incentive_audit.solve import minimize_operator

from conftest import BOX2, NAMES2, build_decoupled, example1_scheme

TOL = 1e-9


@pytest.fixture
def example1_report(example1, cfg) -> AuditReport:
    return full_audit(Scenario(example1, example1_scheme()), cfg)


@pytest.fixture
def case2_report(example3_case2, cfg) -> AuditReport:
    return full_audit(Scenario(example3_case2, IncentiveScheme(VCG)), cfg)


class TestSocialOptimality:
    def test_vcg_holds(self, example3_case1, cfg):
        out = vcg_incentive(ScenarioSolve(Scenario(example3_case1), cfg))
        v = check_social_optimality(out, out.operator_opt.profile, TOL)
        assert v.holds

    def test_custom_gap_witnessed(self, example1, cfg):
        sc = Scenario(example1, example1_scheme())
        out = realized_outcome(ScenarioSolve(sc, cfg))[0]
        v = check_social_optimality(out, out.operator_opt.profile, TOL)
        assert v.status == "fails"
        assert v.witnesses[0]["gap"] == pytest.approx(0.25)

    def test_aligned_costs_hold_without_incentive(self, cfg):
        j = parse("(u1 - 1)^2 + (u2 + 1)^2", NAMES2)
        g = Game(n=2, agent_costs=(j, j), operator_cost=j, bounds=BOX2)
        out = realized_outcome(ScenarioSolve(Scenario(g), cfg))[0]
        v = check_social_optimality(out, out.operator_opt.profile, TOL)
        assert v.holds


class TestBudgetBalance:
    def test_example1_weak(self, example1, cfg):
        sc = Scenario(example1, example1_scheme())
        out = realized_outcome(ScenarioSolve(sc, cfg))[0]
        dec = cost_decomposition(example1, out.operator_opt.profile,
                                 out.realized)
        v = check_budget_balance(out, dec, TOL)
        assert v.holds and v.data["level"] == "weak"
        assert v.data["strict_surplus"]

    def test_proportional_exact(self, example2, cfg):
        sc = Scenario(example2,
                      IncentiveScheme(PROPORTIONAL, NON_ANTICIPATORY))
        out = realized_outcome(ScenarioSolve(sc, cfg))[0]
        dec = cost_decomposition(example2, out.operator_opt.profile,
                                 out.realized)
        v = check_budget_balance(out, dec, TOL)
        assert v.holds and v.data["level"] == "exact"

    def test_vcg_case2_violated(self, example3_case2, cfg):
        out = vcg_incentive(ScenarioSolve(Scenario(example3_case2), cfg))
        dec = cost_decomposition(example3_case2, out.operator_opt.profile,
                                 out.realized)
        v = check_budget_balance(out, dec, TOL)
        assert v.status == "fails" and v.data["level"] == "violated"


class TestParticipation:
    def test_example1_both_agents_pass(self, example1, cfg):
        sc = Scenario(example1, example1_scheme())
        out = realized_outcome(ScenarioSolve(sc, cfg))[0]
        v = check_participation_anticipatory(out, example1, TOL)
        assert v.holds
        byagent = {w["agent"]: w for w in v.witnesses}
        assert byagent[1]["opt_out_cost"] == -1
        assert byagent[1]["participating_cost"] == -2
        assert byagent[2]["opt_out_cost"] == 0
        assert byagent[2]["participating_cost"] == -0.5

    def test_vcg_always_passes(self, example3_case2, cfg):
        sc = Scenario(example3_case2, IncentiveScheme(VCG))
        out = realized_outcome(ScenarioSolve(sc, cfg))[0]
        assert check_participation_anticipatory(out, example3_case2,
                                                TOL).holds

    def test_weak_form_equality_for_separable(self, cfg):
        g = build_decoupled()
        sc = Scenario(g, IncentiveScheme(PROPORTIONAL, NON_ANTICIPATORY))
        out = realized_outcome(ScenarioSolve(sc, cfg))[0]
        dec = cost_decomposition(g, out.operator_opt.profile, out.realized)
        v = check_participation_weak(dec, out.t_values, TOL)
        assert v.holds
        assert out.t_values == dec.theta  # equality, not just <=

    def test_weak_form_violation(self):
        g = build_decoupled()
        u_star = ActionProfile([Fraction(0), Fraction(0)])
        u_r = ActionProfile([Fraction(1), Fraction(-1)])
        dec = cost_decomposition(g, u_star, u_r)
        bad_t = tuple(th + 1 for th in dec.theta)
        v = check_participation_weak(dec, bad_t, TOL)
        assert v.status == "fails"


class TestEquityMonotonicity:
    def test_proportional_holds(self, cfg):
        g = build_decoupled()
        u_star = ActionProfile([Fraction(0), Fraction(0)])
        u_r = ActionProfile([Fraction(1), Fraction(-2)])
        dec = cost_decomposition(g, u_star, u_r)
        from incentive_audit.incentive import proportional_allocation

        t = proportional_allocation(g, u_star, u_r)
        equity, mono = check_equity_monotonicity(dec, t, TOL, TOL)
        assert equity.holds and mono.holds

    def test_vcg_case2_equity_fails(self, example3_case2, cfg):
        out = vcg_incentive(ScenarioSolve(Scenario(example3_case2), cfg))
        dec = cost_decomposition(example3_case2, out.operator_opt.profile,
                                 out.realized)
        assert dec.theta == (0, 0)
        equity, mono = check_equity_monotonicity(dec, out.t_values, TOL, TOL)
        assert equity.status == "fails"
        assert mono.status == "fails"

    def test_verdicts_invariant_under_common_scaling(self):
        g = build_decoupled()
        u_star = ActionProfile([Fraction(0), Fraction(0)])
        u_r = ActionProfile([Fraction(1), Fraction(-2)])
        dec = cost_decomposition(g, u_star, u_r)
        t = (Fraction(1), Fraction(3))
        base = check_equity_monotonicity(dec, t, TOL, TOL)
        for scale in (Fraction(7), Fraction(1, 100)):
            scaled = type(dec)(u_star=dec.u_star,
                               theta=tuple(th * scale for th in dec.theta),
                               total_excess=dec.total_excess * scale,
                               u_realized=dec.u_realized)
            scaled_verdicts = check_equity_monotonicity(scaled, t, TOL, TOL)
            assert [v.status for v in scaled_verdicts] == \
                [v.status for v in base]

    def test_single_agent_vacuous(self):
        g = build_decoupled()
        dec = cost_decomposition(g, ActionProfile([Fraction(0), Fraction(0)]),
                                 ActionProfile([Fraction(0), Fraction(0)]))
        one = CostDec = type(dec)(u_star=dec.u_star, theta=(Fraction(1),),
                                  total_excess=Fraction(1),
                                  u_realized=dec.u_realized)
        equity, mono = check_equity_monotonicity(one, (Fraction(2),), TOL, TOL)
        assert equity.holds and mono.holds


class TestAllocableExcess:
    @pytest.mark.parametrize("baseline,expected", [
        ((0, 0), "holds"),
        ((-2, -2), "holds"),
        ((-2, 0), "fails"),
    ])
    def test_region_sign(self, example2, cfg, baseline, expected):
        u_star = minimize_operator(example2, cfg).profile
        u_r = ActionProfile([Fraction(b) for b in baseline])
        dec = cost_decomposition(example2, u_star, u_r)
        v = check_allocable_excess(dec, TOL)
        assert v.status == expected
        # the verdict tracks the sign of (b1+1)*(b2+1) around the optimum
        product = (baseline[0] + 1) * (baseline[1] + 1)
        assert (v.status == "holds") == (product >= 0)

    def test_failure_notes_impossibility(self, example2, cfg):
        u_star = minimize_operator(example2, cfg).profile
        dec = cost_decomposition(example2, u_star,
                                 ActionProfile([Fraction(-2), Fraction(0)]))
        v = check_allocable_excess(dec, TOL)
        assert "jointly unachievable" in v.note


class TestSeparabilityConditions:
    def test_separable_objective_holds(self, example1, cfg):
        u_star = minimize_operator(example1, cfg).profile
        out = check_separability_conditions(example1, u_star, None, None,
                                            TOL, cfg)
        names = {v.name: v for v in out}
        assert names["operator-cost-separable"].holds

    def test_coupled_objective_fails_and_checks_dominance(self, example2, cfg):
        u_star = minimize_operator(example2, cfg).profile
        baseline = ActionProfile([Fraction(0), Fraction(0)])
        out = check_separability_conditions(example2, u_star, baseline, None,
                                            TOL, cfg)
        names = {v.name: v for v in out}
        assert names["operator-cost-separable"].status == "fails"
        assert names["single-deviation-dominance"].status in ("holds", "fails")
        assert names["single-deviation-dominance"].witnesses

    def test_declared_absolute_deviation_form(self, cfg):
        base = parse("u1 + u2", NAMES2)
        objective = absval(parse("u1 + u2 - 2", NAMES2))
        costs = (parse("(u1 - 1)^2", NAMES2), parse("(u2 - 1)^2", NAMES2))
        g = Game(n=2, agent_costs=costs, operator_cost=objective, bounds=BOX2)
        u_star = minimize_operator(g, cfg).profile
        out = check_separability_conditions(g, u_star, None, base, TOL, cfg)
        names = {v.name: v for v in out}
        assert names["operator-cost-separable"].status == "unknown"
        assert names["absolute-deviation-form"].holds

    def test_wrong_declared_base_fails(self, example1, cfg):
        u_star = minimize_operator(example1, cfg).profile
        base = parse("u1 + u2", NAMES2)
        out = check_separability_conditions(example1, u_star, None, base,
                                            TOL, cfg)
        names = {v.name: v for v in out}
        assert names["absolute-deviation-form"].status == "fails"


class TestVcgConditions:
    def test_benign_case_surplus_holds(self, example3_case1, cfg):
        out = vcg_incentive(ScenarioSolve(Scenario(example3_case1), cfg))
        verdicts = {v.name: v for v in check_vcg_conditions(
            example3_case1, out, cfg, TOL)}
        assert verdicts["operator-hessian-positive-definite"].holds
        assert verdicts["opt-out-surplus"].holds
        for w in verdicts["opt-out-surplus"].witnesses:
            assert w["surplus"] == pytest.approx(0.0, abs=TOL)

    def test_adversarial_case_surplus_fails(self, example3_case2, cfg):
        out = vcg_incentive(ScenarioSolve(Scenario(example3_case2), cfg))
        verdicts = {v.name: v for v in check_vcg_conditions(
            example3_case2, out, cfg, TOL)}
        surplus = verdicts["opt-out-surplus"]
        assert surplus.status == "fails"
        agent1 = next(w for w in surplus.witnesses if w["agent"] == 1)
        assert agent1["surplus"] == pytest.approx(-3.0)

    def test_degenerate_hessian_fails(self, cfg):
        g = Game(n=2, agent_costs=(parse("u1^2", NAMES2),
                                   parse("u2^2", NAMES2)),
                 operator_cost=parse("u1^2", NAMES2), bounds=BOX2)
        from incentive_audit.solve import hessian_pd_check

        assert hessian_pd_check(g.operator_cost, g, cfg).status == "fails"


class TestDecoupledFlag:
    def test_flag_raised(self):
        assert check_decoupled_impossibility(build_decoupled()).holds

    def test_coupled_game_not_flagged(self, example1):
        v = check_decoupled_impossibility(example1)
        assert v.status == "not-applicable"

    def test_one_coupled_agent_among_three(self):
        names = ["u1", "u2", "u3"]
        g = Game(n=3,
                 agent_costs=(parse("(u1 - 1)^2", names),
                              parse("(u2 + 1)^2 + u1*u2", names),
                              parse("u3^2", names)),
                 operator_cost=parse("u1^2 + u2^2 + u3^2", names))
        assert check_decoupled_impossibility(g).status == "not-applicable"


class TestAlignmentSufficiency:
    def test_aligned_separable_holds(self, cfg):
        j = parse("(u1 - 1)^2 + (u2 + 1)^2", NAMES2)
        g = Game(n=2, agent_costs=(j, j), operator_cost=j, bounds=BOX2)
        u_star = minimize_operator(g, cfg).profile
        t_exprs = [proportional_as_expression(g, u_star, i) for i in range(2)]
        v = check_alignment_sufficiency(g, u_star, t_exprs, cfg, TOL)
        assert v.holds

    def test_misaligned_costs_fail_at_witness(self, example1, cfg):
        u_star = minimize_operator(example1, cfg).profile
        t_exprs = [proportional_as_expression(example1, u_star, i)
                   for i in range(2)]
        v = check_alignment_sufficiency(example1, u_star, t_exprs, cfg, TOL)
        assert v.status == "fails"
        assert v.witnesses


class TestFullAudit:
    def test_example1_pattern(self, example1_report):
        rep = example1_report
        assert rep.exact
        assert rep.u_star.values == (Fraction(3, 4), Fraction(2))
        assert [e.profile.values for e in rep.baseline] == [(1, 1)]
        assert rep.verdict("participation").holds
        assert rep.verdict("budget-balance").data["level"] == "weak"
        assert rep.verdict("social-optimality").status == "fails"
        assert rep.verdict("monotonicity").holds

    def test_case2_pattern(self, case2_report):
        rep = case2_report
        assert rep.verdict("social-optimality").holds
        assert rep.verdict("participation").holds
        assert rep.verdict("budget-balance").status == "fails"
        assert rep.verdict("equity").status == "fails"
        assert rep.scheme_pattern["budget-balance"]["condition"] == \
            "opt-out-surplus"

    def test_no_incentive_has_baseline_only(self, example1, cfg):
        rep = full_audit(Scenario(example1), cfg)
        assert rep.scheme_pattern is None
        names = [v.name for v in rep.sections[0].verdicts]
        assert names == ["social-optimality"]

    def test_decoupled_demo_flag(self, cfg):
        g = build_decoupled()
        rep = full_audit(
            Scenario(g, IncentiveScheme(PROPORTIONAL, NON_ANTICIPATORY)), cfg)
        assert rep.game_conditions[0].name == "decoupled-impossibility"
        assert rep.game_conditions[0].holds

    def test_anticipatory_proportional_full_pipeline(self, example1, cfg):
        # effective costs carry guarded divisions; the equilibrium and both
        # opt-out counterfactuals must still resolve and verify
        rep = full_audit(Scenario(example1, IncentiveScheme(PROPORTIONAL)),
                         cfg)
        section = rep.sections[0]
        out = section.outcome
        assert out.realized.as_floats() == pytest.approx((1.3, 1.85),
                                                         abs=1e-6)
        # separable objective: each incentive is the agent's own marginal
        assert float(out.t_values[0]) == pytest.approx(0.55**2, abs=1e-6)
        assert float(out.t_values[1]) == pytest.approx(0.15**2, abs=1e-6)
        assert out.opt_out[1].profile.as_floats() == pytest.approx(
            (1.0, 1.25), abs=1e-6)
        assert rep.verdict("budget-balance").holds
        assert rep.verdict("pointwise-alignment").status == "fails"

    def test_determinism_of_structured_output(self, example1, cfg):
        sc = Scenario(example1, example1_scheme())
        a = to_json(audit_document(full_audit(sc, cfg),
                                   example1.operator_cost))
        b = to_json(audit_document(full_audit(sc, cfg),
                                   example1.operator_cost))
        assert a == b

    def test_document_roundtrip(self, example1_report, example1):
        doc = audit_document(example1_report, example1.operator_cost)
        assert from_json(to_json(doc)) == doc
