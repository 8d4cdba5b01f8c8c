"""Property checks and report assembly against the worked examples."""

import itertools
import json
from fractions import Fraction

import pytest

from incentive_audit import incentive

from incentive_audit.audit import (
    AuditReport,
    _sampled_verdicts,
    check_allocable_excess,
    check_alignment_sufficiency,
    check_budget_balance,
    check_decoupled_impossibility,
    check_equity_monotonicity,
    check_participation_anticipatory,
    check_participation_weak,
    check_separability_conditions,
    check_single_deviation_dominance,
    check_social_optimality,
    check_vcg_conditions,
    full_audit,
)
from incentive_audit.expr import absval, parse
from incentive_audit.game import (
    ANTICIPATORY,
    CUSTOM,
    PROPORTIONAL,
    VCG,
    ActionProfile,
    Game,
    IncentiveScheme,
    KINDS,
    NON_ANTICIPATORY,
    Scenario,
)
from incentive_audit.incentive import (
    ScenarioSolve,
    cost_decomposition,
    realized_outcome,
    vcg_incentive,
)
from incentive_audit.report import audit_document, to_json
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
        ctx = ScenarioSolve(Scenario(example3_case1), cfg)
        out = vcg_incentive(ctx)
        v = check_social_optimality(out, ctx.optimum.profile, TOL)
        assert v.holds

    def test_custom_gap_witnessed(self, example1, cfg):
        ctx = ScenarioSolve(Scenario(example1, example1_scheme()), cfg)
        out = realized_outcome(ctx)[0]
        v = check_social_optimality(out, ctx.optimum.profile, TOL)
        assert v.status == "fails"
        assert v.witnesses[0]["gap"] == pytest.approx(0.25)

    def test_aligned_costs_hold_without_incentive(self, cfg):
        j = parse("(u1 - 1)^2 + (u2 + 1)^2", NAMES2)
        g = Game(n=2, agent_costs=(j, j), operator_cost=j, bounds=BOX2)
        ctx = ScenarioSolve(Scenario(g), cfg)
        out = realized_outcome(ctx)[0]
        v = check_social_optimality(out, ctx.optimum.profile, TOL)
        assert v.holds


class TestBudgetBalance:
    def test_example1_weak(self, example1, cfg):
        ctx = ScenarioSolve(Scenario(example1, example1_scheme()), cfg)
        out = realized_outcome(ctx)[0]
        dec = cost_decomposition(example1, ctx.optimum.profile,
                                 out.realized)
        v = check_budget_balance(out, dec, TOL)
        assert v.holds and v.data["level"] == "weak"
        assert v.data["strict_surplus"]

    def test_proportional_exact(self, example2, cfg):
        sc = Scenario(example2,
                      IncentiveScheme(PROPORTIONAL, NON_ANTICIPATORY))
        ctx = ScenarioSolve(sc, cfg)
        out = realized_outcome(ctx)[0]
        dec = cost_decomposition(example2, ctx.optimum.profile,
                                 out.realized)
        v = check_budget_balance(out, dec, TOL)
        assert v.holds and v.data["level"] == "exact"

    def test_vcg_case2_violated(self, example3_case2, cfg):
        ctx = ScenarioSolve(Scenario(example3_case2), cfg)
        out = vcg_incentive(ctx)
        dec = cost_decomposition(example3_case2, ctx.optimum.profile,
                                 out.realized)
        v = check_budget_balance(out, dec, TOL)
        assert v.status == "fails" and v.data["level"] == "violated"


class TestParticipation:
    def test_example1_both_agents_pass(self, example1, cfg):
        ctx = ScenarioSolve(Scenario(example1, example1_scheme()), cfg)
        out = realized_outcome(ctx)[0]
        v = check_participation_anticipatory(ctx, out, TOL)
        assert v.holds
        byagent = {w["agent"]: w for w in v.witnesses}
        assert byagent[1]["opt_out_cost"] == -1
        assert byagent[1]["participating_cost"] == -2
        assert byagent[2]["opt_out_cost"] == 0
        assert byagent[2]["participating_cost"] == -0.5

    def test_vcg_always_passes(self, example3_case2, cfg):
        ctx = ScenarioSolve(Scenario(example3_case2, IncentiveScheme(VCG)),
                            cfg)
        out = realized_outcome(ctx)[0]
        assert check_participation_anticipatory(ctx, out, TOL).holds

    def test_weak_form_equality_for_separable(self, cfg):
        g = build_decoupled()
        sc = Scenario(g, IncentiveScheme(PROPORTIONAL, NON_ANTICIPATORY))
        ctx = ScenarioSolve(sc, cfg)
        out = realized_outcome(ctx)[0]
        dec = cost_decomposition(g, ctx.optimum.profile, out.realized)
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
        equity, mono = check_equity_monotonicity(dec, t, TOL)
        assert equity.holds and mono.holds

    def test_vcg_case2_equity_fails(self, example3_case2, cfg):
        ctx = ScenarioSolve(Scenario(example3_case2), cfg)
        out = vcg_incentive(ctx)
        dec = cost_decomposition(example3_case2, ctx.optimum.profile,
                                 out.realized)
        assert dec.theta == (0, 0)
        equity, mono = check_equity_monotonicity(dec, out.t_values, TOL)
        assert equity.status == "fails"
        assert mono.status == "fails"

    def test_verdicts_invariant_under_common_scaling(self):
        g = build_decoupled()
        u_star = ActionProfile([Fraction(0), Fraction(0)])
        u_r = ActionProfile([Fraction(1), Fraction(-2)])
        dec = cost_decomposition(g, u_star, u_r)
        t = (Fraction(1), Fraction(3))
        base = check_equity_monotonicity(dec, t, TOL)
        for scale in (Fraction(7), Fraction(1, 100)):
            scaled = type(dec)(theta=tuple(th * scale for th in dec.theta),
                               total_excess=dec.total_excess * scale)
            scaled_verdicts = check_equity_monotonicity(scaled, t, TOL)
            assert [v.status for v in scaled_verdicts] == \
                [v.status for v in base]

    def test_single_agent_vacuous(self):
        g = build_decoupled()
        dec = cost_decomposition(g, ActionProfile([Fraction(0), Fraction(0)]),
                                 ActionProfile([Fraction(0), Fraction(0)]))
        one = type(dec)(theta=(Fraction(1),), total_excess=Fraction(1))
        equity, mono = check_equity_monotonicity(one, (Fraction(2),), TOL)
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
        ctx = ScenarioSolve(Scenario(example1), cfg)
        out = check_separability_conditions(ctx, None, (TOL,))[TOL]
        names = {v.name: v for v in out}
        assert names["operator-cost-separable"].holds

    def test_coupled_objective_fails_and_checks_dominance(self, example2, cfg):
        ctx = ScenarioSolve(Scenario(example2), cfg)
        baseline = ActionProfile([Fraction(0), Fraction(0)])
        out = (*check_separability_conditions(ctx, None, (TOL,))[TOL],
               check_single_deviation_dominance(ctx, baseline, TOL))
        names = {v.name: v for v in out}
        assert names["operator-cost-separable"].status == "fails"
        assert names["single-deviation-dominance"].status in ("holds", "fails")
        assert names["single-deviation-dominance"].witnesses

    def test_declared_absolute_deviation_form(self, cfg):
        base = parse("u1 + u2", NAMES2)
        objective = absval(parse("u1 + u2 - 2", NAMES2))
        costs = (parse("(u1 - 1)^2", NAMES2), parse("(u2 - 1)^2", NAMES2))
        g = Game(n=2, agent_costs=costs, operator_cost=objective, bounds=BOX2)
        ctx = ScenarioSolve(Scenario(g), cfg)
        out = check_separability_conditions(ctx, base, (TOL,))[TOL]
        names = {v.name: v for v in out}
        assert names["operator-cost-separable"].status == "unknown"
        assert names["absolute-deviation-form"].holds

    def test_wrong_declared_base_fails(self, example1, cfg):
        ctx = ScenarioSolve(Scenario(example1), cfg)
        base = parse("u1 + u2", NAMES2)
        out = check_separability_conditions(ctx, base, (TOL,))[TOL]
        names = {v.name: v for v in out}
        assert names["absolute-deviation-form"].status == "fails"

    # the verdict, its data and its witness, from one scan of the expansion
    @pytest.mark.parametrize("objective, status, data, witness", [
        ("(u1 - 1)^2 + u2^2 - 3", "holds", {"components": 2}, None),
        ("u2^4 + u2", "holds", {"components": 1}, None),
        ("3", "holds", {"components": 1}, None),
        ("(u1 + u2)^2 - 2*u1*u2", "holds", {"components": 2}, None),
        ("u2^3 + u1^2*u2 + u1*u2^2", "fails", {}, "u1*u2^2"),
        ("u1^2 + u2*u1 + u1*u2^2", "fails", {}, "u1*u2"),
        ("abs(u1) + u2^2", "unknown", {}, None),
    ])
    def test_operator_separability(self, cfg, objective, status, data,
                                   witness):
        costs = (parse("(u1 - 1)^2", NAMES2), parse("(u2 - 1)^2", NAMES2))
        g = Game(n=2, agent_costs=costs, bounds=BOX2,
                 operator_cost=parse(objective, NAMES2))
        ctx = ScenarioSolve(Scenario(g), cfg)
        verdict, _ = check_separability_conditions(ctx, None, (TOL,))[TOL]
        assert (verdict.status, verdict.data) == (status, data)
        assert verdict.witnesses == (
            () if witness is None else ({"coupling_monomial": witness},))

    @pytest.mark.parametrize("base, witnesses", [
        ("u1 + u1*u2^2 + u2^2", ({"coupling_monomial": "u1*u2^2"},)),
        ("abs(u1) + u2", ()),
    ])
    def test_declared_base_not_separable(self, example1, cfg, base,
                                         witnesses):
        ctx = ScenarioSolve(Scenario(example1), cfg)
        out = check_separability_conditions(
            ctx, parse(base, NAMES2), (TOL,))[TOL]
        declared = out[1]
        assert declared.status == "fails"
        assert declared.witnesses == witnesses
        assert declared.note == "declared base function is not separable"


class TestVcgConditions:
    def test_benign_case_surplus_holds(self, example3_case1, cfg):
        ctx = ScenarioSolve(Scenario(example3_case1, IncentiveScheme(VCG)),
                            cfg)
        verdicts = {v.name: v for v in check_vcg_conditions(
            ctx, (TOL,))[TOL]}
        assert verdicts["operator-hessian-positive-definite"].holds
        assert verdicts["opt-out-surplus"].holds
        for w in verdicts["opt-out-surplus"].witnesses:
            assert w["surplus"] == pytest.approx(0.0, abs=TOL)

    def test_adversarial_case_surplus_fails(self, example3_case2, cfg):
        ctx = ScenarioSolve(Scenario(example3_case2, IncentiveScheme(VCG)),
                            cfg)
        verdicts = {v.name: v for v in check_vcg_conditions(
            ctx, (TOL,))[TOL]}
        surplus = verdicts["opt-out-surplus"]
        assert surplus.status == "fails"
        agent1 = next(w for w in surplus.witnesses if w["agent"] == 1)
        assert agent1["surplus"] == pytest.approx(-3.0)

    def test_degenerate_hessian_fails(self):
        g = Game(n=2, agent_costs=(parse("u1^2", NAMES2),
                                   parse("u2^2", NAMES2)),
                 operator_cost=parse("u1^2", NAMES2), bounds=BOX2)
        from incentive_audit.solve import hessian_pd_check

        assert hessian_pd_check(g.operator_cost, g).status == "fails"


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


class TestSampledVerdicts:
    def test_each_tolerance_gets_its_own_first_failure(self):
        # one pass judges every tier: a row failing only the tight tier
        # witnesses that tier, and the pass stops once every tier failed
        def rows():
            yield "a", 0.0
            yield "b", 5e-7
            yield "c", 2e-6
            raise AssertionError("rows read past the last failure")

        verdicts = _sampled_verdicts(
            "x", rows(), lambda row, tol: row[1] > tol,
            lambda row: {"row": row[0]}, ("fails", "holds"), (1e-9, 1e-6))
        assert verdicts[1e-9].witnesses == ({"row": "b"},)
        assert verdicts[1e-6].witnesses == ({"row": "c"},)
        assert all(v.status == "fails" and v.tolerance == tol
                   for tol, v in verdicts.items())

    def test_tolerance_with_no_failure_holds(self):
        verdicts = _sampled_verdicts(
            "x", iter([("a", 5e-7)]), lambda row, tol: row[1] > tol,
            lambda row: {"row": row[0]}, ("fails", "holds"), (1e-9, 1e-6))
        assert verdicts[1e-9].status == "fails"
        assert verdicts[1e-6].holds and verdicts[1e-6].note == "holds"
        assert verdicts[1e-6].witnesses == ()


class TestAlignmentSufficiency:
    def test_aligned_separable_holds(self, cfg):
        j = parse("(u1 - 1)^2 + (u2 + 1)^2", NAMES2)
        g = Game(n=2, agent_costs=(j, j), operator_cost=j, bounds=BOX2)
        ctx = ScenarioSolve(Scenario(g, IncentiveScheme(PROPORTIONAL)), cfg)
        v = check_alignment_sufficiency(ctx, (TOL,))[TOL]
        assert v.holds

    def test_misaligned_costs_fail_at_witness(self, example1, cfg):
        ctx = ScenarioSolve(Scenario(example1, IncentiveScheme(PROPORTIONAL)),
                            cfg)
        v = check_alignment_sufficiency(ctx, (TOL,))[TOL]
        assert v.status == "fails"
        assert v.witnesses


class TestFullAudit:
    def test_example1_pattern(self, example1_report):
        rep = example1_report
        assert rep.exact
        assert rep.ctx.optimum.profile.values == (Fraction(3, 4), Fraction(2))
        assert [e.profile.values for e in rep.ctx.baseline] == [(1, 1)]
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
        assert audit_document(rep)["scheme_pattern"]["budget-balance"][
            "condition"] == "opt-out-surplus"

    def test_no_incentive_has_baseline_only(self, example1, cfg):
        rep = full_audit(Scenario(example1), cfg)
        assert audit_document(rep)["scheme_pattern"] is None
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
        assert rep.ctx.opt_outs[1].profile.as_floats() == pytest.approx(
            (1.0, 1.25), abs=1e-6)
        assert rep.verdict("budget-balance").holds
        assert rep.verdict("pointwise-alignment").status == "fails"

    def test_determinism_of_structured_output(self, example1, cfg):
        sc = Scenario(example1, example1_scheme())
        a = to_json(audit_document(full_audit(sc, cfg)))
        b = to_json(audit_document(full_audit(sc, cfg)))
        assert a == b

    def test_document_roundtrip(self, example1_report):
        doc = audit_document(example1_report)
        assert json.loads(to_json(doc)) == doc


#: example1's opt-out profiles, to 6 decimals, when agents anticipate the
#: scheme, by kind and opted-out agents; the agent already out has none
EXAMPLE1_OPT_OUTS = {
    (PROPORTIONAL, ()): [(1.666667, 1.666667), (1, 1.25)],
    (VCG, ()): [(2, 2), (0.75, 2)],
    (CUSTOM, ()): [(1, 1), (1, 2)],
    (PROPORTIONAL, (1,)): [(1, 1), None],
    (VCG, (1,)): [(1, 1), None],
    (CUSTOM, (1,)): [(1, 1), None],
}

#: no scheme, then every mode, kind and participation
ANTICIPATION_TABLE = [(None, None, ())] + list(itertools.product(
    (ANTICIPATORY, NON_ANTICIPATORY), (PROPORTIONAL, VCG, CUSTOM),
    ((), (1,))))


def _rounded(profile):
    return None if profile is None else tuple(
        round(v if isinstance(v, float) else v["decimal"], 6)
        for v in profile)


@pytest.mark.parametrize("mode, kind, out", ANTICIPATION_TABLE, ids=str)
def test_anticipation_rule(mode, kind, out, example1, cfg, monkeypatch):
    # agents play C_i + t_i only under a scheme they anticipate and only
    # while they take part; without anticipation the realized play is the
    # baseline that anchors the section, and there are no opt-out games
    calls = []
    original = incentive.materialize

    def counted(ctx):
        calls.append(ctx)
        return original(ctx)

    monkeypatch.setattr(incentive, "materialize", counted)
    scheme = None if mode is None else IncentiveScheme(
        kind, mode, example1_scheme().expressions if kind == CUSTOM else None)
    report = full_audit(Scenario(example1, scheme, frozenset(out)), cfg)
    ctx = report.ctx
    anticipatory = mode == ANTICIPATORY
    assert ctx.anticipatory is anticipatory
    for i, (played, raw) in enumerate(zip(ctx.effective_costs,
                                          example1.agent_costs)):
        assert (played is raw) is (not anticipatory or i in out)

    [section] = audit_document(report)["sections"]
    if anticipatory:
        assert section["anchor_baseline"] is None
        assert [_rounded(p) for p in section["opt_out_profiles"]] \
            == EXAMPLE1_OPT_OUTS[kind, out]
    else:
        assert _rounded(section["anchor_baseline"]) == (1, 1)
        assert section["opt_out_profiles"] is None
    # the ex-post proportional split is evaluated directly, so the rule is
    # never materialized; no scheme has nothing to materialize
    unread = mode is None or (mode == NON_ANTICIPATORY and kind == PROPORTIONAL)
    assert len(calls) == (0 if unread else 1)


def test_rules_table(example1, cfg):
    # one rule per kind, in the order of the kinds; a structured audit of
    # each reports its rule's row of the property table, null for custom
    assert tuple(incentive.RULES) == KINDS
    assert incentive.RULES[CUSTOM].pattern is None
    for kind, rule in incentive.RULES.items():
        scheme = IncentiveScheme(kind, NON_ANTICIPATORY, example1_scheme()
                                 .expressions if kind == CUSTOM else None)
        doc = json.loads(to_json(audit_document(
            full_audit(Scenario(example1, scheme), cfg))))
        assert doc["scheme_pattern"] == (None if rule.pattern is None else {
            prop: {"claim": claim, "condition": condition}
            for prop, (claim, condition) in rule.pattern.items()})
