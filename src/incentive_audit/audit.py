"""Property verification: per-outcome verdicts and condition checks.

Every desirable property (social optimality, budget balance,
participation, equity, monotonicity) is checked numerically against a
computed outcome, with witnesses recorded for failures.  The named
sufficient conditions (excess cost within the marginal-cost sum,
separability of the operator objective, curvature of the aligned game,
per-agent opt-out surplus) are instantiated and reported alongside, so a
"conditional" claim always comes with its instance-level truth value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .expr import (
    Expression,
    Number,
    absval,
    add,
    const,
    evaluate,
    mul,
    neg,
    power,
    separable_decomposition,
    to_text,
    var,
)
from .expr.polynomial import as_polynomial, dependencies
from .game import ActionProfile, Game, Scenario, ANTICIPATORY
from .incentive import (
    PROPORTIONAL,
    VCG,
    CostDecomposition,
    IncentiveOutcome,
    ScenarioSolve,
    cost_decomposition,
    realized_outcome,
)
from .solve import (
    ConvexityReport,
    EquilibriumResult,
    SolverConfig,
    hessian_pd_check,
)

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"
UNKNOWN = "unknown"

#: verdict tolerance tiers: exact pipelines vs floating solver output
TOL_EXACT = 1e-9
TOL_FLOAT = 1e-6


@dataclass(frozen=True)
class PropertyVerdict:
    name: str
    status: str
    witnesses: tuple[dict, ...] = ()
    tolerance: float = 0.0
    note: str = ""
    data: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _wit(**kwargs) -> dict:
    out = {}
    for k, v in kwargs.items():
        if isinstance(v, Fraction):
            out[k] = float(v)
        elif isinstance(v, ActionProfile):
            out[k] = list(v.as_floats())
        else:
            out[k] = v
    return out


def verdict_tolerance(exact: bool) -> float:
    return TOL_EXACT if exact else TOL_FLOAT


# ---------------------------------------------------------------------------
# property checks


def check_social_optimality(outcome: IncentiveOutcome, u_star: ActionProfile,
                            tol: float) -> PropertyVerdict:
    """Realized equilibrium coincides with the operator optimum."""
    gap = outcome.realized.max_distance(u_star)
    status = HOLDS if gap <= tol else FAILS
    witnesses = ()
    if status == FAILS:
        witnesses = tuple(
            _wit(agent=i + 1, realized=float(outcome.realized[i]),
                 optimal=float(u_star[i]),
                 gap=abs(float(outcome.realized[i]) - float(u_star[i])))
            for i in range(len(u_star))
            if abs(float(outcome.realized[i]) - float(u_star[i])) > tol)
    return PropertyVerdict("social-optimality", status, witnesses, tol,
                           data={"max_gap": gap})


def check_budget_balance(outcome: IncentiveOutcome,
                         decomposition: CostDecomposition,
                         tol: float) -> PropertyVerdict:
    """Total incentive versus excess cost.

    Levels: "exact" when they agree, "weak" when the total collects at
    least the excess (with a strictness sub-flag), "violated" otherwise.
    """
    total = outcome.total_incentive
    excess = decomposition.total_excess
    diff = float(total) - float(excess)
    if abs(diff) <= tol:
        level, status = "exact", HOLDS
    elif diff >= -tol:
        level, status = "weak", HOLDS
    else:
        level, status = "violated", FAILS
    return PropertyVerdict(
        "budget-balance", status,
        (_wit(total_incentive=total, excess_cost=excess),), tol,
        note=level,
        data={"level": level, "strict_surplus": diff > tol},
    )


def check_participation_anticipatory(outcome: IncentiveOutcome, game: Game,
                                     tol: float) -> PropertyVerdict:
    """No participant would rather take its opt-out equilibrium.

    Per agent: cost at the own opt-out equilibrium must be at least the
    incentive-inclusive cost at the realized equilibrium.
    """
    if outcome.opt_out is None:
        return PropertyVerdict(
            "participation", NOT_APPLICABLE,
            note="no opt-out counterfactuals in this mode")
    witnesses = []
    ok = True
    for i in range(game.n):
        eq = outcome.opt_out[i]
        if eq is None:
            continue
        outside = evaluate(game.agent_costs[i], eq.profile.values)
        inside = evaluate(game.agent_costs[i], outcome.realized.values) \
            + outcome.t_values[i]
        passed = float(outside) >= float(inside) - tol
        ok = ok and passed
        witnesses.append(_wit(
            agent=i + 1, opt_out_cost=outside, participating_cost=inside,
            opt_out_profile=eq.profile, passed=passed))
    return PropertyVerdict("participation", HOLDS if ok else FAILS,
                           tuple(witnesses), tol)


def check_participation_weak(decomposition: CostDecomposition,
                             t_values: Sequence[Number],
                             tol: float) -> PropertyVerdict:
    """Ex-post rule: paying the incentive beats paying one's marginal cost."""
    witnesses = []
    ok = True
    for i, (t, theta) in enumerate(zip(t_values, decomposition.theta)):
        passed = float(t) <= float(theta) + tol
        ok = ok and passed
        witnesses.append(_wit(agent=i + 1, incentive=t, marginal_cost=theta,
                              passed=passed))
    return PropertyVerdict("participation-weak", HOLDS if ok else FAILS,
                           tuple(witnesses), tol)


def check_equity_monotonicity(decomposition: CostDecomposition,
                              t_values: Sequence[Number],
                              tol_theta: float, tol_t: float
                              ) -> tuple[PropertyVerdict, PropertyVerdict]:
    """Equal marginal costs get equal incentives; larger ones no smaller."""
    theta = decomposition.theta
    n = len(theta)
    equity_witnesses, mono_witnesses = [], []
    equity_ok = mono_ok = True
    for i, j in itertools.permutations(range(n), 2):
        ti, tj = float(t_values[i]), float(t_values[j])
        thi, thj = float(theta[i]), float(theta[j])
        if i < j and abs(thi - thj) <= tol_theta and abs(ti - tj) > tol_t:
            equity_ok = False
            equity_witnesses.append(_wit(
                agents=[i + 1, j + 1], theta_i=thi, theta_j=thj,
                t_i=ti, t_j=tj))
        if thi >= thj - tol_theta and ti < tj - tol_t:
            mono_ok = False
            mono_witnesses.append(_wit(
                agents=[i + 1, j + 1], theta_i=thi, theta_j=thj,
                t_i=ti, t_j=tj))
    equity = PropertyVerdict("equity", HOLDS if equity_ok else FAILS,
                             tuple(equity_witnesses), tol_t)
    mono = PropertyVerdict("monotonicity", HOLDS if mono_ok else FAILS,
                           tuple(mono_witnesses), tol_t)
    return equity, mono


# ---------------------------------------------------------------------------
# condition checks


def check_allocable_excess(decomposition: CostDecomposition,
                           tol: float) -> PropertyVerdict:
    """Excess cost within the marginal-cost sum.

    This is the exact boundary for ex-post schemes: when it fails, no
    incentive can satisfy the weak participation rule and budget balance
    at the same time.
    """
    total_theta = sum(float(th) for th in decomposition.theta)
    excess = float(decomposition.total_excess)
    ok = excess <= total_theta + tol
    note = "" if ok else ("participation and budget balance are jointly "
                          "unachievable for ex-post agents at this profile")
    return PropertyVerdict(
        "excess-within-marginal-sum", HOLDS if ok else FAILS,
        (_wit(excess_cost=excess, marginal_sum=total_theta),), tol, note=note)


def check_separability_conditions(
        game: Game, u_star: ActionProfile,
        baseline: Optional[ActionProfile],
        declared_base: Optional[Expression],
        tol: float, cfg: SolverConfig) -> tuple[PropertyVerdict, ...]:
    """Sufficient conditions for the excess cost staying allocable.

    Three routes: a separable operator objective; an objective declared as
    the absolute deviation of a separable function from its optimum; or
    single-agent deviations from the optimum costing at least the
    baseline play.
    """
    out = []

    decomposition = separable_decomposition(game.operator_cost)
    if decomposition is not None:
        out.append(PropertyVerdict(
            "operator-cost-separable", HOLDS,
            data={"components": len(decomposition)},
            note="guarantees the excess equals the marginal-cost sum"))
    elif as_polynomial(game.operator_cost) is None:
        out.append(PropertyVerdict(
            "operator-cost-separable", UNKNOWN,
            note="non-polynomial objective; separability not certified"))
    else:
        out.append(PropertyVerdict(
            "operator-cost-separable", FAILS,
            (_wit(coupling_monomial=_coupling_monomial(
                game.operator_cost, game.names)),),
            note="a monomial couples two agents"))

    if declared_base is None:
        out.append(PropertyVerdict("absolute-deviation-form", NOT_APPLICABLE,
                                   note="no separable base declared"))
    else:
        out.append(_check_declared_abs_form(game, u_star, declared_base,
                                            tol, cfg))

    if baseline is None:
        out.append(PropertyVerdict("single-deviation-dominance",
                                   NOT_APPLICABLE,
                                   note="no baseline equilibrium available"))
    else:
        witnesses = []
        ok = True
        j_bar = evaluate(game.operator_cost, baseline.values)
        for i in range(game.n):
            j_dev = evaluate(game.operator_cost,
                             u_star.replace(i, baseline[i]).values)
            passed = float(j_dev) >= float(j_bar) - tol
            ok = ok and passed
            witnesses.append(_wit(agent=i + 1, deviation_cost=j_dev,
                                  baseline_cost=j_bar, passed=passed))
        out.append(PropertyVerdict(
            "single-deviation-dominance", HOLDS if ok else FAILS,
            tuple(witnesses), tol))
    return tuple(out)


def _coupling_monomial(e: Expression, names: Sequence[str]) -> str:
    poly = as_polynomial(e)
    for mono in sorted(poly.terms):
        if len(mono) > 1:
            piece = mul(*(power(var(i), k) for i, k in mono))
            return to_text(piece, names)
    return ""


def _check_declared_abs_form(game: Game, u_star: ActionProfile,
                             declared_base: Expression, tol: float,
                             cfg: SolverConfig) -> PropertyVerdict:
    if separable_decomposition(declared_base) is None:
        witnesses = ()
        if as_polynomial(declared_base) is not None:
            witnesses = (_wit(coupling_monomial=_coupling_monomial(
                declared_base, game.names)),)
        return PropertyVerdict(
            "absolute-deviation-form", FAILS, witnesses,
            note="declared base function is not separable")
    base_at_star = evaluate(declared_base, u_star.values)
    reconstructed = absval(add(declared_base, neg(const(base_at_star))))
    for point in _sample_points(game, cfg):
        lhs = float(evaluate(game.operator_cost, point))
        rhs = float(evaluate(reconstructed, point))
        if abs(lhs - rhs) > tol + 1e-9 * max(1.0, abs(rhs)):
            return PropertyVerdict(
                "absolute-deviation-form", FAILS,
                (_wit(profile=list(point), objective=lhs,
                      reconstruction=rhs),), tol,
                note="objective does not match the declared form")
    return PropertyVerdict("absolute-deviation-form", HOLDS, (), tol,
                           note="verified on sampled profiles")


def check_vcg_conditions(game: Game, outcome: IncentiveOutcome,
                         cfg: SolverConfig, tol: float
                         ) -> tuple[PropertyVerdict, ...]:
    """Curvature and per-agent opt-out surplus for the VCG-like rule.

    The surplus condition (operator-side remainder at the optimum at
    least its value at the agent's opt-out equilibrium) implies the weak
    budget-balance verdict.
    """
    hess = hessian_pd_check(game.operator_cost, game, cfg)
    out = [_convexity_verdict("operator-hessian-positive-definite", hess)]

    if outcome.vcg_offsets is None or outcome.opt_out is None:
        out.append(PropertyVerdict("opt-out-surplus", NOT_APPLICABLE,
                                   note="only defined for the VCG-like rule"))
        return tuple(out)

    u_star = outcome.operator_opt.profile
    witnesses = []
    ok = True
    for i in range(game.n):
        remainder = add(game.operator_cost, neg(game.agent_costs[i]))
        at_star = evaluate(remainder, u_star.values)
        surplus = float(at_star) - float(outcome.vcg_offsets[i])
        passed = surplus >= -tol
        ok = ok and passed
        witnesses.append(_wit(agent=i + 1, remainder_at_optimum=at_star,
                              remainder_at_opt_out=outcome.vcg_offsets[i],
                              surplus=surplus, passed=passed))
    out.append(PropertyVerdict(
        "opt-out-surplus", HOLDS if ok else FAILS, tuple(witnesses), tol,
        note="implies weak budget balance when it holds for every agent"))
    return tuple(out)


def _convexity_verdict(name: str, report: ConvexityReport) -> PropertyVerdict:
    status = {"holds": HOLDS, "fails": FAILS, "unknown": UNKNOWN}[report.status]
    witnesses = ()
    if report.witness is not None:
        witnesses = (_wit(profile=report.witness,
                          min_eigenvalue=report.min_eigenvalue),)
    note = "sampled over the bound box" if report.sampled else "exact"
    return PropertyVerdict(name, status, witnesses, 0.0, note=note,
                           data={"min_eigenvalue": report.min_eigenvalue})


def check_decoupled_impossibility(game: Game) -> PropertyVerdict:
    """Structural flag: fully decoupled agent costs.

    When every agent's cost depends only on its own action, any incentive
    that agents rationally accept collects a nonpositive total, so it can
    never cover a positive excess cost.
    """
    deps = [dependencies(c) for c in game.agent_costs]
    decoupled = all(d <= {i} for i, d in enumerate(deps))
    if not decoupled:
        coupled = [i + 1 for i, d in enumerate(deps) if not d <= {i}]
        return PropertyVerdict(
            "decoupled-impossibility", NOT_APPLICABLE,
            note=f"agents {coupled} have coupled costs")
    return PropertyVerdict(
        "decoupled-impossibility", HOLDS,
        note=("all agent costs are decoupled: rational participation forces "
              "a nonpositive incentive total, so (weak) budget balance is "
              "unachievable"))


def check_alignment_sufficiency(game: Game, u_star: ActionProfile,
                                t_exprs: Sequence[Optional[Expression]],
                                cfg: SolverConfig, tol: float
                                ) -> PropertyVerdict:
    """Sampled sufficient condition for social optimality of the
    proportional rule with anticipatory agents: at every profile, paying
    the incentive never beats the cost at the operator optimum."""
    for point in _sample_points(game, cfg):
        for i in range(game.n):
            if t_exprs[i] is None:
                continue
            lhs = float(evaluate(game.agent_costs[i], point)) \
                + float(evaluate(t_exprs[i], point))
            rhs = float(evaluate(game.agent_costs[i], u_star.values))
            if lhs < rhs - tol:
                return PropertyVerdict(
                    "pointwise-alignment", FAILS,
                    (_wit(agent=i + 1, profile=list(point),
                          incentive_inclusive_cost=lhs,
                          cost_at_optimum=rhs),), tol,
                    note="sufficient condition fails at a sampled profile")
    return PropertyVerdict("pointwise-alignment", HOLDS, (), tol,
                           note="holds on sampled profiles")


def _sample_points(game: Game, cfg: SolverConfig,
                   random_count: int = 64) -> list[tuple[float, ...]]:
    per_axis = 7 if game.n <= 3 else 5
    axes = [np.linspace(float(lo), float(hi), per_axis)
            for lo, hi in game.bounds]
    points = [tuple(float(v) for v in pt)
              for pt in itertools.product(*axes)]
    rng = np.random.default_rng(cfg.rng_seed)
    lows = [float(lo) for lo, _ in game.bounds]
    highs = [float(hi) for _, hi in game.bounds]
    for _ in range(random_count):
        points.append(tuple(rng.uniform(lows, highs)))
    return points


# ---------------------------------------------------------------------------
# report assembly


#: built-in scheme rows of the property-comparison table; "C" entries name
#: the governing condition instantiated by the audit
SCHEME_PATTERNS = {
    VCG: {
        "social-optimality": ("Y", "operator-hessian-positive-definite"),
        "budget-balance": ("C", "opt-out-surplus"),
        "participation": ("Y", None),
        "equity-monotonicity": ("C", None),
    },
    PROPORTIONAL: {
        "social-optimality": ("C", "pointwise-alignment"),
        "budget-balance": ("Y", None),
        "participation": ("C", "excess-within-marginal-sum"),
        "equity-monotonicity": ("Y", None),
    },
}


@dataclass(frozen=True)
class EquilibriumSection:
    outcome: IncentiveOutcome
    decomposition: CostDecomposition
    verdicts: tuple[PropertyVerdict, ...]
    conditions: tuple[PropertyVerdict, ...]
    tolerance: float


@dataclass(frozen=True)
class AuditReport:
    scenario_label: str
    names: tuple[str, ...]
    u_star: ActionProfile
    u_star_value: Number
    u_star_on_boundary: bool
    baseline: tuple[EquilibriumResult, ...]
    sections: tuple[EquilibriumSection, ...]
    game_conditions: tuple[PropertyVerdict, ...]
    scheme_pattern: Optional[dict]
    exact: bool

    def verdict(self, name: str, section: int = 0) -> PropertyVerdict:
        for v in (*self.sections[section].verdicts,
                  *self.sections[section].conditions,
                  *self.game_conditions):
            if v.name == name:
                return v
        raise KeyError(name)


def _scenario_label(scenario: Scenario) -> str:
    if scenario.incentive is None:
        return "no incentive"
    label = f"{scenario.incentive.kind} incentive, {scenario.incentive.mode}"
    out = sorted(scenario.participation.opted_out)
    if out:
        agents = ", ".join(scenario.game.names[i] for i in out)
        return f"{label}; opted out: {agents}"
    return f"{label}; all participating"


def full_audit(scenario: Scenario, cfg: Optional[SolverConfig] = None,
               declared_base: Optional[Expression] = None) -> AuditReport:
    """Run the whole pipeline and collect every verdict.

    One section per realized equilibrium; conditions are instantiated with
    their per-instance truth values rather than reported as bare claims.
    """
    cfg = cfg or SolverConfig()
    game = scenario.game
    scheme = scenario.incentive

    ctx = ScenarioSolve(scenario, cfg)
    u_star_sol = ctx.optimum
    u_star = u_star_sol.profile
    baseline = ctx.equilibria(game.agent_costs)
    outcomes = realized_outcome(ctx)

    sections = []
    for outcome in outcomes:
        tol = verdict_tolerance(outcome.exact and u_star.exact)
        decomposition = cost_decomposition(game, u_star, outcome.realized)
        verdicts = [check_social_optimality(outcome, u_star, tol)]
        if scheme is not None:
            verdicts.append(check_budget_balance(outcome, decomposition, tol))
            if scheme.mode == ANTICIPATORY:
                verdicts.append(check_participation_anticipatory(
                    outcome, game, tol))
            else:
                verdicts.append(check_participation_weak(
                    decomposition, outcome.t_values, tol))
            verdicts.extend(check_equity_monotonicity(
                decomposition, outcome.t_values, tol, tol))

        conditions = [check_allocable_excess(decomposition, tol)]
        anchor = outcome.baseline.profile if outcome.baseline is not None \
            else (baseline[0].profile if baseline else None)
        conditions.extend(check_separability_conditions(
            game, u_star, anchor, declared_base, tol, cfg))
        if scheme is not None and scheme.kind == VCG:
            conditions.extend(check_vcg_conditions(game, outcome, cfg, tol))
        if scheme is not None and scheme.kind == PROPORTIONAL \
                and scheme.mode == ANTICIPATORY and outcome.t_exprs:
            conditions.append(check_alignment_sufficiency(
                game, u_star, outcome.t_exprs, cfg, tol))

        sections.append(EquilibriumSection(
            outcome=outcome,
            decomposition=decomposition,
            verdicts=tuple(verdicts),
            conditions=tuple(conditions),
            tolerance=tol,
        ))

    pattern = None
    if scheme is not None and scheme.kind in SCHEME_PATTERNS:
        pattern = {prop: {"claim": claim, "condition": cond}
                   for prop, (claim, cond) in SCHEME_PATTERNS[scheme.kind].items()}

    return AuditReport(
        scenario_label=_scenario_label(scenario),
        names=game.names,
        u_star=u_star,
        u_star_value=u_star_sol.value,
        u_star_on_boundary=u_star_sol.on_boundary,
        baseline=baseline,
        sections=tuple(sections),
        game_conditions=(check_decoupled_impossibility(game),),
        scheme_pattern=pattern,
        exact=u_star.exact and all(s.outcome.exact for s in sections),
    )
