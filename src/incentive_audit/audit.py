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
from typing import Callable, Collection, Iterable, Optional, Sequence

from .expr import (
    Expression,
    Number,
    absval,
    add,
    const,
    evaluate,
    neg,
)
from .expr.polynomial import Polynomial, as_polynomial, dependencies
from .game import PROPORTIONAL, VCG, ActionProfile, Game, Scenario
from .incentive import (
    CostDecomposition,
    IncentiveOutcome,
    ScenarioSolve,
    cost_decomposition,
    realized_outcome,
)
from .solve import (
    ConvexityReport,
    SolverConfig,
    hessian_pd_check,
)
from .solve.solvers import random_points, sample_grid

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"
UNKNOWN = "unknown"

#: verdict tolerance tiers: exact pipelines vs floating solver output
TOL_EXACT = 1e-9
TOL_FLOAT = 1e-6

#: uniform random profiles added to the grid of sampled profiles
SAMPLE_RANDOM_POINTS = 64


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


def _per_agent(name: str, witnesses: Sequence[dict], tol: float,
               note: str = "") -> PropertyVerdict:
    """A verdict judged agent by agent: holds when every witness row
    passed."""
    return PropertyVerdict(
        name, HOLDS if all(w["passed"] for w in witnesses) else FAILS,
        tuple(witnesses), tol, note=note)


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


def check_participation_anticipatory(ctx: ScenarioSolve,
                                     outcome: IncentiveOutcome,
                                     tol: float) -> PropertyVerdict:
    """No participant would rather take its opt-out equilibrium.

    Per agent: cost at the own opt-out equilibrium must be at least the
    incentive-inclusive cost at the realized equilibrium.  Agents must
    anticipate the scheme, so that ``ctx`` has opt-out equilibria.
    """
    game = ctx.game
    witnesses = []
    for i, eq in enumerate(ctx.opt_outs):
        if eq is None:
            continue
        outside = evaluate(game.agent_costs[i], eq.profile.values)
        inside = evaluate(game.agent_costs[i], outcome.realized.values) \
            + outcome.t_values[i]
        witnesses.append(_wit(
            agent=i + 1, opt_out_cost=outside, participating_cost=inside,
            opt_out_profile=eq.profile,
            passed=float(outside) >= float(inside) - tol))
    return _per_agent("participation", witnesses, tol)


def check_participation_weak(decomposition: CostDecomposition,
                             t_values: Sequence[Number],
                             tol: float) -> PropertyVerdict:
    """Ex-post rule: paying the incentive beats paying one's marginal cost."""
    return _per_agent("participation-weak", [
        _wit(agent=i + 1, incentive=t, marginal_cost=theta,
             passed=float(t) <= float(theta) + tol)
        for i, (t, theta) in enumerate(zip(t_values, decomposition.theta))],
        tol)


def check_equity_monotonicity(decomposition: CostDecomposition,
                              t_values: Sequence[Number], tol: float
                              ) -> tuple[PropertyVerdict, PropertyVerdict]:
    """Equal marginal costs get equal incentives; larger ones no smaller."""
    theta = decomposition.theta
    n = len(theta)
    equity_witnesses, mono_witnesses = [], []
    equity_ok = mono_ok = True
    for i, j in itertools.permutations(range(n), 2):
        ti, tj = float(t_values[i]), float(t_values[j])
        thi, thj = float(theta[i]), float(theta[j])
        if i < j and abs(thi - thj) <= tol and abs(ti - tj) > tol:
            equity_ok = False
            equity_witnesses.append(_wit(
                agents=[i + 1, j + 1], theta_i=thi, theta_j=thj,
                t_i=ti, t_j=tj))
        if thi >= thj - tol and ti < tj - tol:
            mono_ok = False
            mono_witnesses.append(_wit(
                agents=[i + 1, j + 1], theta_i=thi, theta_j=thj,
                t_i=ti, t_j=tj))
    equity = PropertyVerdict("equity", HOLDS if equity_ok else FAILS,
                             tuple(equity_witnesses), tol)
    mono = PropertyVerdict("monotonicity", HOLDS if mono_ok else FAILS,
                           tuple(mono_witnesses), tol)
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


def _sampled_verdicts(name: str, rows: Iterable,
                      fails: Callable[..., bool], witness: Callable[..., dict],
                      notes: tuple[str, str], tols: Collection[float]
                      ) -> dict[float, PropertyVerdict]:
    """A sampled condition at each tolerance: fails, witnessed by the first
    row that fails at that tolerance, or holds.  One pass over ``rows``,
    which ends once every tolerance has failed, so lazily computed rows are
    computed once and only as far as needed."""
    first = {}
    for row in rows:
        for tol in tols:
            if tol not in first and fails(row, tol):
                first[tol] = row
        if len(first) == len(tols):
            break
    fail_note, hold_note = notes
    return {tol: PropertyVerdict(name, FAILS, (witness(first[tol]),), tol,
                                 note=fail_note) if tol in first
            else PropertyVerdict(name, HOLDS, (), tol, note=hold_note)
            for tol in tols}


def check_separability_conditions(
        ctx: ScenarioSolve, declared_base: Optional[Expression],
        tols: Collection[float]
        ) -> dict[float, tuple[PropertyVerdict, PropertyVerdict]]:
    """Sufficient conditions on the scenario for the excess cost staying
    allocable: a separable operator objective, or an objective declared as
    the absolute deviation of a separable function from its optimum.

    Evaluated once; returns the two verdicts for each tolerance.
    """
    game = ctx.game
    p = as_polynomial(game.operator_cost)
    coupling = None if p is None else _coupling(p, game.names)
    if p is None:
        separable = PropertyVerdict(
            "operator-cost-separable", UNKNOWN,
            note="non-polynomial objective; separability not certified")
    elif coupling is None:
        separable = PropertyVerdict(
            "operator-cost-separable", HOLDS,
            data={"components": max(1, len(p.variables()))},
            note="guarantees the excess equals the marginal-cost sum")
    else:
        separable = PropertyVerdict(
            "operator-cost-separable", FAILS,
            (_wit(coupling_monomial=coupling),),
            note="a monomial couples two agents")

    if declared_base is None:
        declared = dict.fromkeys(tols, PropertyVerdict(
            "absolute-deviation-form", NOT_APPLICABLE,
            note="no separable base declared"))
    else:
        declared = _check_declared_abs_form(
            game, ctx.optimum.profile, declared_base, tols)
    return {tol: (separable, declared[tol]) for tol in tols}


def check_single_deviation_dominance(ctx: ScenarioSolve,
                                     baseline: Optional[ActionProfile],
                                     tol: float) -> PropertyVerdict:
    """Sufficient condition at one anchor: single-agent deviations from
    the optimum cost at least the baseline play."""
    if baseline is None:
        return PropertyVerdict("single-deviation-dominance", NOT_APPLICABLE,
                               note="no baseline equilibrium available")
    game = ctx.game
    u_star = ctx.optimum.profile
    witnesses = []
    j_bar = evaluate(game.operator_cost, baseline.values)
    for i in range(game.n):
        j_dev = evaluate(game.operator_cost,
                         u_star.replace(i, baseline[i]).values)
        witnesses.append(_wit(agent=i + 1, deviation_cost=j_dev,
                              baseline_cost=j_bar,
                              passed=float(j_dev) >= float(j_bar) - tol))
    return _per_agent("single-deviation-dominance", witnesses, tol)


def _coupling(p: Polynomial, names: Sequence[str]) -> Optional[str]:
    """The first monomial of ``p``, in sorted order, that couples two
    agents, named; None when ``p`` is separable."""
    for mono in sorted(p.terms):
        if len(mono) > 1:
            return "*".join(names[i] if k == 1 else f"{names[i]}^{k}"
                            for i, k in mono)
    return None


def _check_declared_abs_form(game: Game, u_star: ActionProfile,
                             declared_base: Expression,
                             tols: Collection[float]
                             ) -> dict[float, PropertyVerdict]:
    p = as_polynomial(declared_base)
    coupling = None if p is None else _coupling(p, game.names)
    if p is None or coupling is not None:
        witnesses = () if p is None else (_wit(coupling_monomial=coupling),)
        return dict.fromkeys(tols, PropertyVerdict(
            "absolute-deviation-form", FAILS, witnesses,
            note="declared base function is not separable"))
    base_at_star = evaluate(declared_base, u_star.values)
    reconstructed = absval(add(declared_base, neg(const(base_at_star))))
    rows = ((point, float(evaluate(game.operator_cost, point)),
             float(evaluate(reconstructed, point)))
            for point in _sample_points(game))
    return _sampled_verdicts(
        "absolute-deviation-form", rows,
        lambda row, tol:
        abs(row[1] - row[2]) > tol + 1e-9 * max(1.0, abs(row[2])),
        lambda row: _wit(profile=list(row[0]), objective=row[1],
                         reconstruction=row[2]),
        ("objective does not match the declared form",
         "verified on sampled profiles"), tols)


def check_vcg_conditions(ctx: ScenarioSolve, tols: Collection[float]
                         ) -> dict[float, tuple[PropertyVerdict,
                                                PropertyVerdict]]:
    """Curvature and per-agent opt-out surplus for the VCG-like rule.

    The surplus condition (operator-side remainder at the optimum at
    least its value at the agent's opt-out equilibrium) implies the weak
    budget-balance verdict.  Evaluated once; returns the two verdicts for
    each tolerance.
    """
    game = ctx.game
    hess = _convexity_verdict(
        "operator-hessian-positive-definite",
        hessian_pd_check(game.operator_cost, game))

    if not ctx.anticipatory:
        surplus = PropertyVerdict(
            "opt-out-surplus", NOT_APPLICABLE,
            note="agents do not anticipate the scheme, so they have no "
                 "opt-out equilibria")
        return {tol: (hess, surplus) for tol in tols}

    u_star = ctx.optimum.profile
    terms = ctx.vcg_terms
    rows = []
    for remainder, offset in zip(terms.remainders, terms.offsets):
        at_star = evaluate(remainder, u_star.values)
        rows.append((at_star, offset, float(at_star) - float(offset)))
    return {tol: (hess, _per_agent("opt-out-surplus", [
        _wit(agent=i + 1, remainder_at_optimum=at_star,
             remainder_at_opt_out=offset, surplus=surplus,
             passed=surplus >= -tol)
        for i, (at_star, offset, surplus) in enumerate(rows)], tol,
        note="implies weak budget balance when it holds for every agent"))
        for tol in tols}


def _convexity_verdict(name: str, report: ConvexityReport) -> PropertyVerdict:
    witnesses = ()
    if report.witness is not None:
        witnesses = (_wit(profile=report.witness,
                          min_eigenvalue=report.min_eigenvalue),)
    note = "sampled over the bound box" if report.sampled else "exact"
    return PropertyVerdict(name, report.status, witnesses, 0.0, note=note,
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


def check_alignment_sufficiency(ctx: ScenarioSolve, tols: Collection[float]
                                ) -> dict[float, PropertyVerdict]:
    """Sampled sufficient condition for social optimality of the
    proportional rule with anticipatory agents: at every profile, paying
    the incentive never beats the cost at the operator optimum.

    Evaluated once; returns the verdict for each tolerance.
    """
    game = ctx.game
    u_star = ctx.optimum.profile
    t_exprs = ctx.incentives
    agents = [i for i in range(game.n) if t_exprs[i] is not None]
    at_star = {i: float(evaluate(game.agent_costs[i], u_star.values))
               for i in agents}
    rows = ((i, point, float(evaluate(game.agent_costs[i], point))
             + float(evaluate(t_exprs[i], point)))
            for point in _sample_points(game) for i in agents)
    return _sampled_verdicts(
        "pointwise-alignment", rows,
        lambda row, tol: row[2] < at_star[row[0]] - tol,
        lambda row: _wit(agent=row[0] + 1, profile=list(row[1]),
                         incentive_inclusive_cost=row[2],
                         cost_at_optimum=at_star[row[0]]),
        ("sufficient condition fails at a sampled profile",
         "holds on sampled profiles"), tols)


def _sample_points(game: Game) -> list[tuple[float, ...]]:
    return (list(sample_grid(game.bounds, 7 if game.n <= 3 else 5))
            + random_points(game.bounds, SAMPLE_RANDOM_POINTS))


# ---------------------------------------------------------------------------
# audit assembly


@dataclass(frozen=True)
class EquilibriumSection:
    outcome: IncentiveOutcome
    decomposition: CostDecomposition
    verdicts: tuple[PropertyVerdict, ...]
    conditions: tuple[PropertyVerdict, ...]
    tolerance: float


@dataclass(frozen=True)
class AuditReport:
    """The verdicts of one audit; the scenario's solutions (optimum,
    baseline and opt-out equilibria) are read from ``ctx``."""

    ctx: ScenarioSolve
    sections: tuple[EquilibriumSection, ...]
    game_conditions: tuple[PropertyVerdict, ...]
    exact: bool

    def verdict(self, name: str, section: int = 0) -> PropertyVerdict:
        for v in (*self.sections[section].verdicts,
                  *self.sections[section].conditions,
                  *self.game_conditions):
            if v.name == name:
                return v
        raise KeyError(name)


def full_audit(scenario: Scenario, cfg: Optional[SolverConfig] = None,
               declared_base: Optional[Expression] = None) -> AuditReport:
    """Run the whole pipeline and collect every verdict.

    One section per realized equilibrium; conditions are instantiated with
    their per-instance truth values rather than reported as bare claims.
    The conditions on the scenario alone are evaluated once per audit and
    placed in every section, each with the section's tolerance.
    """
    cfg = cfg or SolverConfig()
    game = scenario.game
    scheme = scenario.incentive

    ctx = ScenarioSolve(scenario, cfg)
    u_star = ctx.optimum.profile
    baseline = ctx.baseline
    outcomes = realized_outcome(ctx)
    # each outcome is judged against every participant's opt-out game, so
    # one without an equilibrium leaves the scenario unauditable
    ctx.opt_outs
    tols = [verdict_tolerance(outcome.exact and u_star.exact)
            for outcome in outcomes]

    tiers = set(tols)
    separability = check_separability_conditions(ctx, declared_base, tiers)
    rule_conditions = dict.fromkeys(tiers, ())
    if scheme is not None and scheme.kind == VCG:
        rule_conditions = check_vcg_conditions(ctx, tiers)
    elif ctx.anticipatory and scheme.kind == PROPORTIONAL:
        rule_conditions = {tol: (v,) for tol, v in
                           check_alignment_sufficiency(ctx, tiers).items()}

    sections = []
    for outcome, tol in zip(outcomes, tols):
        decomposition = cost_decomposition(game, u_star, outcome.realized)
        verdicts = [check_social_optimality(outcome, u_star, tol)]
        if scheme is not None:
            verdicts.append(check_budget_balance(outcome, decomposition, tol))
            if ctx.anticipatory:
                verdicts.append(check_participation_anticipatory(
                    ctx, outcome, tol))
            else:
                verdicts.append(check_participation_weak(
                    decomposition, outcome.t_values, tol))
            verdicts.extend(check_equity_monotonicity(
                decomposition, outcome.t_values, tol))

        # without anticipation the realized play is the baseline play
        anchor = outcome.realized if not ctx.anticipatory \
            else (baseline[0].profile if baseline else None)
        conditions = (check_allocable_excess(decomposition, tol),
                      *separability[tol],
                      check_single_deviation_dominance(ctx, anchor, tol),
                      *rule_conditions[tol])

        sections.append(EquilibriumSection(
            outcome=outcome,
            decomposition=decomposition,
            verdicts=tuple(verdicts),
            conditions=conditions,
            tolerance=tol,
        ))

    return AuditReport(
        ctx=ctx,
        sections=tuple(sections),
        game_conditions=(check_decoupled_impossibility(game),),
        exact=u_star.exact and all(o.exact for o in outcomes),
    )
