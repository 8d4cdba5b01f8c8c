"""Incentive schemes: marginal/excess costs, the proportional allocation
rule, the VCG-like rule, custom schemes, and opt-out counterfactuals.

The proportional rule splits the operator's excess cost across agents in
proportion to their marginal contributions.  The VCG-like rule charges
each agent the operator-side cost it does not already internalize, offset
by the value of that quantity at the agent's own opt-out equilibrium, so
every participant's effective objective becomes the operator objective up
to a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .expr import Expression, Number, add, const, evaluate, mul, neg, safediv, substitute
from .game import (ANTICIPATORY, CUSTOM, PROPORTIONAL, VCG, ActionProfile,
                   Game, Scenario)
from .solve import (
    EquilibriumResult,
    OperatorSolution,
    SolverConfig,
    SolverError,
    minimize_operator,
    nash_equilibrium,
)
from .solve.solvers import EquilibriumNotFound

#: tolerance below which a (numerically) negative marginal cost clamps to 0
THETA_TOL = 1e-9

#: near-zero marginal-cost totals make the proportional rule pay nothing
ALLOCATION_GUARD = Fraction(1, 10**12)


@dataclass(frozen=True)
class CostDecomposition:
    """Marginal costs and total excess at a realized profile."""

    theta: tuple[Number, ...]
    total_excess: Number


@dataclass(frozen=True)
class IncentiveOutcome:
    """One realized equilibrium of a scenario and the incentives paid there.

    What every outcome of the scenario shares (the operator optimum, the
    incentive expressions, the opt-out equilibria) stays on its
    :class:`ScenarioSolve`.
    """

    equilibrium: EquilibriumResult
    t_values: tuple[Number, ...]

    @property
    def realized(self) -> ActionProfile:
        return self.equilibrium.profile

    @property
    def exact(self) -> bool:
        return self.realized.exact \
            and not any(isinstance(t, float) for t in self.t_values)

    @property
    def total_incentive(self) -> Number:
        return sum(self.t_values, Fraction(0))


def _clamp_nonnegative(value: Number, label: str) -> Number:
    if value >= 0:
        return value
    if float(value) >= -THETA_TOL:
        return Fraction(0) if not isinstance(value, float) else 0.0
    raise SolverError(
        f"{label} is negative ({float(value):.3e}): the operator optimum "
        "did not verify; tighten the solver configuration")


def cost_decomposition(game: Game, u_star: ActionProfile,
                       u_r: ActionProfile) -> CostDecomposition:
    """Marginal costs (J with only agent i at its realized action) and the
    excess cost (J at the realized profile), both net of J at the optimum;
    each clamped to zero within THETA_TOL, escalated beyond."""
    j = game.operator_cost
    j_star = evaluate(j, u_star.values)
    theta = tuple(_clamp_nonnegative(
        evaluate(j, u_star.replace(i, u_r[i]).values) - j_star,
        f"marginal cost of agent {i + 1}") for i in range(game.n))
    return CostDecomposition(
        theta=theta,
        total_excess=_clamp_nonnegative(evaluate(j, u_r.values) - j_star,
                                        "excess cost"),
    )


def proportional_allocation(game: Game, u_star: ActionProfile,
                            u_r: ActionProfile) -> tuple[Number, ...]:
    """Split the excess cost in proportion to the marginal costs.

    Sums to the excess cost exactly in rational arithmetic; when the
    marginal costs vanish (realized play is already optimal) everyone
    pays zero.
    """
    dec = cost_decomposition(game, u_star, u_r)
    total = sum(dec.theta)
    if total <= ALLOCATION_GUARD:
        return tuple(Fraction(0) for _ in range(game.n))
    return tuple(th * dec.total_excess / total for th in dec.theta)


def proportional_expressions(game: Game, u_star: ActionProfile
                             ) -> tuple[Expression, ...]:
    """The proportional rule as symbolic functions of the realized profile,
    one per agent, all sharing one set of marginal-cost trees.

    Used to build anticipatory effective costs; the division is guarded so
    that a vanishing marginal-cost total yields zero, matching
    :func:`proportional_allocation`.
    """
    j = game.operator_cost
    j_star = const(evaluate(j, u_star.values))
    thetas = []
    for k in range(game.n):
        pinned = {m: const(u_star[m]) for m in range(game.n) if m != k}
        thetas.append(add(substitute(j, pinned), neg(j_star)))
    total = add(*thetas)
    total_excess = add(j, neg(j_star))
    return tuple(safediv(mul(theta, total_excess), total,
                         guard=ALLOCATION_GUARD) for theta in thetas)


class VcgTerms(NamedTuple):
    """The VCG-like rule's per-agent pieces, every agent participating."""

    remainders: tuple[Expression, ...]  # the operator-side J - C_i
    offsets: tuple[Number, ...]
    t_exprs: tuple[Expression, ...]


class ScenarioSolve:
    """The rules of one scenario and the solutions an audit of it reads.

    It alone decides whether agents anticipate the scheme and which cost
    each agent plays.  Each solution is computed once, on first use: the
    operator optimum, the equilibria of each distinct tuple of cost
    expressions (compared structurally, so the baseline or a VCG-like
    opt-out game that several questions share is solved once), the
    materialized incentives, the participants' opt-out equilibria and the
    VCG-like opt-out terms.
    """

    def __init__(self, scenario: Scenario, cfg: SolverConfig):
        self.scenario = scenario
        self.game = scenario.game
        self.cfg = cfg
        self._equilibria: dict[tuple[Expression, ...],
                               tuple[EquilibriumResult, ...]] = {}

    @cached_property
    def optimum(self) -> OperatorSolution:
        return minimize_operator(self.game, self.cfg)

    def equilibria(self, costs: Sequence[Expression]
                   ) -> tuple[EquilibriumResult, ...]:
        """Verified equilibria of the game with these costs; maybe none."""
        key = tuple(costs)
        if key not in self._equilibria:
            self._equilibria[key] = tuple(
                nash_equilibrium(key, self.game.bounds, self.cfg))
        return self._equilibria[key]

    def equilibrium(self, costs: Sequence[Expression],
                    which: str) -> EquilibriumResult:
        """The first verified equilibrium; ``which`` names the game when
        there is none."""
        found = self.equilibria(costs)
        if not found:
            raise EquilibriumNotFound(f"no equilibrium verified {which}")
        return found[0]

    @property
    def baseline(self) -> tuple[EquilibriumResult, ...]:
        """Equilibria of the raw costs, with no incentive."""
        return self.equilibria(self.game.agent_costs)

    @property
    def rule(self) -> Optional[Rule]:
        """The entry of :data:`RULES` for the scenario's scheme, if any."""
        scheme = self.scenario.incentive
        return None if scheme is None else RULES[scheme.kind]

    @property
    def anticipatory(self) -> bool:
        """Whether agents play the scheme's incentives: only under a
        scheme they anticipate."""
        scheme = self.scenario.incentive
        return scheme is not None and scheme.mode == ANTICIPATORY

    @cached_property
    def incentives(self) -> Optional[tuple[Optional[Expression], ...]]:
        return materialize(self)

    @cached_property
    def effective_costs(self) -> tuple[Expression, ...]:
        """The cost each agent optimizes: the raw costs when agents do not
        anticipate the scheme; C_i + t_i for each participant otherwise."""
        costs = self.game.agent_costs
        if not self.anticipatory:
            return costs
        return tuple(c if i in self.scenario.opted_out
                     else add(c, self.incentives[i])
                     for i, c in enumerate(costs))

    @cached_property
    def opt_outs(self) -> Optional[tuple[Optional[EquilibriumResult], ...]]:
        """Each participant's opt-out equilibrium (None for an agent
        already out) when agents anticipate the scheme; None otherwise."""
        if not self.anticipatory:
            return None
        return tuple(None if i in self.scenario.opted_out
                     else opt_out_equilibrium(self, i)
                     for i in range(self.game.n))

    @cached_property
    def vcg_terms(self) -> VcgTerms:
        """For each agent: the operator-side remainder J - C_i, the constant
        offset (the remainder at the agent's opt-out equilibrium) and the
        symbolic incentive, the remainder minus that offset."""
        game = self.game
        remainders = tuple(add(game.operator_cost, neg(game.agent_costs[i]))
                           for i in range(game.n))
        offsets = []
        for i, remainder in enumerate(remainders):
            costs = [game.agent_costs[j] if j == i else game.operator_cost
                     for j in range(game.n)]
            eq = self.equilibrium(costs, f"when agent {i + 1} opts out")
            offsets.append(evaluate(remainder, eq.profile.values))
        return VcgTerms(remainders, tuple(offsets),
                        tuple(add(r, neg(const(offset)))
                              for r, offset in zip(remainders, offsets)))


class Rule(NamedTuple):
    """All that depends on a scheme's kind: its per-agent incentive trees,
    the exact split non-anticipating agents pay (None: the trees' values),
    whether anticipating participants of an opt-out game minimize J, and
    its row of the paper's property table (a claim of "Y", unconditional,
    or "C", conditional, per property, and the condition the audit
    instantiates)."""

    expressions: Callable[[ScenarioSolve], tuple[Expression, ...]]
    ex_post: Optional[Callable[..., tuple[Number, ...]]]
    aligned: bool
    pattern: Optional[dict[str, tuple[str, Optional[str]]]]


RULES = {
    PROPORTIONAL: Rule(
        lambda ctx: proportional_expressions(ctx.game, ctx.optimum.profile),
        proportional_allocation, False, {
            "social-optimality": ("C", "pointwise-alignment"),
            "budget-balance": ("Y", None),
            "participation": ("C", "excess-within-marginal-sum"),
            "equity-monotonicity": ("Y", None),
        }),
    VCG: Rule(lambda ctx: ctx.vcg_terms.t_exprs, None, True, {
        "social-optimality": ("Y", "operator-hessian-positive-definite"),
        "budget-balance": ("C", "opt-out-surplus"),
        "participation": ("Y", None),
        "equity-monotonicity": ("C", None),
    }),
    CUSTOM: Rule(lambda ctx: ctx.scenario.incentive.expressions,
                 None, False, None),
}


def materialize(ctx: ScenarioSolve
                ) -> Optional[tuple[Optional[Expression], ...]]:
    """Per-agent incentive expressions of the scenario's rule (see
    :data:`RULES`); None when there is no incentive."""
    return None if ctx.rule is None else ctx.rule.expressions(ctx)


def opt_out_equilibrium(ctx: ScenarioSolve, i: int) -> EquilibriumResult:
    """Equilibrium when agent ``i`` unilaterally leaves the scheme.

    Agent ``i`` (and anyone already opted out) plays its raw cost; each
    remaining participant keeps its incentive-adjusted cost.  Under an
    aligned rule (the VCG-like one) the participants' adjustment differs
    from the operator objective only by a constant, so they minimize that
    objective directly and no fixed point over the scheme's own constants
    arises.
    """
    if ctx.rule is None:
        raise ValueError("opt-out analysis requires an incentive scheme")
    game = ctx.game
    aligned = ctx.rule.aligned and ctx.anticipatory
    costs = [game.agent_costs[j]
             if j == i or j in ctx.scenario.opted_out
             else game.operator_cost if aligned
             else ctx.effective_costs[j]
             for j in range(game.n)]
    return ctx.equilibrium(costs, f"when agent {i + 1} opts out")


def vcg_incentive(ctx: ScenarioSolve) -> IncentiveOutcome:
    """Compute the VCG-like scheme end to end (all agents participating).

    Takes the per-agent opt-out terms of :attr:`ScenarioSolve.vcg_terms`.
    Participants then effectively minimize the operator objective, which
    pins the with-incentive equilibrium.
    """
    game = ctx.game
    terms = ctx.vcg_terms
    u_prime = ctx.equilibrium([game.operator_cost] * game.n,
                              "for the incentive-aligned game")
    return IncentiveOutcome(
        equilibrium=u_prime,
        t_values=tuple(evaluate(t, u_prime.profile.values)
                       for t in terms.t_exprs),
    )


def realized_outcome(ctx: ScenarioSolve) -> list[IncentiveOutcome]:
    """Realized play of the scenario, one outcome per relevant equilibrium.

    Anticipatory agents settle on equilibria of their incentive-adjusted
    costs; non-anticipatory agents keep playing the baseline equilibria
    and incur the incentive ex post, so each realized equilibrium is also
    the baseline equilibrium that anchors it.  Agents outside the scheme
    pay nothing.
    """
    game = ctx.game
    rule = ctx.rule
    anticipatory = ctx.anticipatory
    equilibria = ctx.equilibria(ctx.effective_costs)
    if not equilibria:
        raise EquilibriumNotFound(
            "no equilibrium verified for the incentive-adjusted game"
            if anticipatory else "no baseline equilibrium verified")

    participants = () if rule is None else tuple(
        i for i in range(game.n) if i not in ctx.scenario.opted_out)
    ex_post = rule.ex_post if participants and not anticipatory else None

    outcomes = []
    for eq in equilibria:
        # a rule's exact ex-post split is evaluated directly
        due = ex_post and ex_post(game, ctx.optimum.profile, eq.profile)
        t_values = tuple(
            Fraction(0) if i not in participants
            else due[i] if due is not None
            else evaluate(ctx.incentives[i], eq.profile.values)
            for i in range(game.n))
        outcomes.append(IncentiveOutcome(equilibrium=eq, t_values=t_values))
    return outcomes
