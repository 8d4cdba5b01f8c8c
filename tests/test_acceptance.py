"""Acceptance gate: golden runs, randomized property suites, oracle parity.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them).  Tolerances are pinned here, not calibrated elsewhere: golden runs
on the bundled games are exact in rational arithmetic and asserted at
1e-9; the randomized suites carry their own stated bounds and runtime
budgets.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from incentive_audit.audit import (
    check_allocable_excess,
    check_budget_balance,
    check_participation_anticipatory,
    full_audit,
)
from incentive_audit.cli import main
from incentive_audit.expr import add, const, evaluate, mul, power, var
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
from incentive_audit.gamefile import load_game_file
from incentive_audit.incentive import (
    ScenarioSolve,
    cost_decomposition,
    realized_outcome,
    vcg_incentive,
)
from incentive_audit.solve import (
    SolverConfig,
    grid_minimum,
    grid_nash_oracle,
    grid_step,
    minimize_operator,
    nash_equilibrium,
)

from conftest import GAMES_DIR, THREE_EQUILIBRIA_GAME, random_game

TOL = 1e-9


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")
    print(f"PASS  criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_worked_example_golden_run():
    with criterion(1, "coupled-game golden run with custom incentive",
                   budget=1.0):
        spec = load_game_file(GAMES_DIR / "example1.game")
        game, cfg = spec.game, spec.solver

        u_star = minimize_operator(game, cfg)
        assert u_star.profile.values == (Fraction(3, 4), Fraction(2))

        baseline = nash_equilibrium(game.agent_costs, game.bounds, cfg)
        assert [e.profile.values for e in baseline] == [(1, 1)]
        j_bar = evaluate(game.operator_cost, baseline[0].profile.values)
        assert j_bar == Fraction(17, 16)

        report = full_audit(spec.scenario(), cfg)
        section = report.sections[0]
        out = section.outcome
        assert report.exact  # rational mode throughout
        assert out.realized.values == (1, 2)
        assert evaluate(game.agent_costs[0], out.realized.values) == -3
        assert evaluate(game.agent_costs[1], out.realized.values) == 0
        opt_outs = report.ctx.opt_outs
        assert [e.profile.values for e in opt_outs] == [(1, 1), (1, 2)]
        opt_out_cost_1 = evaluate(game.agent_costs[0],
                                  opt_outs[0].profile.values)
        assert opt_out_cost_1 == -1
        assert report.verdict("participation").holds
        assert section.decomposition.total_excess == Fraction(1, 16)
        assert out.total_incentive == Fraction(1, 2)
        bb = report.verdict("budget-balance")
        assert bb.holds and bb.data["level"] == "weak"
        net = evaluate(game.operator_cost, out.realized.values) \
            - out.total_incentive
        assert net == Fraction(1, 16) - Fraction(1, 2)


def test_criterion_2_vcg_benign_case():
    with criterion(2, "VCG-like rule: aligned opt-outs give zero transfers"):
        spec = load_game_file(GAMES_DIR / "example3_case1.game")
        report = full_audit(spec.scenario(), spec.solver)
        out = report.sections[0].outcome
        u_star = report.ctx.optimum.profile
        assert u_star.values == (1, 0)
        assert out.realized.max_distance(u_star) <= TOL
        assert all(abs(float(t)) <= TOL for t in out.t_values)
        assert report.verdict("opt-out-surplus").holds
        bb = report.verdict("budget-balance")
        assert bb.holds and bb.data["level"] == "exact"


def test_criterion_3_vcg_adversarial_case():
    with criterion(3, "VCG-like rule: opt-out shift breaks budget balance"):
        spec = load_game_file(GAMES_DIR / "example3_case2.game")
        report = full_audit(spec.scenario(), spec.solver)
        out = report.sections[0].outcome
        assert report.verdict("operator-hessian-positive-definite").holds
        assert out.realized.values == (1, 0)
        assert report.verdict("social-optimality").holds
        assert report.ctx.opt_outs[0].profile.values == (-1, -1)
        assert abs(float(out.t_values[0]) - (-3)) <= TOL
        assert abs(float(out.t_values[1])) <= TOL
        assert report.verdict("budget-balance").status == "fails"
        theta = report.sections[0].decomposition.theta
        assert all(abs(float(th)) <= TOL for th in theta)
        assert report.verdict("equity").status == "fails"


def test_criterion_4_proportional_rule_suite():
    with criterion(4, "proportional rule on 100 separable-objective games",
                   budget=30.0):
        rng = np.random.default_rng(41)
        cfg = SolverConfig()
        for _ in range(100):
            game = random_game(rng, int(rng.integers(2, 4)), separable=True)
            scenario = Scenario(game,
                                IncentiveScheme(PROPORTIONAL, NON_ANTICIPATORY))
            report = full_audit(scenario, cfg)
            for section in report.sections:
                out = section.outcome
                dec = section.decomposition
                assert abs(float(out.total_incentive)
                           - float(dec.total_excess)) <= TOL
                assert report.verdict("equity").holds
                assert report.verdict("monotonicity").holds
                for t, th in zip(out.t_values, dec.theta):
                    assert float(t) <= float(th) + TOL
                # separable objective: excess equals the marginal sum
                assert abs(sum(float(th) for th in dec.theta)
                           - float(dec.total_excess)) <= TOL
                assert report.verdict("excess-within-marginal-sum").holds


def test_criterion_5_vcg_rule_suite():
    with criterion(5, "VCG-like rule on 50 positive-definite games",
                   budget=60.0):
        rng = np.random.default_rng(52)
        cfg = SolverConfig()
        for _ in range(50):
            game = random_game(rng, int(rng.integers(2, 4)), separable=False)
            ctx = ScenarioSolve(Scenario(game, IncentiveScheme(VCG)), cfg)
            out = vcg_incentive(ctx)
            u_star = ctx.optimum.profile
            assert out.realized.max_distance(u_star) <= 1e-6

            participation = check_participation_anticipatory(ctx, out, TOL)
            assert participation.holds

            surplus_ok = True
            for i in range(game.n):
                remainder = add(game.operator_cost,
                                mul(const(-1), game.agent_costs[i]))
                at_star = float(evaluate(remainder, u_star.values))
                surplus_ok &= \
                    at_star - float(ctx.vcg_terms.offsets[i]) >= -TOL
            dec = cost_decomposition(game, u_star, out.realized)
            weak_bb = check_budget_balance(out, dec, TOL).holds
            assert weak_bb == surplus_ok


def _decoupled_game(rng) -> Game:
    n = int(rng.integers(2, 4))
    costs, mins = [], []
    for i in range(n):
        q = Fraction(int(rng.integers(8, 17)), 8)
        m = Fraction(int(rng.integers(-12, 13)), 8)
        mins.append(m)
        costs.append(mul(const(q), power(add(var(i), const(-m)), 2)))
    # operator optima pushed away from the agents' minimizers so the
    # realized play always carries a strictly positive excess cost
    parts = []
    for i in range(n):
        shift = Fraction(int(rng.integers(12, 21)), 8) \
            * (1 if rng.integers(2) else -1)
        parts.append(power(add(var(i), const(-(mins[i] + shift))), 2))
    return Game(n=n, agent_costs=tuple(costs), operator_cost=add(*parts),
                bounds=((Fraction(-10), Fraction(10)),) * n)


def _random_scheme(rng, n: int, flavor: int) -> IncentiveScheme:
    exprs = []
    for i in range(n):
        if flavor == 0:  # flat reward: passes participation trivially
            exprs.append(const(Fraction(int(rng.integers(-16, 0)), 8)))
        elif flavor == 1:  # flat tax: fails participation
            exprs.append(const(Fraction(int(rng.integers(1, 17)), 8)))
        else:  # coupled quadratic transfer
            exprs.append(add(
                const(Fraction(int(rng.integers(-8, 9)), 8)),
                mul(const(Fraction(int(rng.integers(-8, 9)), 8)), var(i)),
                mul(const(Fraction(int(rng.integers(0, 5)), 8)),
                    var(i), var(i)),
                mul(const(Fraction(int(rng.integers(-2, 3)), 8)),
                    var(i), var((i + 1) % n))))
    return IncentiveScheme(CUSTOM, expressions=tuple(exprs))


def test_criterion_6_decoupled_impossibility_suite():
    with criterion(6, "decoupled games: participation forces a nonpositive "
                      "incentive total (50 games x 20 schemes)"):
        rng = np.random.default_rng(66)
        cfg = SolverConfig()
        passing = 0
        for _ in range(50):
            game = _decoupled_game(rng)
            for k in range(20):
                scheme = _random_scheme(rng, game.n,
                                        k % 4 if k % 4 < 2 else 2)
                ctx = ScenarioSolve(Scenario(game, scheme), cfg)
                out = realized_outcome(ctx)[0]
                dec = cost_decomposition(game, ctx.optimum.profile,
                                         out.realized)
                assert float(dec.total_excess) >= 0
                assert float(dec.total_excess) > 1e-6  # family guarantee
                participation = check_participation_anticipatory(
                    ctx, out, TOL)
                weak_bb = check_budget_balance(out, dec, TOL).holds
                if participation.holds:
                    passing += 1
                    assert float(out.total_incentive) <= TOL
                    assert not weak_bb
        assert passing > 50  # the suite genuinely exercises both sides


def test_criterion_7_allocable_excess_region():
    with criterion(7, "excess-vs-marginal-sum verdict tracks the product "
                      "sign region"):
        spec = load_game_file(GAMES_DIR / "example2.game")
        game, cfg = spec.game, spec.solver
        u_star = minimize_operator(game, cfg).profile
        assert u_star.values == (-1, -1)
        cases = {(0, 0): "holds", (-2, -2): "holds", (-2, 0): "fails"}
        for profile, expected in cases.items():
            dec = cost_decomposition(
                game, u_star, ActionProfile([Fraction(v) for v in profile]))
            verdict = check_allocable_excess(dec, TOL)
            assert verdict.status == expected
            sign = (profile[0] + 1) * (profile[1] + 1)
            assert (verdict.status == "holds") == (sign >= 0)


SHIPPED = ["example1.game", "example2.game", "example3_case1.game",
           "example3_case2.game", "decoupled_demo.game"]


def test_criterion_8_oracle_equivalence():
    with criterion(8, "grid oracle parity on every bundled game",
                   budget=60.0):
        for name in SHIPPED:
            spec = load_game_file(GAMES_DIR / name)
            game, cfg = spec.game, spec.solver
            assert cfg.grid_points_per_axis == 201
            step = grid_step(game.bounds, cfg.grid_points_per_axis)

            analytic = nash_equilibrium(game.agent_costs, game.bounds, cfg)
            grid = grid_nash_oracle(game.agent_costs, game.bounds, cfg)
            assert analytic and grid, name
            for eq in analytic:
                assert min(eq.profile.max_distance(p) for p in grid) \
                    <= step + 1e-12, name
            for p in grid:
                assert min(p.max_distance(eq.profile) for eq in analytic) \
                    <= step + 1e-12, name

            u_star = minimize_operator(game, cfg)
            gm_profile, _ = grid_minimum(game.operator_cost, game.bounds, cfg)
            assert u_star.profile.max_distance(gm_profile) <= step + 1e-12


#: sha256 of ``audit --format structured`` for example1 under the
#: anticipatory proportional rule, recorded with the piecewise rational
#: line search
EXAMPLE1_PROPORTIONAL_DIGEST = (
    "0c1481685ccf805fa7c0e517dd8426a22ee1269c4e508796ad8ef3bb37f72a1b")


def test_anticipatory_proportional_report_is_pinned(tmp_path, capsys):
    # the effective costs carry guarded divisions, so every line minimum
    # here goes through the piecewise rational search, a path the bundled
    # digests never take
    bundled = (GAMES_DIR / "example1.game").read_text()
    path = tmp_path / "example1_proportional.game"
    path.write_text(bundled[:bundled.index("[incentive]")]
                    + "[incentive]\nkind = proportional\nmode = anticipatory\n")
    assert main(["audit", str(path), "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == EXAMPLE1_PROPORTIONAL_DIGEST
    # the realized equilibrium is (13/10, 37/20), to float accuracy
    realized = json.loads(out)["sections"][0]["realized_profile"]
    assert max(abs(u - v) for u, v in zip(realized, (1.3, 1.85))) <= 1e-9


#: sha256 of ``audit --format structured``, recorded before the audit
#: solved each distinct game once: the three-equilibrium game (three
#: sections over shared opt-out games), and example3_case2 with
#: non-anticipatory agents and u2 opted out (the VCG-like opt-out terms
#: are taken with every agent in while the scenario has one agent out)
THREE_EQUILIBRIA_DIGEST = (
    "1fc196b7c2f55e8a1a363d7fea2cbdca3bbe3ed621c4336a93a3399d2d2e2f06")
EXAMPLE3_CASE2_EX_POST_OPT_OUT_DIGEST = (
    "9a1bdddf52beb2c8e7dd604993613c2ba1056a413c2c00185b08aef9f4a19bd5")


def _structured_audit_digest(path, capsys, *extra) -> str:
    assert main(["audit", str(path), "--format", "structured", *extra]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_three_equilibria_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "three_equilibria.game"
    path.write_text(THREE_EQUILIBRIA_GAME)
    assert _structured_audit_digest(path, capsys) == THREE_EQUILIBRIA_DIGEST


def test_vcg_ex_post_opt_out_report_is_pinned(tmp_path, capsys):
    bundled = (GAMES_DIR / "example3_case2.game").read_text()
    path = tmp_path / "example3_case2_ex_post.game"
    path.write_text(bundled.replace("mode = anticipatory",
                                    "mode = non-anticipatory"))
    assert _structured_audit_digest(path, capsys, "--scenario", "optout:u2") \
        == EXAMPLE3_CASE2_EX_POST_OPT_OUT_DIGEST
