"""Command-line front end: audit, equilibrium, and oracle reports.

Exit codes: 0 success (regardless of verdicts), 2 game-file or usage
errors, 3 solver non-convergence, 4 oracle size refusal (too many agents
or a grid over the memory budget).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .audit import full_audit
from .expr import evaluate
from .game import Scenario, effective_cost
from .gamefile import GameFileError, GameSpec, load_game_file
from .incentive import materialize, realized_outcome
from .report import (
    SCHEMA_EQUILIBRIUM,
    SCHEMA_ORACLE,
    audit_document,
    number_node,
    profile_node,
    render_audit_text,
    render_equilibrium_text,
    render_oracle_text,
    to_json,
)
from .solve import (
    OracleDimensionError,
    SolverError,
    check_grid_size,
    grid_minimum,
    grid_nash_oracle,
    grid_step,
    minimize_operator,
    nash_equilibrium,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SOLVER = 3
EXIT_DIMENSION = 4


class UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incentive-audit",
        description="Audit incentive schemes on coupled-cost games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="game file (see docs or games/*.game)")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text",
                       help="human-readable text or stable JSON")
        p.add_argument("--scenario", default=None, metavar="SELECTOR",
                       help="baseline | incentive | optout:<agent>")
        p.add_argument("--grid", type=int, default=None, metavar="N",
                       help="override grid points per axis")
        p.add_argument("--tol", type=float, default=None, metavar="X",
                       help="override solver tolerances")

    common(sub.add_parser("audit", help="full property audit"))
    common(sub.add_parser("equilibrium", help="equilibria for one scenario row"))
    common(sub.add_parser("oracle", help="brute-force grid cross-check"))
    return parser


def _configure(spec: GameSpec, args: argparse.Namespace):
    cfg = spec.solver
    try:
        if args.grid is not None:
            cfg = cfg.replace(grid_points_per_axis=args.grid)
        if args.tol is not None:
            cfg = cfg.replace(tol_fixed_point=args.tol,
                              tol_stationarity=args.tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _agent_index(spec: GameSpec, token: str) -> int:
    names = spec.game.names
    if token in names:
        return names.index(token)
    try:
        idx = int(token) - 1
    except ValueError:
        raise UsageError(f"unknown agent {token!r}") from None
    if not 0 <= idx < spec.game.n:
        raise UsageError(f"agent index {token} out of range")
    return idx


def _resolve_scenario(spec: GameSpec, selector: Optional[str]) -> Scenario:
    if selector is None:
        selector = "incentive" if spec.scheme is not None else "baseline"
    if selector == "baseline":
        return Scenario(spec.game, None)
    if spec.scheme is None:
        raise UsageError(
            f"scenario {selector!r} is not applicable: the game file "
            "declares no incentive")
    if selector == "incentive":
        return spec.scenario()
    if selector.startswith("optout:"):
        idx = _agent_index(spec, selector.split(":", 1)[1])
        return spec.scenario(opted_out=(idx,))
    raise UsageError(f"unknown scenario selector {selector!r}")


def _scenario_label(spec: GameSpec, scenario: Scenario) -> str:
    if scenario.incentive is None:
        return "baseline (no incentive)"
    out = sorted(scenario.participation.opted_out)
    if out:
        agents = ", ".join(spec.game.names[i] for i in out)
        return f"{scenario.incentive.kind} incentive, opted out: {agents}"
    return f"{scenario.incentive.kind} incentive, all participating"


def _cmd_audit(spec: GameSpec, args: argparse.Namespace) -> int:
    cfg = _configure(spec, args)
    scenario = _resolve_scenario(spec, args.scenario)
    report = full_audit(scenario, cfg, declared_base=spec.declared_base)
    doc = audit_document(report, spec.game.operator_cost)
    if args.format == "structured":
        print(to_json(doc))
    else:
        print(render_audit_text(doc), end="")
    return EXIT_OK


def _cmd_equilibrium(spec: GameSpec, args: argparse.Namespace) -> int:
    cfg = _configure(spec, args)
    scenario = _resolve_scenario(spec, args.scenario)
    game = spec.game
    entries = []
    if scenario.incentive is None:
        for eq in nash_equilibrium(game.agent_costs, game.bounds, cfg):
            cost = evaluate(game.operator_cost, eq.profile.values)
            entries.append({
                "profile": profile_node(eq.profile),
                "residual": eq.residual,
                "method": eq.method,
                "converged": eq.converged,
                "exact": eq.exact,
                "operator_cost": number_node(cost),
                "operator_net_cost": number_node(cost),
            })
    else:
        for outcome in realized_outcome(scenario, cfg):
            cost = evaluate(game.operator_cost, outcome.realized.values)
            eq = outcome.equilibrium
            entries.append({
                "profile": profile_node(outcome.realized),
                "residual": eq.residual,
                "method": eq.method,
                "converged": eq.converged,
                "exact": eq.exact,
                "operator_cost": number_node(cost),
                "operator_net_cost": number_node(
                    cost - outcome.total_incentive),
            })
    doc = {
        "schema": SCHEMA_EQUILIBRIUM,
        "scenario": _scenario_label(spec, scenario),
        "agents": list(game.names),
        "equilibria": entries,
    }
    if args.format == "structured":
        print(to_json(doc))
    else:
        print(render_equilibrium_text(doc), end="")
    return EXIT_OK


def _scenario_costs(spec: GameSpec, scenario: Scenario, cfg):
    if scenario.incentive is None:
        return list(spec.game.agent_costs)
    t_exprs = materialize(scenario, cfg)
    return [effective_cost(scenario, i, t_exprs)
            for i in range(spec.game.n)]


def _cmd_oracle(spec: GameSpec, args: argparse.Namespace) -> int:
    game = spec.game
    cfg = _configure(spec, args)
    check_grid_size(game.n, cfg.grid_points_per_axis)
    scenario = _resolve_scenario(spec, args.scenario)
    costs = _scenario_costs(spec, scenario, cfg)
    grid_eqs = grid_nash_oracle(costs, game.bounds, cfg)
    gm_profile, gm_value = grid_minimum(game.operator_cost, game.bounds, cfg)
    step = grid_step(game.bounds, cfg.grid_points_per_axis)

    analytic = nash_equilibrium(costs, game.bounds, cfg)
    u_star = minimize_operator(game, cfg)

    diagnostics = []
    agree = True
    for eq in analytic:
        dist = min((eq.profile.max_distance(g) for g in grid_eqs),
                   default=float("inf"))
        ok = dist <= step + 1e-12
        agree = agree and ok
        diagnostics.append(
            f"analytic equilibrium {tuple(eq.profile.as_floats())} is "
            f"{dist:.6g} from the nearest grid equilibrium "
            f"({'ok' if ok else 'DISAGREES'})")
    for g in grid_eqs:
        dist = min((g.max_distance(eq.profile) for eq in analytic),
                   default=float("inf"))
        ok = dist <= step + 1e-12
        agree = agree and ok
        diagnostics.append(
            f"grid equilibrium {tuple(g.as_floats())} is {dist:.6g} from "
            f"the nearest analytic equilibrium ({'ok' if ok else 'DISAGREES'})")
    dist = u_star.profile.max_distance(gm_profile)
    ok = dist <= step + 1e-12
    agree = agree and ok
    diagnostics.append(
        f"operator optimum is {dist:.6g} from the grid minimum "
        f"({'ok' if ok else 'DISAGREES'})")

    doc = {
        "schema": SCHEMA_ORACLE,
        "scenario": _scenario_label(spec, scenario),
        "agents": list(game.names),
        "grid_points_per_axis": cfg.grid_points_per_axis,
        "grid_step": step,
        "grid_equilibria": [profile_node(p) for p in grid_eqs],
        "grid_minimum": {"profile": profile_node(gm_profile),
                         "value": gm_value},
        "analytic_equilibria": [profile_node(eq.profile) for eq in analytic],
        "operator_optimum": profile_node(u_star.profile),
        "agreement": agree,
        "diagnostics": diagnostics,
    }
    if args.format == "structured":
        print(to_json(doc))
    else:
        print(render_oracle_text(doc), end="")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_game_file(args.file)
        if args.command == "audit":
            return _cmd_audit(spec, args)
        if args.command == "equilibrium":
            return _cmd_equilibrium(spec, args)
        return _cmd_oracle(spec, args)
    except (GameFileError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OracleDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
