"""Command-line front end: audit, equilibrium, and oracle reports.

Exit codes: 0 success (regardless of verdicts), 2 game-file or usage
errors, 3 solver failure (non-convergence or float overflow), 4 oracle
size refusal (too many agents or a grid over the memory budget).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .audit import full_audit
from .expr import evaluate
from .game import ActionProfile, Scenario
from .gamefile import GameFileError, GameSpec, load_game_file
from .incentive import ScenarioSolve, realized_outcome
from .report import (
    SCHEMA_EQUILIBRIUM,
    SCHEMA_ORACLE,
    audit_document,
    equilibrium_node,
    number_node,
    profile_node,
    render_audit_text,
    render_equilibrium_text,
    render_oracle_text,
    to_json,
)
from .solve import (
    OracleDimensionError,
    SolverConfig,
    SolverError,
    check_grid_size,
    grid_minimum,
    grid_nash_oracle,
    grid_step,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SOLVER = 3
EXIT_DIMENSION = 4


#: what a command returns: its document and the document's text renderer
Report = tuple[dict, Callable[[dict], str]]


class UsageError(ValueError):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call only."""
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
                       help="override the solver tolerance")

    common(sub.add_parser("audit", help="full property audit"))
    common(sub.add_parser("equilibrium", help="equilibria for one scenario row"))
    common(sub.add_parser("oracle", help="brute-force grid cross-check"))
    return parser


def _configure(spec: GameSpec, args: argparse.Namespace) -> SolverConfig:
    cfg = spec.solver
    try:
        if args.grid is not None:
            cfg = cfg.replace(grid_points_per_axis=args.grid)
        if args.tol is not None:
            cfg = cfg.replace(tol=args.tol)
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
    out = sorted(scenario.opted_out)
    if out:
        agents = ", ".join(spec.game.names[i] for i in out)
        return f"{scenario.incentive.kind} incentive, opted out: {agents}"
    return f"{scenario.incentive.kind} incentive, all participating"


def _cmd_audit(spec: GameSpec, scenario: Scenario,
               cfg: SolverConfig) -> Report:
    report = full_audit(scenario, cfg, declared_base=spec.declared_base)
    return audit_document(report), render_audit_text


def _cmd_equilibrium(spec: GameSpec, scenario: Scenario,
                     cfg: SolverConfig) -> Report:
    game = spec.game
    ctx = ScenarioSolve(scenario, cfg)
    if scenario.incentive is None:
        # an empty baseline is a reportable row set, not an error
        rows = [(eq, Fraction(0)) for eq in ctx.baseline]
    else:
        rows = [(outcome.equilibrium, outcome.total_incentive)
                for outcome in realized_outcome(ctx)]
    entries = []
    for eq, paid in rows:
        cost = evaluate(game.operator_cost, eq.profile.values)
        node = equilibrium_node(eq, cost)
        node["operator_net_cost"] = number_node(cost - paid)
        entries.append(node)
    doc = {
        "schema": SCHEMA_EQUILIBRIUM,
        "scenario": _scenario_label(spec, scenario),
        "agents": list(game.names),
        "equilibria": entries,
    }
    return doc, render_equilibrium_text


def _distance_check(subject: str, point: ActionProfile,
                    others: Sequence[ActionProfile], target: str,
                    step: float) -> tuple[bool, str]:
    """Whether ``point`` lies within one grid step of the nearest of
    ``others``, and the diagnostic line that says so."""
    dist = min((point.max_distance(q) for q in others), default=float("inf"))
    ok = dist <= step + 1e-12
    return ok, (f"{subject} is {dist:.6g} from {target} "
                f"({'ok' if ok else 'DISAGREES'})")


def _cmd_oracle(spec: GameSpec, scenario: Scenario,
                cfg: SolverConfig) -> Report:
    game = spec.game
    ctx = ScenarioSolve(scenario, cfg)
    costs = ctx.effective_costs
    grid_eqs = grid_nash_oracle(costs, game.bounds, cfg)
    gm_profile, gm_value = grid_minimum(game.operator_cost, game.bounds, cfg)
    step = grid_step(game.bounds, cfg.grid_points_per_axis)

    analytic = ctx.equilibria(costs)
    u_star = ctx.optimum

    analytic_profiles = [eq.profile for eq in analytic]
    checks = [_distance_check(f"analytic equilibrium {tuple(p.as_floats())}",
                              p, grid_eqs, "the nearest grid equilibrium",
                              step)
              for p in analytic_profiles]
    checks += [_distance_check(f"grid equilibrium {tuple(g.as_floats())}",
                               g, analytic_profiles,
                               "the nearest analytic equilibrium", step)
               for g in grid_eqs]
    checks.append(_distance_check("operator optimum", u_star.profile,
                                  [gm_profile], "the grid minimum", step))

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
        "agreement": all(ok for ok, _ in checks),
        "diagnostics": [line for _, line in checks],
    }
    return doc, render_oracle_text


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_game_file(args.file)
        cfg = _configure(spec, args)
        if args.command == "oracle":
            check_grid_size(spec.game.n, cfg.grid_points_per_axis)
        scenario = _resolve_scenario(spec, args.scenario)
        command = {"audit": _cmd_audit, "equilibrium": _cmd_equilibrium,
                   "oracle": _cmd_oracle}[args.command]
        doc, render = command(spec, scenario, cfg)
        if args.format == "structured":
            print(to_json(doc))
        else:
            print(render(doc), end="")
        return EXIT_OK
    except (GameFileError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OracleDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OverflowError as exc:
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
