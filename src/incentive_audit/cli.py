"""Command-line front end: arguments, scenario selection, each command's
solves and grid calls, and exit codes; the report module makes the output.

Exit codes: 0 success (regardless of verdicts), 2 game-file or usage
errors, 3 solver failure (non-convergence or float overflow), 4 oracle
size refusal (too many agents or a grid over the memory budget).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .audit import full_audit
from .game import Scenario
from .gamefile import GameFileError, GameSpec, load_game_file
from .incentive import ScenarioSolve
from .report import (
    audit_document,
    equilibrium_document,
    oracle_document,
    render_text,
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


def _document(command: str, spec: GameSpec, scenario: Scenario,
              cfg: SolverConfig) -> dict:
    """Run the command's solves and grid calls; return its document."""
    if command == "audit":
        return audit_document(
            full_audit(scenario, cfg, declared_base=spec.declared_base))
    ctx = ScenarioSolve(scenario, cfg)
    if command == "equilibrium":
        return equilibrium_document(ctx)
    game = scenario.game
    grid_eqs = grid_nash_oracle(ctx.effective_costs, game.bounds, cfg)
    grid_min = grid_minimum(game.operator_cost, game.bounds, cfg)
    step = grid_step(game.bounds, cfg.grid_points_per_axis)
    return oracle_document(ctx, grid_eqs, grid_min, step)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_game_file(args.file)
        cfg = _configure(spec, args)
        if args.command == "oracle":
            check_grid_size(spec.game.n, cfg.grid_points_per_axis)
        scenario = _resolve_scenario(spec, args.scenario)
        doc = _document(args.command, spec, scenario, cfg)
        if args.format == "structured":
            print(to_json(doc))
        else:
            print(render_text(doc), end="")
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
