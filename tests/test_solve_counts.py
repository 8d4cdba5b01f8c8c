"""Each audit solves the operator optimum once and each distinct game once,
computes each line minimum of a solve once (the piecewise lines of a
batch sharing their eigenvalue calls), and evaluates the conditions on
the scenario alone once.

Every binding of ``minimize_operator``, ``nash_equilibrium``,
``verify_nash`` and the batched line kernel ``line_minima`` in the package
is wrapped with a counter, so a call reached by any route counts.
"""

import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from incentive_audit import audit
from incentive_audit.cli import main
from incentive_audit.expr import parse
from incentive_audit.gamefile import load_game_file
from incentive_audit.solve import solvers

from conftest import (BOX2, EXAMPLE1_PROPORTIONAL_GAME, GAMES_DIR, NAMES2,
                      OUTSIDE_BOX_COSTS, QUARTIC_GAME, THREE_EQUILIBRIA_GAME,
                      THREE_EQUILIBRIA_VCG_GAME)

SOLVES = ("minimize_operator", "nash_equilibrium")


def _replace_solver(monkeypatch, name, replacement):
    """Patch every package binding of the solver function ``name``."""
    original = getattr(solvers, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("incentive_audit") \
                and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def solves(monkeypatch):
    counts = Counter()
    for name in SOLVES:
        def counted(*args, _name=name, _original=getattr(solvers, name),
                    **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _replace_solver(monkeypatch, name, counted)
    return counts


def _run(capsys, *argv):
    assert main(list(argv)) == 0
    capsys.readouterr()


#: equilibrium solves of one structured audit: the baseline, plus for an
#: anticipatory scheme the incentive-adjusted game and one opt-out game
#: per agent (the VCG-like rule's opt-out terms are those same games)
AUDIT_EQUILIBRIUM_SOLVES = {
    "example1": 4,
    "example2": 1,
    "decoupled_demo": 1,
    "example3_case1": 4,
    "example3_case2": 4,
}


@pytest.mark.parametrize("game", sorted(AUDIT_EQUILIBRIUM_SOLVES))
def test_structured_audit_solves_each_game_once(game, solves, capsys):
    _run(capsys, "audit", str(GAMES_DIR / f"{game}.game"),
         "--format", "structured")
    assert solves == {"minimize_operator": 1,
                      "nash_equilibrium": AUDIT_EQUILIBRIUM_SOLVES[game]}


def test_oracle_solves_each_game_once(solves, capsys):
    # two VCG-like opt-out games and the incentive-adjusted game
    _run(capsys, "oracle", str(GAMES_DIR / "example3_case2.game"),
         "--format", "structured", "--grid", "41")
    assert solves == {"minimize_operator": 1, "nash_equilibrium": 3}


def test_equilibrium_solves_only_the_game_it_reports(solves, capsys):
    # the incentive-adjusted game; the opt-out games are the audit's
    _run(capsys, "equilibrium", str(GAMES_DIR / "example1.game"),
         "--scenario", "incentive", "--format", "structured")
    assert solves == {"nash_equilibrium": 1}


def test_opt_out_game_without_equilibrium(monkeypatch, capsys):
    # example1's custom scheme, with every opt-out game (some agents on
    # their raw costs, some not) left without a verified equilibrium
    path = str(GAMES_DIR / "example1.game")
    raw = load_game_file(path).game.agent_costs
    original = solvers.nash_equilibrium

    def no_opt_out_equilibrium(costs, bounds, cfg):
        mixed = any(c in raw for c in costs) \
            and not all(c in raw for c in costs)
        return [] if mixed else original(costs, bounds, cfg)

    _replace_solver(monkeypatch, "nash_equilibrium", no_opt_out_equilibrium)
    assert main(["audit", path, "--format", "structured"]) == 3
    assert "when agent 1 opts out" in capsys.readouterr().err
    assert main(["equilibrium", path, "--scenario", "incentive",
                 "--format", "structured"]) == 0


def test_opt_out_games_are_shared_across_equilibria(tmp_path, solves,
                                                    capsys):
    # three realized equilibria, each judged against the same two opt-out
    # games: baseline, adjusted game and two opt-outs
    path = tmp_path / "three_equilibria.game"
    path.write_text(THREE_EQUILIBRIA_GAME)
    _run(capsys, "audit", str(path), "--format", "structured")
    assert solves == {"minimize_operator": 1, "nash_equilibrium": 4}


#: line minima computed in one structured audit; each equilibrium solve
#: computes a line once however many sweeps and verifications read it
#: (example1's anticipatory proportional audit took 496 before that, and
#: 112 while verification scanned its lines deeper than the sweeps did)
AUDIT_LINE_MINIMA = {
    "example1": 96,
    "example2": 2,
    "decoupled_demo": 2,
    "example3_case1": 8,
    "example3_case2": 8,
}


@pytest.mark.parametrize("game", sorted(AUDIT_LINE_MINIMA))
def test_structured_audit_computes_each_line_once(game, monkeypatch,
                                                  capsys):
    # the cache hands the kernel only lines it has not computed yet
    counts = Counter()
    original = solvers.line_minima

    def counted(e, i, profiles, lo, hi):
        counts["lines"] += len(profiles)
        return original(e, i, profiles, lo, hi)

    _replace_solver(monkeypatch, "line_minima", counted)
    _run(capsys, "audit", str(GAMES_DIR / f"{game}.game"),
         "--format", "structured")
    assert counts == {"lines": AUDIT_LINE_MINIMA[game]}


#: a one-way game shaped like the benchmark's ``nonsmooth`` abs games:
#: agent 1's cost reads only u1, so its line is the same at every profile
ONE_WAY_ABS_GAME = """\
[agents]
names = u1, u2

[costs]
u1 = "(9/8)*u1^2 + u1 + (5/4)*abs(u1 + 5/8)"
u2 = "(1/8)*u1*u2 + (1/2)*u2^2 + (1/2)*abs(u2 + 1)"

[operator]
J = "2*u1^2 + (1/8)*u1*u2 + u1 + (7/8)*u2^2 + (77/32)*u2 + 911/512"

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]
"""


def test_one_way_audit_minimizes_each_line_once(tmp_path, monkeypatch,
                                                capsys):
    # agent 1's line once, and agent 2's once at the one u1 every seed's
    # sweep reaches (13 lines when agent 1's line was keyed by u2 as well,
    # 12 of them agent 1's: one per u2 a seed or a verification held)
    counts = Counter()
    original = solvers.line_minima

    def counted(e, i, profiles, lo, hi):
        counts[i] += len(profiles)
        return original(e, i, profiles, lo, hi)

    _replace_solver(monkeypatch, "line_minima", counted)
    path = tmp_path / "one_way_abs.game"
    path.write_text(ONE_WAY_ABS_GAME)
    _run(capsys, "audit", str(path), "--format", "structured")
    assert counts == {0: 1, 1: 1}


def test_piecewise_lines_share_eigenvalue_calls(tmp_path, monkeypatch,
                                                capsys):
    # example1's anticipatory proportional audit: every line is piecewise,
    # and a line batch finds its roots in lockstep rounds (968 calls when
    # each profile, and each piece of it, had its own)
    calls = Counter()
    original = np.linalg.eigvals

    def counted(a):
        calls["eigvals"] += 1
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    path = tmp_path / "example1_proportional.game"
    path.write_text(EXAMPLE1_PROPORTIONAL_GAME)
    _run(capsys, "audit", str(path), "--format", "structured")
    assert calls == {"eigvals": 142}


#: F evaluations and iterations of one stationarity Newton call from the
#: seeds of BOX2: F at the starts, then once per iteration for the full
#: steps and once more where a start needs a shorter one.  Outside the box
#: every start stalls at the corner (2, -2) and tries all 34 fractions of
#: its step (69 evaluations when each fraction had its own); the cubic
#: game's starts converge, most iterations needing only the full step.
NEWTON_EVALUATIONS = [(OUTSIDE_BOX_COSTS, (5, 2)),
                      (("u1^3/3 - u1 + u1*u2/4", "u2^4/4 + u2^2 - u1*u2/2"),
                       (8, 6))]


@pytest.mark.parametrize("costs, expected", NEWTON_EVALUATIONS,
                         ids=["outside-box", "cubic"])
def test_newton_step_search_evaluates_twice_per_iteration(costs, expected,
                                                          monkeypatch, cfg):
    F, Jac = solvers._newton_system([parse(c, NAMES2) for c in costs])
    calls = Counter()
    original = solvers.vector_fn

    def counted(e):
        calls[id(e)] += 1
        return original(e)

    monkeypatch.setattr(solvers, "vector_fn", counted)
    solvers._newton_stationarity(F, Jac, solvers._seeds(BOX2), BOX2, cfg)
    evaluations, iterations = calls[id(F[0])], calls[id(Jac[0])]
    assert evaluations - 1 <= 2 * iterations
    assert (evaluations, iterations) == expected


BOX10 = ((Fraction(-10), Fraction(10)),) * 2

#: quadratic games whose exact stationary point lies outside the box: best
#: response finds the boundary equilibrium, and the stationarity Newton,
#: whose F is affine with that one zero, is not run.  The second point is
#: about (10.32, -2.58); the third is 2e-12 past the bound u1 = 10, so F is
#: within ``tol`` of zero at the box point that best response reports
OUTSIDE_BOX_SOLVES = [
    (OUTSIDE_BOX_COSTS, BOX2, (2.0, -2.0)),
    (("u1^2 - (20 + 1/500000000000)*u1 + u1*u2/4", "u2^2 + u1*u2/2"),
     BOX10, (10.0, -2.5)),
    (("u1^2 - (155/8 + 31/8000000000000)*u1 + u1*u2/4", "u2^2 + u1*u2/2"),
     BOX10, (9.999999999973067, -2.4999999999932667)),
]


@pytest.mark.parametrize("costs, box, expected", OUTSIDE_BOX_SOLVES,
                         ids=["corner", "bound", "within-tol"])
def test_quadratic_game_outside_box_runs_no_newton(costs, box, expected,
                                                   monkeypatch, cfg):
    calls = Counter()
    original = solvers._newton_stationarity

    def counted(*args, **kwargs):
        calls["_newton_stationarity"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "_newton_stationarity", counted)
    found = solvers.nash_equilibrium([parse(c, NAMES2) for c in costs], box,
                                     cfg)
    assert calls["_newton_stationarity"] == 0
    assert [(eq.profile.values, eq.method, eq.residual) for eq in found] \
        == [(expected, "best-response", 0.0)]


#: candidates verified in one structured audit.  Candidates are verified
#: in report order and one within MERGE_TOL of a reported equilibrium is
#: dropped unverified (verifying every candidate took 255 for the quartic
#: game, which has one equilibrium per solve and 51 candidates).
AUDIT_VERIFICATIONS = {
    "example1": 56,
    "example2": 1,
    "decoupled_demo": 1,
    "example3_case1": 4,
    "example3_case2": 4,
    "quartic": 5,
}


@pytest.mark.parametrize("game", sorted(AUDIT_VERIFICATIONS))
def test_structured_audit_verifies_only_unmerged_candidates(
        game, tmp_path, monkeypatch, capsys):
    counts = Counter()
    original = solvers.verify_nash

    def counted(*args, **kwargs):
        counts["verify_nash"] += 1
        return original(*args, **kwargs)

    _replace_solver(monkeypatch, "verify_nash", counted)
    path = GAMES_DIR / f"{game}.game"
    if game == "quartic":
        path = tmp_path / "quartic.game"
        path.write_text(QUARTIC_GAME)
    _run(capsys, "audit", str(path), "--format", "structured")
    assert counts == {"verify_nash": AUDIT_VERIFICATIONS[game]}


#: the curvature check and the declared-form sampling of ``audit``
SCENARIO_CHECKS = ("hessian_pd_check", "_check_declared_abs_form")


def test_scenario_conditions_run_once_per_audit(tmp_path, monkeypatch,
                                                capsys):
    # three sections, each carrying the VCG-like and declared-form
    # conditions, under two tolerance tiers (one section is exact)
    counts = Counter()
    for name in SCENARIO_CHECKS:
        original = getattr(audit, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(audit, name, counted)
    path = tmp_path / "three_equilibria_vcg.game"
    path.write_text(THREE_EQUILIBRIA_VCG_GAME)
    _run(capsys, "audit", str(path), "--format", "structured")
    assert counts == dict.fromkeys(SCENARIO_CHECKS, 1)
