"""Byte-identity gate: run the benchmark's requests on two checkouts and
compare what the program writes.

    python3 tools/compare_outputs.py PARENT CHANGE [--seeds 3 11]

PARENT and CHANGE are two checkouts of this repository (a ``git clone`` or
``git archive`` of each commit).  For every seed, the requests of the four
workloads are built by this repository's ``perfbench/workloads.py``, as a
benchmark run of ``run_seconds`` (``BENCHMARK.json``) builds them, into a
temporary directory that both checkouts read.  Each checkout runs in its
own child process, which issues every distinct request once, in the order
the workloads issue them, through the checkout's own ``perfbench/loop.py``
(``import_program`` and ``run_requests``).  A fixed set of front-end
requests follows, for the paths no workload takes: the text reports of
``equilibrium`` and ``oracle`` on the bundled games, the oracle on grids
of 4 and 5 points, on a 3-agent game with half-step vertices, on
example2's guarded-division costs (tabulated by their vector function),
on a 3-agent operator concave in u1 and convex in u2, and on the
candidate box's edge cases (3-agent games whose coupling keeps the box
the whole grid, whose vertices are clipped to an edge of the box, and
whose own square in u1 is too flat for the certificate; the first and the
last also at the default grid), requests
that fail with a usage, game-file or size error, a float overflow in each
command, a sampled curvature check that overflows, a subnormal line
coefficient, example1 in the rarer forms of the game-file syntax, and
structured audits of two exact quadratic games: ``tests/test_exact.py``'s
8-agent ``vcg_game(8)``, whose exact elimination runs at 8 agents, and a
3-agent game whose coefficients have the large coprime denominators 997,
991 and 983; a structured audit of ``vcg_game(8)`` with ``u1^4/4`` added
to its operator objective, the one request whose sampled curvature check
stacks 8x8 matrices (on the capped 5^5 lattice; every workload's is
2x2); then a structured audit of a two-way-coupled ``abs`` game,
whose ``abs`` line is scored both by its compiled form (in a batch of
lines) and by ``evaluate`` (alone).  Last come the expression parser's
paths that no workload takes: trailing whitespace, ``2*-u1`` and
``-u1^2``, ``u1/2/3`` and ``u2^2^3``, a divisor that is constant only
once expanded, ``(u1 + 1 - u1)``, all in one game's audit, an unexpected
character, and a ``^`` chain whose base is a group holding its own
chain, ``((u1 - 1/2)^2^2 + u2)^2``, as example1's first cost in a
structured audit.  Then example1's costs under each incentive kind in
each anticipation mode, in structured audits of the scheme and of agent
1 opting out of it: no workload audits the VCG-like or a custom scheme
without anticipation.

A child still running after ``CHILD_TIMEOUT_S`` is killed and stops the
tool, so a checkout that hangs cannot stall the comparison.

A request's result is its exit code, its error (a traceback or the text of
standard error) and the sha256 of its standard output.  Every key whose
result differs is printed with what differs; the exit status is 1 if any
does, else 0.  A traceback names its own checkout's files, so a request that
crashes on both sides is listed as differing.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the benchmark's fixed run length, which sets how many requests are built
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

#: one process, no extra threads, a fixed hash seed: as the benchmark runs
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

#: seconds one checkout's child may take for every request of every seed
CHILD_TIMEOUT_S = 600


#: an operator objective whose second derivatives overflow a float off the
#: axes of its box: the sampled curvature check stops at an unknown verdict
STEEP_GAME = """\
[agents]
names = u1, u2

[costs]
u1 = "u1^2 - u1*u2"
u2 = "u2^2 - u1*u2"

[operator]
J = "u1^2 + u2^2 + u1^100*u2^100"

[bounds]
u1 = [-1000, 1000]
u2 = [-1000, 1000]

[incentive]
kind = vcg
mode = anticipatory
"""

#: u1's quartic coefficient is subnormal as a float, so its line plans
#: carry a top coefficient that the root finder passes over
SUBNORMAL_GAME = """\
[agents]
names = u1, u2

[costs]
u1 = "u1^4/10^320 + u1^2 + u1*u2/4"
u2 = "(u2 + 1)^2"

[operator]
J = "u1^2 + u2^2"
"""

#: example1 in the rarer forms of the game-file syntax: `key: value`, a
#: full-line `;` comment, comments after a header and after a value, an
#: indented continuation line inside an expression and a blank line inside
#: a value
SYNTAX_GAME = """\
; two coupled agents and a hand-tuned incentive pair
[agents]  # who plays
names: u1, u2

[costs]
u1 = "u1^2
    - 2*u1*u2"
u2: "u1*u2 - u2"   # linear in u2

[operator]
J = "(u1 - 3/4)^2

     + (u2 - 2)^2"

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]

[incentive]
kind = custom   # t.u1 and t.u2 below
mode: anticipatory
t.u1 = "u1^2"
t.u2 = "-1/2"
"""


#: a two-agent game on example1's box whose expressions take the parser's
#: rarer paths: trailing whitespace, a unary minus after `*` and before a
#: power, chained `/` and `^`, and a divisor constant only once expanded
PARSER_GAME = """\
[agents]
names = u1, u2

[costs]
u1 = "u1^2 - 2*u1*u2 + 2*-u1 + u1/2/3 \t "
u2 = "u1*u2 - u2 + u2^2^3/(u1 + 1 - u1)/100"

[operator]
J = "-u1^2 + 2*(u1 - 3/4)^2 + (u2 - 2)^2   "

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]

[incentive]
kind = vcg
"""


#: three agents whose lines have their vertex on a half step of the
#: 9-point grid (step 1/2) for some values of the others, and on a grid
#: point for the rest: grid minima that tie between two cells
HALF_STEP_GAME = """\
[agents]
names = u1, u2, u3

[costs]
u1 = "(u1 - 1/4)^2 + u1*u2/2"
u2 = "(u2 + 3/4)^2 - u2*u3/2 + u1*u3"
u3 = "u3^2 - u3/2 + u1^2"

[operator]
J = "(u1 - 3/4)^2 + (u2 + 1/4)^2 + (u3 - 5/4)^2 + u1*u3/2"

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]
u3 = [-2, 2]
"""


#: three agents whose operator objective is concave in u1 and convex in
#: u2: its candidate box keeps the first axis whole and narrows the others,
#: and its grid minimum is evaluated on that box
CONCAVE_U1_GAME = """\
[agents]
names = u1, u2, u3

[costs]
u1 = "u1^2 - u1*u2 + u3"
u2 = "(u2 - 1/3)^2 + u2*u3/2"
u3 = "u3^2/2 - u1*u3 + u2^2"

[operator]
J = "-(u1 - 1/2)^2 + u2^2 + (u3 + 1/2)^2 + u1*u2/4"

[bounds]
u1 = [-2, 2]
u2 = [-1, 2]
u3 = [-2, 1]
"""


#: three agents whose cross coefficients exceed their own curvature: no
#: sweep of the candidate box shrinks it, so every agent reads its full
#: table
STRONG_COUPLING_GAME = """\
[agents]
names = u1, u2, u3

[costs]
u1 = "u1^2 - 4*u1*u2"
u2 = "u2^2 + 4*u2*u3"
u3 = "u3^2 - 4*u1*u3 + u2/2"

[operator]
J = "(u1 - 1/2)^2 + (u2 + 1/4)^2 + u3^2 - u1*u3/4"

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]
u3 = [-2, 2]
"""


#: three agents and an operator whose vertices lie outside the action
#: bounds along some axes, so that those candidate ranges sit at an edge
CLIPPED_VERTEX_GAME = """\
[agents]
names = u1, u2, u3

[costs]
u1 = "(u1 - 3)^2 + u1*u2/4"
u2 = "(u2 + 5/2)^2 - u2*u3/4"
u3 = "u3^2 - u3*u1/2"

[operator]
J = "(u1 - 4)^2 + (u2 + 1/4)^2 + (u3 - 3)^2 + u1*u2/8"

[bounds]
u1 = [-2, 2]
u2 = [-1, 2]
u3 = [-2, 1]
"""


#: a first cost and an operator whose own square in u1 is too flat for the
#: margin: the candidate box keeps the first axis whole and narrows the
#: others
FLAT_SQUARE_GAME = """\
[agents]
names = u1, u2, u3

[costs]
u1 = "u1^2/2^44 - u1*u2/8 + u1/3"
u2 = "(u2 - 1/3)^2 + u2*u3/2"
u3 = "u3^2/2 - u1*u3/4 + u2^2"

[operator]
J = "u1^2/2^44 + u1/5 + u2^2 + (u3 + 1/2)^2 + u1*u2/4"

[bounds]
u1 = [-2, 2]
u2 = [-1, 2]
u3 = [-2, 1]
"""


#: a 3-agent quadratic game with an exact interior equilibrium whose
#: coefficients have large coprime denominators
COPRIME_GAME = """\
[agents]
names = u1, u2, u3

[costs]
u1 = "u1^2 + u1*u2/997 - u1*u3/991 + u1/983"
u2 = "u2^2 - u1*u2/983 + u2*u3/997 - u2/991"
u3 = "u3^2 + u1*u3/991 - u2*u3/983 + u3/997"

[operator]
J = "(u1 - 1/997)^2 + (u2 + 1/991)^2 + (u3 - 1/983)^2 + u1*u3/983"

[bounds]
u1 = [-1, 1]
u2 = [-1, 1]
u3 = [-1, 1]

[incentive]
kind = vcg
mode = anticipatory
"""


#: ``tests/test_solve_counts.py``'s one-way ``abs`` game with agent 1's
#: cost coupled to u2: its ``abs`` line is minimized at the 11 seeds in
#: one batch (a compiled scorer), then at the second sweep's u2 alone (a
#: tree walk).  The workloads' ``abs`` games are one-way, so each of their
#: ``abs`` lines is minimized alone
TWO_WAY_ABS_GAME = """\
[agents]
names = u1, u2

[costs]
u1 = "(9/8)*u1^2 + u1 + (5/4)*abs(u1 + 5/8) + (1/8)*u1*u2"
u2 = "(1/8)*u1*u2 + (1/2)*u2^2 + (1/2)*abs(u2 + 1)"

[operator]
J = "2*u1^2 + (1/8)*u1*u2 + u1 + (7/8)*u2^2 + (77/32)*u2 + 911/512"

[bounds]
u1 = [-2, 2]
u2 = [-2, 2]
"""


def vcg_game(n: int) -> str:
    """``tests/test_exact.py``'s ``vcg_game(n)``, compiled from that file's
    source alone, so the tool imports neither the tests' dependencies nor
    the package."""
    tree = ast.parse((ROOT / "tests" / "test_exact.py").read_text())
    node = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "vcg_game")
    namespace: dict = {}
    exec(compile(ast.Module([node], []), "test_exact.py", "exec"), namespace)
    return namespace["vcg_game"](n)


def build_requests(seeds: list[int], out: Path) -> list[dict]:
    """Every distinct request ({key, argv}) of every workload and seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    requests, seen = [], set()
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            manifest = workloads.build(
                workload, seed, workloads.request_count(workload, RUN_SECONDS),
                out / f"{workload}_{seed}")
            for req in manifest["requests"]:
                key = f"seed {seed} {workload}: {req['key']}"
                if key not in seen:
                    seen.add(key)
                    requests.append({"key": key, "argv": req["argv"]})
    return requests + front_end_requests(out)


def front_end_requests(out: Path) -> list[dict]:
    """Requests on the bundled games that take the text renderers of the
    equilibrium and oracle reports, the oracle on small grids, and the
    error paths; and requests on small games for the paths between: a
    cost whose float power overflows (Newton's re-check of a non-finite
    row), sampled curvature that overflows, a line with a subnormal top
    coefficient, grid minima that tie between two cells, on small and
    large grids, costs that are not polynomials, a grid minimum read on a
    box that keeps the first axis whole because its objective is not
    convex along it, and candidate boxes that stay whole (full tables),
    are clipped to an edge or are refused on an axis, at the default grid
    too; example1 written in the rarer forms of the game-file syntax,
    and with CRLF line ends and a byte-order mark; the exact
    elimination at 8 agents and on large coprime denominators; a sampled
    curvature check of 8x8 matrices; an ``abs``
    line minimized both in a batch and alone; and the parser's rarer
    paths, its unexpected-character error and a chain whose base holds a
    chain; and example1's costs under every incentive kind and mode."""
    games = sorted((ROOT / "games").glob("*.game"))
    argvs = [argv for game in games
             for argv in (["equilibrium", str(game)],
                          ["oracle", str(game), "--grid", "41"],
                          ["oracle", str(game), "--grid", "4"],
                          ["oracle", str(game), "--grid", "5"])]
    example = ROOT / "games" / "example1.game"
    text = example.read_text()
    bare = out / "no_incentive.game"
    bare.write_text(text[:text.index("[incentive]")])
    power = out / "power.game"
    power.write_text(bare.read_text().replace(
        '"u1^2 - 2*u1*u2"', '"u1^2 + u1^40"').replace(
        "u1 = [-2, 2]", "u1 = [-10^10, 10^10]"))
    steep = out / "steep.game"
    steep.write_text(STEEP_GAME)
    subnormal = out / "subnormal.game"
    subnormal.write_text(SUBNORMAL_GAME)
    syntax = out / "syntax.game"
    syntax.write_text(SYNTAX_GAME)
    half_step = out / "half_step.game"
    half_step.write_text(HALF_STEP_GAME)
    anticipatory = out / "example2_anticipatory.game"
    anticipatory.write_text((ROOT / "games" / "example2.game").read_text()
                            .replace("mode = non-anticipatory",
                                     "mode = anticipatory"))
    concave_u1 = out / "concave_u1.game"
    concave_u1.write_text(CONCAVE_U1_GAME)
    box_games = []
    for name, source in [("strong_coupling", STRONG_COUPLING_GAME),
                         ("clipped_vertex", CLIPPED_VERTEX_GAME),
                         ("flat_square", FLAT_SQUARE_GAME)]:
        box_games.append(out / f"{name}.game")
        box_games[-1].write_text(source)
    vcg8 = out / "vcg8.game"
    vcg8.write_text(vcg_game(8))
    vcg8_quartic = out / "vcg8_quartic.game"
    vcg8_quartic.write_text(vcg8.read_text().replace(
        ' + u1*u2/8"', ' + u1*u2/8 + u1^4/4"'))
    coprime = out / "coprime.game"
    coprime.write_text(COPRIME_GAME)
    two_way_abs = out / "two_way_abs.game"
    two_way_abs.write_text(TWO_WAY_ABS_GAME)
    parser_game = out / "parser.game"
    parser_game.write_text(PARSER_GAME)
    bad_character = out / "bad_character.game"
    bad_character.write_text(text.replace('"u1^2 - 2*u1*u2"',
                                          '"u1^2 - 2*u1*u2 ~ u2"'))
    nested_chain = out / "nested_chain.game"
    nested_chain.write_text(text.replace('"u1^2 - 2*u1*u2"',
                                         '"((u1 - 1/2)^2^2 + u2)^2"'))
    rule_games = []
    for kind in ("proportional", "vcg", "custom"):
        for mode in ("anticipatory", "non-anticipatory"):
            rule_games.append(out / f"example1_{kind}_{mode}.game")
            rule_games[-1].write_text(
                f"{bare.read_text()}[incentive]\nkind = {kind}\n"
                f"mode = {mode}\n" + (text[text.index("t.u1"):]
                                       if kind == "custom" else ""))
    crlf_bom = out / "crlf_bom.game"
    crlf_bom.write_bytes(b"\xef\xbb\xbf" + example.read_bytes().replace(
        b"\n", b"\r\n"))
    argvs += [
        ["equilibrium", str(example), "--scenario", "nowhere"],
        ["equilibrium", str(example), "--scenario", "optout:u9"],
        ["oracle", str(example), "--grid", "2"],
        ["oracle", str(example), "--grid", "10001"],
        ["equilibrium", str(bare), "--scenario", "incentive"],
        ["audit", str(out / "missing.game")],
        ["audit", str(power)],
        ["equilibrium", str(power)],
        ["oracle", str(power)],
        ["audit", str(steep), "--format", "structured"],
        ["equilibrium", str(subnormal)],
        ["audit", str(syntax)],
        ["audit", str(syntax), "--format", "structured"],
        ["oracle", str(half_step), "--grid", "9"],
        ["oracle", str(half_step), "--grid", "17"],
        ["oracle", str(anticipatory), "--grid", "41"],
        ["oracle", str(anticipatory)],
        ["oracle", str(concave_u1), "--grid", "101"],
        ["oracle", str(concave_u1), "--grid", "31"],
        *(["oracle", str(game), "--grid", grid]
          for game in box_games for grid in ("101", "31")),
        ["oracle", str(out / "strong_coupling.game")],
        ["oracle", str(out / "flat_square.game")],
        ["equilibrium", str(crlf_bom), "--scenario", "incentive"],
        ["audit", str(crlf_bom), "--format", "structured"],
        ["audit", str(vcg8), "--format", "structured"],
        ["audit", str(vcg8_quartic), "--format", "structured"],
        ["audit", str(coprime), "--format", "structured"],
        ["audit", str(two_way_abs), "--format", "structured"],
        ["audit", str(parser_game)],
        ["audit", str(parser_game), "--format", "structured"],
        ["audit", str(bad_character)],
        ["audit", str(nested_chain), "--format", "structured"],
        *(["audit", str(game), "--format", "structured", "--scenario", row]
          for game in rule_games for row in ("incentive", "optout:1")),
    ]
    return [{"key": "front end: " + " ".join(
        Path(a).name if a.endswith(".game") else a for a in argv),
        "argv": argv} for argv in argvs]


def run_child(checkout: Path, requests_file: Path) -> None:
    """Run every request on ``checkout``; print {key: [exit code, error,
    stdout digest]} as JSON."""
    sys.path.insert(0, str(checkout.resolve() / "perfbench"))
    import loop

    requests = json.loads(requests_file.read_text())
    _, _, rcs, errors, digests, _ = loop.run_requests(
        loop.import_program(), requests, None)
    json.dump({req["key"]: list(result) for req, result
               in zip(requests, zip(rcs, errors, digests))}, sys.stdout)


def run_checkout(checkout: Path, requests_file: Path) -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(checkout),
             str(requests_file)], env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{checkout}: child still running after "
                         f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode:
        raise SystemExit(f"{checkout}: child failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(parent: dict, change: dict) -> list[str]:
    """One line per key whose results differ, naming what differs."""
    lines = []
    for key in parent:
        a, b = parent[key], change.get(key)
        if a != b:
            parts = [name for name, x, y in
                     zip(("exit code", "error", "stdout"), a, b or [None] * 3)
                     if x != y]
            lines.append(f"{key}: {', '.join(parts)}")
    return lines


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        run_child(Path(sys.argv[2]), Path(sys.argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        requests = build_requests(args.seeds, Path(tmp))
        requests_file = Path(tmp) / "requests.json"
        requests_file.write_text(json.dumps(requests))
        parent = run_checkout(args.parent, requests_file)
        change = run_checkout(args.change, requests_file)

    differ = compare(parent, change)
    for line in differ:
        print(line)
    per_seed = ", ".join(
        f"{sum(req['key'].startswith(f'seed {s} ') for req in requests)} at "
        f"seed {s}" for s in args.seeds)
    front_end = sum(req["key"].startswith("front end: ") for req in requests)
    codes = sorted({str(rc) for rc, _, _ in change.values()})
    print(f"{len(requests)} distinct requests ({per_seed}, {front_end} "
          f"front-end); exit codes of "
          f"CHANGE: {', '.join(codes)}; {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
