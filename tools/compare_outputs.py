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
coefficient, and example1 in the rarer forms of the game-file syntax.

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
    too; and example1 written in the rarer forms of the game-file
    syntax, and with CRLF line ends and a byte-order mark."""
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
    for name, text in [("strong_coupling", STRONG_COUPLING_GAME),
                       ("clipped_vertex", CLIPPED_VERTEX_GAME),
                       ("flat_square", FLAT_SQUARE_GAME)]:
        box_games.append(out / f"{name}.game")
        box_games[-1].write_text(text)
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
