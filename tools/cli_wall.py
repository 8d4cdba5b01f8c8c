"""Fresh-process CLI wall time: each bundled game on two checkouts.

    python3 tools/cli_wall.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository (a ``git clone`` or
``git archive`` of each commit).  For every game in this repository's
``games/`` and each of the commands ``audit --format structured``,
``equilibrium`` and ``oracle``, both checkouts run
``python -m incentive_audit.cli`` in a new process, with the environment
of ``compare_outputs.py``'s children and ``PYTHONDONTWRITEBYTECODE=1``: no
``__pycache__`` is written into either checkout, so on fresh checkouts
every run compiles the package from source (numpy and the standard
library read their installed caches).  The figures in README.md and
ROADMAP.md were taken this way.  One untimed run per side and command
comes first, so both sides are timed with their files in the OS cache;
then ``PAIRS`` pairs of timed runs follow, alternating which side runs
first.  A child still running after ``CHILD_TIMEOUT_S`` is killed and
stops the tool.

Each command prints both sides' median wall time with its quartiles, and
whether exit code and standard output are the same on both sides.  The
exit status is 1 if any command differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_outputs import CHILD_ENV  # noqa: E402

PAIRS = 10

#: the children write no bytecode cache, so every run compiles the package
ENV = {**CHILD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}

CHILD_TIMEOUT_S = 60

COMMANDS = (("audit", "--format", "structured"), ("equilibrium",),
            ("oracle",))


def run(checkout: Path, argv: list[str]) -> tuple[float, tuple[int, str]]:
    """Wall time of one fresh CLI process, and its (exit code, stdout)."""
    env = dict(os.environ)
    env.update(ENV)
    env["PYTHONPATH"] = str(checkout.resolve() / "src")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "incentive_audit.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, (proc.returncode, proc.stdout)


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"{median:.3f} ({q1:.3f}-{q3:.3f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    sides = (args.parent, args.change)

    print(f"{'command':<46} {'PARENT s (q1-q3)':<22} "
          f"{'CHANGE s (q1-q3)':<22} output")
    differ = 0
    for game in sorted((ROOT / "games").glob("*.game")):
        for command in COMMANDS:
            argv = [command[0], str(game), *command[1:]]
            outputs = [run(side, argv)[1] for side in sides]
            times: tuple[list[float], list[float]] = ([], [])
            for k in range(PAIRS):
                for s in ((0, 1) if k % 2 == 0 else (1, 0)):
                    times[s].append(run(sides[s], argv)[0])
            same = outputs[0] == outputs[1]
            differ += not same
            name = " ".join([command[0], game.stem, *command[1:]])
            print(f"{name:<46} {summary(times[0]):<22} "
                  f"{summary(times[1]):<22} {'same' if same else 'DIFFERS'}",
                  flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
