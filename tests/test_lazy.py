"""numpy is imported on first use: the exact paths never load it."""

import subprocess
import sys
from pathlib import Path

import numpy

import incentive_audit
from incentive_audit.cli import main
from incentive_audit.expr import compiled, polynomial
from incentive_audit.solve import kernels, linesearch, oracle, solvers

from conftest import GAMES_DIR

SRC = str(Path(incentive_audit.__file__).resolve().parents[1])

#: audits and equilibria of two exact games, then one oracle request
CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from incentive_audit.cli import main
for game in sys.argv[2:]:
    for argv in (["audit", game], ["audit", game, "--format", "structured"],
                 ["equilibrium", game]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("numpy.")))
sys.exit(main(["oracle", sys.argv[-1]]))
"""


def test_exact_paths_never_load_numpy(capsys):
    games = [str(GAMES_DIR / f"{g}.game") for g in ("decoupled_demo", "example2")]
    proc = subprocess.run([sys.executable, "-c", CHILD, SRC, *games],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, out = proc.stdout.split("\n", 1)
    assert loaded == "[]"
    # the first numpy use loads it, and the oracle reads as in this process
    assert main(["oracle", games[-1]]) == 0
    assert out == capsys.readouterr().out


def test_numpy_already_imported_is_bound_itself():
    for module in (compiled, polynomial, solvers, linesearch, kernels, oracle):
        assert module.np is numpy


def test_missing_numpy_fails_at_import():
    # -I -S: no site-packages, so no numpy
    code = ("import importlib.util, sys; sys.path.insert(0, sys.argv[1]); "
            "assert importlib.util.find_spec('numpy') is None; "
            "import incentive_audit")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, SRC],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ModuleNotFoundError: No module named 'numpy'")
