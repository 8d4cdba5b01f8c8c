"""Every function the benchmark's tracer wraps exists in the package.

``perfbench/tracer.py`` wraps package functions by name, and a name it
cannot find fails only when a traced benchmark run starts
(``perfbench/run.py --trace 1``).  This reads its ``TRACED`` table,
without importing or changing the file, and resolves every entry.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_constants() -> dict:
    """The module-level literal assignments of the tracer."""
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return out


CONSTANTS = _tracer_constants()


@pytest.mark.parametrize(
    "module, func", [(m, f) for m, f, _ in CONSTANTS["TRACED"]])
def test_traced_function_resolves(module, func):
    mod = importlib.import_module(f"{CONSTANTS['PACKAGE']}.{module}")
    assert callable(getattr(mod, func, None)), f"{module}.{func} is gone"


def test_audit_has_check_functions():
    audit = importlib.import_module(f"{CONSTANTS['PACKAGE']}.audit")
    assert any(name.startswith(CONSTANTS["CHECK_PREFIX"])
               and callable(getattr(audit, name)) for name in vars(audit))
