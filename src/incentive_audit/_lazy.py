"""numpy, imported on first use.

``np`` is the numpy module.  When numpy is not imported yet, it is bound
through ``importlib.util.LazyLoader``: numpy's own import runs at the first
attribute access, so importing the package and loading a game file never
pay for it, and the exact paths that never touch ``np`` never load it.
When numpy is already in ``sys.modules``, ``np`` is that module itself.

A missing numpy still fails here, at import, with ``ModuleNotFoundError``.
``LazyLoader`` is not thread-safe before Python 3.12; the program runs one
thread.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy(name: str) -> ModuleType:
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
