"""Outside tracer: spans around the program's public functions.

The tracer wraps each listed function in every ``incentive_audit.*``
module namespace that binds it, the defining module included, so calls
made inside the package (``nash_equilibrium -> verify_nash``) are caught as
well as calls from outside.  Recursive functions record their outermost
call only: the wrapper calls a copy whose recursive calls reach the copy
itself, so inner calls cost nothing extra.  Each span keeps its label, start, end, parent span and request
id; spans stay in memory and are written once, when the run ends.

The program is single-threaded and has no queues, so no layer ever waits:
the layer metrics are counts and busy times only.
"""

from __future__ import annotations

import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

#: (module, function, recursive) for every traced public function
TRACED = (
    ("cli", "main", False),
    ("gamefile", "load_game_file", False),
    ("expr.parser", "parse", False),
    ("expr.polynomial", "as_polynomial", True),
    ("expr.polynomial", "hessian", False),
    ("expr.nodes", "evaluate", True),
    ("expr.nodes", "diff", True),
    ("solve.linesearch", "line_minimum_at", False),
    ("solve.solvers", "minimize_operator", False),
    ("solve.solvers", "nash_equilibrium", False),
    ("solve.solvers", "verify_nash", False),
    ("solve.solvers", "best_response", False),
    ("solve.solvers", "hessian_pd_check", False),
    ("solve.solvers", "diagonal_strict_convexity_check", False),
    ("solve.exact", "solve_linear", False),
    ("solve.kernels", "poly_grid_eval", False),
    ("solve.kernels", "pure_nash_mask", False),
    ("solve.oracle", "grid_nash_oracle", False),
    ("solve.oracle", "grid_minimum", False),
    ("solve.oracle", "eval_array", True),
    ("incentive", "realized_outcome", False),
    ("incentive", "vcg_incentive", False),
    ("incentive", "opt_out_equilibrium", False),
    ("incentive", "materialize", False),
    ("audit", "full_audit", False),
    ("report", "audit_document", False),
    ("report", "to_json", False),
    ("report", "render_audit_text", False),
)

#: every public ``check_*`` function of the audit module is traced too
CHECK_PREFIX = "check_"

PACKAGE = "incentive_audit"


def _label(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def _kernel_size(args, result) -> tuple[int, int]:
    """Grid cells of a kernel call, and the bytes of its input and output
    arrays (computed from the array sizes, not measured)."""
    nbytes = result.nbytes
    for a in args:
        arrays = a if isinstance(a, (list, tuple)) else [a]
        nbytes += sum(x.nbytes for x in arrays if isinstance(x, np.ndarray))
    return int(result.size), int(nbytes)


def _list_length(args, result) -> tuple[int, int]:
    return len(result), 0


#: per-label result measures: (items, bytes) recorded on the span
_MEASURES = {
    "solvers.nash_equilibrium": _list_length,
    "kernels.poly_grid_eval": _kernel_size,
    "kernels.pure_nash_mask": _kernel_size,
}


def _self_recursive(fn):
    """A copy of ``fn`` whose calls to its own name reach the copy.

    The copy reads a snapshot of its module's globals, which this package
    never rebinds after import.
    """
    scope = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, scope, fn.__name__,
                              fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    scope[fn.__name__] = copy
    return copy


class Tracer:
    """Span recorder; install() patches the imported package in place."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.label = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.items = array("q")
        self.nbytes = array("q")
        self.stack: list[int] = []
        self.request_id = -1

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        targets = [(f"{PACKAGE}.{m}", f, r) for m, f, r in TRACED]
        audit = modules[f"{PACKAGE}.audit"]
        targets += [(audit.__name__, name, False) for name in vars(audit)
                    if name.startswith(CHECK_PREFIX)
                    and callable(getattr(audit, name))]
        for module, func, recursive in targets:
            original = getattr(modules[module], func)
            inner = _self_recursive(original) if recursive else original
            wrapper = self._wrap(_label(module, func), inner)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def _wrap(self, label: str, fn):
        lid = len(self.labels)
        self.labels.append(label)
        measure = _MEASURES.get(label)
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.end.append(0.0)
            self.label.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.items.append(-1)
            self.nbytes.append(0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.items[idx], self.nbytes[idx] = measure(args, result)
                return result
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (the recorder keeps appending)."""
        return {name: np.array(getattr(self, name)) for name in
                ("start", "end", "label", "parent", "request", "items",
                 "nbytes")}

    def write(self, path: Path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _group_total(spans: dict, dur: np.ndarray, lids: set[int]) -> float:
    """Seconds covered by the spans of a label group: spans nested inside
    another span of the same group count once, through the outer one."""
    label, parent = spans["label"], spans["parent"]
    total = 0.0
    for idx in np.flatnonzero(np.isin(label, list(lids))):
        p = parent[idx]
        while p >= 0 and label[p] not in lids:
            p = parent[p]
        if p < 0:
            total += dur[idx]
    return total


def layer_metrics(labels: list[str], spans: dict,
                  scales: list[float]) -> dict:
    """Per-request counts and milliseconds, keyed by metric name; each
    span's duration is scaled by the reference scale of its request."""
    label = spans["label"]
    requests = len(scales)
    dur = (spans["end"] - spans["start"]) * np.asarray(scales)[spans["request"]]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    self_time = dur - covered
    n_labels = len(labels)
    calls = np.bincount(label, minlength=n_labels)
    total = np.bincount(label, weights=dur, minlength=n_labels)
    selfs = np.bincount(label, weights=self_time, minlength=n_labels)
    lid = {name: k for k, name in enumerate(labels)}

    def per_req(x: float) -> float:
        return float(x) / requests

    out: dict[str, tuple[float, str]] = {}
    for name, k in lid.items():
        out[f"{name}.calls"] = (per_req(calls[k]), "count")
        out[f"{name}.total_ms"] = (per_req(total[k]) * 1e3, "ms")
        out[f"{name}.self_ms"] = (per_req(selfs[k]) * 1e3, "ms")

    nash = label == lid["solvers.nash_equilibrium"]
    out["solvers.nash_equilibrium.empty"] = (
        per_req(np.count_nonzero(spans["items"][nash] == 0)), "count")
    verify_calls = calls[lid["solvers.verify_nash"]]
    returned = int(spans["items"][nash].sum())
    out["solvers.equilibria_per_verify"] = (
        returned / verify_calls if verify_calls else 0.0, "ratio")

    curvature = {lid["solvers.hessian_pd_check"],
                 lid["solvers.diagonal_strict_convexity_check"]}
    out["solvers.curvature.total_ms"] = (
        per_req(_group_total(spans, dur, curvature)) * 1e3, "ms")
    checks = {k for name, k in lid.items()
              if name.startswith("audit." + CHECK_PREFIX)}
    out["audit.checks.total_ms"] = (
        per_req(_group_total(spans, dur, checks)) * 1e3, "ms")

    kernel = np.isin(label, [lid["kernels.poly_grid_eval"],
                             lid["kernels.pure_nash_mask"]])
    kernel_s = float(dur[kernel].sum())
    cells = float(spans["items"][kernel].sum())
    out["kernels.cells_per_s"] = (cells / kernel_s if kernel_s else 0.0,
                                  "1/s")
    out["kernels.bytes_computed"] = (
        per_req(spans["nbytes"][kernel].sum()), "B")
    return out
