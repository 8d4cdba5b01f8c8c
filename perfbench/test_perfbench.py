"""Self-test of the benchmark (not part of the program's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that the generator is deterministic per seed, that one small request
per workload passes its output checks, that two traced runs of one seed
give identical per-layer counts (the reference solve counts included), and
that BENCHMARK.json names only metrics the benchmark produces.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

#: solve counts of one structured audit of the bundled games, as measured
#: by the traced run when the benchmark was defined; they show the repeated
#: optimum and equilibrium solves a single audit makes
REFERENCE_COUNTS = {
    "example1": {"solvers.minimize_operator": 2,
                 "solvers.nash_equilibrium": 4, "solvers.verify_nash": 56},
    "example3_case1": {"solvers.minimize_operator": 3,
                       "solvers.nash_equilibrium": 5, "solvers.verify_nash": 5},
    "example3_case2": {"solvers.minimize_operator": 3,
                       "solvers.nash_equilibrium": 5, "solvers.verify_nash": 5},
}


def _small_manifest(workload: str, tmp: Path, keep) -> Path:
    manifest = workloads.build(workload, 7, 1, tmp)
    manifest["requests"] = [r for k, r in enumerate(manifest["requests"])
                            if keep(k, r)]
    path = tmp / "small.json"
    path.write_text(json.dumps(manifest))
    return path


def _loop(manifest: Path, trace: int, spans: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "loop.py"), str(manifest),
         "--trace", str(trace), "--spans", str(spans)],
        capture_output=True, text=True, env=run._child_env(), check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _per_request_counts(spans: Path) -> list[dict[str, int]]:
    data = np.load(spans)
    labels = list(data["labels"])
    out = []
    for req in range(int(data["request"].max()) + 1):
        mask = data["request"] == req
        counts = np.bincount(data["label"][mask], minlength=len(labels))
        out.append(dict(zip(labels, counts.tolist())))
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        texts = []
        for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
            d = tmp_path / workload / sub
            manifest = workloads.build(workload, seed, 1, d)
            files = {p.name: p.read_text() for p in d.glob("*.game")}
            texts.append(([r["key"] for r in manifest["requests"]],
                          manifest["games"], files))
        assert texts[0] == texts[1], workload
        assert texts[0] != texts[2], workload


SMALL = {
    "bundled": lambda k, r: r["args"][0] == "audit",
    "smooth": lambda k, r: k < 2,
    "nonsmooth": lambda k, r: "_abs_" in r["game"] and k < 4,
    "oracle": lambda k, r: k < 2,
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_requests_pass_their_checks(tmp_path, workload):
    manifest = _small_manifest(workload, tmp_path, SMALL[workload])
    result = _loop(manifest, 0, tmp_path / "spans.npz")
    assert result["latencies"]
    assert result["failures"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(tmp_path, workload):
    manifest = _small_manifest(workload, tmp_path, SMALL[workload])
    counts = []
    for k in range(2):
        spans = tmp_path / f"spans{k}.npz"
        result = _loop(manifest, 1, spans)
        assert result["failures"] == []
        layer_counts = {name: m["value"] for name, m in
                        result["layers"].items()
                        if not name.endswith(("_ms", "_per_s"))}
        counts.append((layer_counts, _per_request_counts(spans)))
    assert counts[0] == counts[1]
    if workload == "bundled":
        requests = json.loads(manifest.read_text())["requests"]
        for req, per_request in zip(requests, counts[0][1]):
            want = REFERENCE_COUNTS.get(req["game"])
            if want and "structured" in req["args"]:
                got = {name: per_request[name] for name in want}
                assert got == want, req["key"]


def test_benchmark_json_names_produced_metrics():
    declared = run.declared_metrics()
    fake = {"latencies": [0.01] * 20, "scales": [1.0] * 20,
            "rounds": [0] * 20, "peak_rss_kb": 1024, "failures": [],
            "setup_runs_s": [0.2], "setup_scales": [1.0]}
    e2e, _ = run.end_to_end(fake)
    assert set(declared["end_to_end"]) <= set(e2e)
    spans = {name: np.zeros(0, dtype=np.int64) for name in
             ("label", "parent", "request", "items", "nbytes")}
    spans.update(start=np.zeros(0), end=np.zeros(0))
    import tracer

    labels = [tracer._label(f"incentive_audit.{m}", f)
              for m, f, _ in tracer.TRACED]
    labels += ["audit.check_budget_balance"]
    fake["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in
                      tracer.layer_metrics(labels, spans, [1.0]).items()}
    assert set(declared["per_layer"]) <= set(run.layer_report(fake))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bundled",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
