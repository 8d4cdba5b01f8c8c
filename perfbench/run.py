"""Audit benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload bundled|smooth|nonsmooth|oracle|all
                             --seed N --seconds S --trace 0|1

Each workload runs in its own child process (``loop.py``), one after
another: a closed loop with one caller, no extra threads, each request one
in-process call of ``incentive_audit.cli.main`` on a generated or bundled
game file.  The run issues a fixed number of requests per seed, sized to
last about ``--seconds`` (see ``workloads.RATE``).

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json;
``--trace 1`` is the separate traced run that gives the per-layer ones.
``--workload all`` runs every workload, and with ``--trace 1`` both runs of
each, reporting the tracing overhead as the traced minus the untraced
throughput.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a report and the
environment record go to ``perfbench/out/<workload>/``.

All timings are in-process ``perf_counter`` wall-clock timers, reported
at the reference host speed (see ``loop.py``: a fixed pure-Python probe,
timed around the requests, gives each its scale); the raw wall-clock
figures are printed and kept in the result file too.  No hardware
counters, system-wide tracing, cache dropping or cgroup changes are used.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from loop import probe, reference_scale  # noqa: E402

OUT = HERE / "out"

#: fresh interpreters timed for setup_s, after one untimed warm-up that
#: leaves the bytecode cache written
SETUP_RUNS = 7

#: one process, no extra threads: keep numpy's BLAS pool at one thread
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

CHILD_TIMEOUT_S = 170

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from incentive_audit import cli
cli.load_game_file(sys.argv[2])
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "absent: the numba kernel backend is not measured"
        if importlib.util.find_spec("numba") is None else "present",
        "timers": "in-process perf_counter wall clock; no hardware counters,"
                  " system-wide tracing, cache dropping or cgroup changes",
        "waiting": "single-threaded with no queues: no layer waits, so no "
                   "wait times are reported",
    }


def measure_setup(game_file: str) -> tuple[list[float], list[float]]:
    """Cold start: interpreter start, ``import incentive_audit.cli`` and
    loading the workload's first game file, in a fresh process each.
    Returns the wall times and their reference scales."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), game_file]
    times, scales = [], []
    before = probe()
    for k in range(SETUP_RUNS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, env=_child_env(),
                       timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - t0
        after = probe()
        if k:
            times.append(elapsed)
            scales.append(reference_scale(before, after))
        before = after
    return times, scales


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it (nearest rank), and that percentile; the maximum when a run has
    fewer than eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n >= 11 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    out_dir = OUT / workload
    shutil.rmtree(out_dir / "games", ignore_errors=True)
    count = workloads.request_count(workload, seconds)
    manifest = workloads.build(workload, seed, count, out_dir / "games")
    result: dict = {"workload": workload, "seed": seed, "trace": int(trace)}
    if not trace:
        first_game = manifest["requests"][0]["argv"][1]
        result["setup_runs_s"], result["setup_scales"] = \
            measure_setup(first_game)
    spans = out_dir / "spans.npz"
    child = subprocess.run(
        [sys.executable, str(HERE / "loop.py"),
         str(out_dir / "games" / "manifest.json"), "--trace", str(int(trace)),
         "--spans", str(spans)],
        capture_output=True, text=True, env=_child_env(),
        timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"{workload} child failed:\n{child.stderr}")
    measured = json.loads(child.stdout.strip().splitlines()[-1])
    result.update(measured)
    result["rounds"] = [req["round"] for req in manifest["requests"]]
    if trace:
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def _scaled(times: list[float], scales: list[float] | None) -> list[float]:
    return times if scales is None else [t * s for t, s in zip(times, scales)]


def throughput(rounds: list[int], latencies: list[float]) -> float:
    """Median over the run's rounds of requests per second of busy time;
    a round is one copy of the workload's fixed mix, and the median keeps
    a burst of load from other processes to one round."""
    busy: dict[int, list[float]] = {}
    for r, lat in zip(rounds, latencies):
        busy.setdefault(r, []).append(lat)
    return statistics.median(len(v) / sum(v) for v in busy.values())


def end_to_end(result: dict, raw: bool = False) -> tuple[dict, float]:
    """The end-to-end metrics at the reference host speed, or in raw wall
    time; also the percentile of the tail latency."""
    lat = _scaled(result["latencies"], None if raw else result["scales"])
    setup = _scaled(result["setup_runs_s"],
                    None if raw else result["setup_scales"])
    tail_s, tail_pct = tail(lat)
    return {
        "throughput_rps": (throughput(result["rounds"], lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "fail_ratio": (len(result["failures"]) / len(lat), "ratio"),
    }, tail_pct


def layer_report(result: dict) -> dict:
    layers = {k: (v["value"], v["unit"]) for k, v in result["layers"].items()}
    layers["trace.throughput_rps"] = (
        throughput(result["rounds"],
                   _scaled(result["latencies"], result["scales"])), "1/s")
    return layers


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict, declared: dict) -> dict:
    """Print the human-readable report; return the metrics of the result
    line (exactly the declared ones)."""
    w, n = result["workload"], len(result["latencies"])
    print(f"workload {w}: seed {result['seed']}, {n} requests, closed loop "
          f"with one caller, trace {result['trace']}")
    raw: dict = {}
    if result["trace"]:
        metrics = layer_report(result)
        names = declared["per_layer"]
    else:
        metrics, tail_pct = end_to_end(result)
        raw, _ = end_to_end(result, raw=True)
        result["raw_metrics"] = {k: {"value": v, "unit": u}
                                 for k, (v, u) in raw.items()}
        names = declared["end_to_end"] + ["fail_ratio"]
    for name in names:
        value, unit = metrics[name]
        note = ""
        if name in raw and raw[name] != metrics[name]:
            note += f"  (wall clock {_fmt(raw[name][0])})"
        if name == "latency_tail_ms":
            note += (f"  (p{tail_pct:.4g} of {n} samples, "
                     f"{n - round(tail_pct * n / 100)} beyond)")
        elif name == "setup_s":
            note += f"  (median of {SETUP_RUNS} fresh interpreters)"
        elif name == "fail_ratio":
            note += f"  ({len(result['failures'])} of {n} failed)"
        print(f"  {name:<40} {_fmt(value):>14} {unit}{note}")
    env = environment()
    print("  environment: " + ", ".join(f"{k} {env[k]}" for k in
                                        ("nproc", "cpu_model", "python",
                                         "numpy", "numba")))
    for failure in result["failures"][:20]:
        print(f"  FAILED request {failure['request']} ({failure['key']}): "
              f"{'; '.join(failure['problems'])}")
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    result["environment"] = env
    out = OUT / w / f"result-trace{result['trace']}.json"
    out.write_text(json.dumps(
        {k: v for k, v in result.items() if k != "layers"}, indent=1))
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names if name != "fail_ratio"}


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]]}


def check_checkout() -> None:
    """Refuse to run without the program's sources and bundled games."""
    missing = [p for p in (ROOT / "src" / "incentive_audit" / "cli.py",
                           ROOT / "games", ROOT / "BENCHMARK.json")
               if not p.exists()]
    if missing:
        raise SystemExit("not a checkout of the program: missing "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_checkout()
    declared = declared_metrics()

    chosen = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    traces = [False, True] if args.workload == "all" and args.trace \
        else [bool(args.trace)]
    attempted = failed = 0
    metrics: dict = {}
    throughput: dict = {}
    for w in chosen:
        for trace in traces:
            result = run_workload(w, args.seed, args.seconds, trace)
            attempted += len(result["latencies"])
            failed += len(result["failures"])
            got = report(result, declared)
            throughput[(w, trace)] = result["metrics"].get(
                "trace.throughput_rps" if trace else "throughput_rps")
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
        if len(traces) == 2:
            overhead = throughput[(w, True)]["value"] \
                - throughput[(w, False)]["value"]
            print(f"  tracing overhead on {w}: traced minus untraced "
                  f"throughput = {_fmt(overhead)} 1/s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
