"""Closed-loop client for one workload, run in a child process of run.py.

One caller issues the manifest's requests one after another, each an
in-process call of the public CLI entry point ``incentive_audit.cli.main``,
and waits for each before sending the next.  Latency is the wall time of
that call, parse and rendering included.  Outputs are kept as digests
(plus the first text per request key), checked after the loop so that
checking never counts as request time.

The reference machine, a shared 2-core VM, drifts in speed by up to 2-3x
within minutes.  So between requests, at least every PROBE_EVERY_S of
request time, the loop times a fixed pure-Python probe.  Each request gets
a scale, PROBE_REFERENCE_S over the mean of the probes around it, which
converts its wall time to the reference host speed.  Raw wall times are
reported as well.

    python3 perfbench/loop.py MANIFEST --trace 0|1 --spans PATH

Prints one JSON object with the raw measurements on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

#: seconds the probe takes at the reference host speed (the unit scale)
PROBE_REFERENCE_S = 0.002

#: request time between two probes
PROBE_EVERY_S = 0.2


def probe() -> float:
    """Host speed: the best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for i in range(30000):
            total += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def reference_scale(before: float, after: float) -> float:
    """Factor from wall time to time at the reference host speed."""
    return PROBE_REFERENCE_S / ((before + after) / 2)


def import_program():
    """Import the CLI from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from incentive_audit import cli
    except ImportError as exc:
        raise SystemExit(f"cannot import incentive_audit from {src}: {exc}")
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"incentive_audit was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def run_requests(cli, requests: list[dict], trace: tracer.Tracer | None):
    """Issue every request in order; return (latencies, scales, rcs,
    errors, digests, first text per key)."""
    latencies, scales, rcs, errors, digests = [], [], [], [], []
    first: dict[str, str] = {}
    before, pending = probe(), 0
    for k, req in enumerate(requests):
        if trace is not None:
            trace.request_id = k
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(req["argv"])
            except Exception:  # a crash is a failed request, not a stop
                rc, error = None, traceback.format_exc(limit=3)
            latencies.append(perf_counter() - t0)
        pending += 1
        if sum(latencies[-pending:]) >= PROBE_EVERY_S or k == len(requests) - 1:
            after = probe()
            scales += [reference_scale(before, after)] * pending
            before, pending = after, 0
        text = out.getvalue()
        rcs.append(rc)
        errors.append(error or (err.getvalue() or None))
        digests.append(checks.digest(text))
        first.setdefault(req["key"], text)
    return latencies, scales, rcs, errors, digests, first


def check_outputs(manifest: dict, rcs, errors, digests, first) -> list[dict]:
    """One entry per failed request: a crash, a nonzero exit, output that
    differs from an earlier run of the same request, or a failed check."""
    requests = manifest["requests"]
    bundled = manifest["workload"] == "bundled"
    reference = checks.load_digests() if bundled else None
    verdicts: dict[str, list[str]] = {}
    first_digest: dict[str, str] = {}
    failures = []
    for k, req in enumerate(requests):
        key = req["key"]
        if rcs[k] != 0:
            problems = [f"exit code {rcs[k]}: {(errors[k] or '').strip()}"]
        elif first_digest.setdefault(key, digests[k]) != digests[k]:
            problems = ["output differs from an earlier run of this request"]
        else:
            if key not in verdicts:
                try:
                    verdicts[key] = (
                        checks.check_bundled(req, first[key], reference)
                        if bundled else checks.check_generated(
                            manifest["games"][req["game"]], req, first[key]))
                except (KeyError, ValueError, TypeError, IndexError) as exc:
                    verdicts[key] = [f"unreadable output: {exc!r}"]
            problems = verdicts[key]
        if problems:
            failures.append({"request": k, "key": key, "problems": problems})
    return failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    manifest = json.loads(args.manifest.read_text())
    cli = import_program()
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        trace.install()

    latencies, scales, rcs, errors, digests, first = run_requests(
        cli, manifest["requests"], trace)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check_outputs(manifest, rcs, errors, digests, first)

    result = {"latencies": latencies, "scales": scales,
              "peak_rss_kb": peak_rss_kb, "failures": failures}
    if trace is not None:
        if args.spans is not None:
            trace.write(args.spans)
        layers = tracer.layer_metrics(trace.labels, trace.arrays(), scales)
        result["layers"] = {name: {"value": v, "unit": u}
                            for name, (v, u) in layers.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
