"""Record the digests of the bundled structured outputs in digests.json.

    python3 perfbench/record_digests.py

Run only when a change to the structured reports is intended; the
benchmark's ``bundled`` workload fails any request whose structured output
no longer matches the recorded digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import checks
import loop
import workloads


def main() -> None:
    cli = loop.import_program()
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        # two rounds are enough to hold every distinct bundled request
        manifest = workloads.build("bundled", 0, 200, Path(tmp))
    digests = {}
    for req in manifest["requests"]:
        if "structured" not in req["args"] or req["key"] in digests:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(req["argv"])
        if rc != 0:
            raise SystemExit(f"{req['key']} exited with {rc}")
        digests[req["key"]] = checks.digest(out.getvalue())
    checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                              + "\n")


if __name__ == "__main__":
    main()
