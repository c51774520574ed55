"""Rewrite pinned.json from one pass of every workload at the default seed.

    python3 perfbench/pin.py

A pin is the digest of a call's exact output (report JSON, optimum and
weights).  Calls whose inputs do not depend on the seed are checked against
their pin at every seed; the others only at the default seed.  Re-pin only
in a change that means to alter a verdict, witness, tie-break or optimum,
and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    pins = {}
    for workload in workloads.WORKLOADS:
        record = run.measure(workload, run.DEFAULT_SEED, 0, False, pinned={})
        if record["failed"]:
            print(f"{workload}: failed calls, nothing pinned", file=sys.stderr)
            return 1
        pins.update({c["label"]: c["digest"] for c in record["calls"][0]})
    run.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} calls in {run.PINNED.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
