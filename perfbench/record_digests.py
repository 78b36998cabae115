#!/usr/bin/env python3
"""Record the reference digests: SHA-256 of VerificationReport.to_json() for
every sweep of every workload, swept at jobs=1 by the code in this checkout.

    python3 perfbench/record_digests.py

Run it only on code whose reports are known to be right: the benchmark
treats any later difference as an error.
"""

from __future__ import annotations

import json
import sys
import time

from run import DIGESTS, run_pass
from workloads import WORKLOADS


def main() -> int:
    sweeps = {s.key: s for w in WORKLOADS.values() for s in w.sweeps}
    result = run_pass(list(sweeps.values()), 1, "plain", time.monotonic() + 600)
    errors = [s for s in result["sweeps"] if "error" in s]
    if errors:
        print(f"error: sweeps raised: {errors}", file=sys.stderr)
        return 1
    digests = {s["key"]: s["digest"] for s in result["sweeps"]}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
