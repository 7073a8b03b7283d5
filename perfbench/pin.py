"""Rewrite ``pinned_seed0.json``: the per-trial outcome digests of workload seed 0.

Usage (from the repository root): ``python3 perfbench/pin.py``.

Run it only when a change alters trial outcomes on purpose (for example a
deliberate seed-derivation break); the benchmark fails every trial of seed 0
whose digest differs from the pinned one.
"""

from __future__ import annotations

import json
import time

from common import BLOCKS, WORKLOADS
from run import PINNED, PINNED_SEED, run_pass


def main() -> None:
    pinned = {}
    for workload in WORKLOADS:
        pinned[workload] = []
        for block in range(BLOCKS):
            result = run_pass(workload, PINNED_SEED, block, False, time.monotonic() + 600.0)
            errors = [record["error"] for record in result["trials"] if record["error"]]
            if errors:
                raise SystemExit(f"{workload} block {block}: trials raised, nothing pinned: {errors[:3]}")
            pinned[workload].append([record["digest"] for record in result["trials"]])
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
