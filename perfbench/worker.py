"""One cold pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays what one CLI
invocation pays: interpreter start, imports, an empty in-memory
``ResultCache`` and empty process-level caches (``small_bias._STREAM_STATES``).
The pass builds one block of the workload's trial list, runs every trial once under
``SerialBackend`` and prints one JSON object on its last stdout line:

* ``setup_s`` — from the parent's spawn timestamp (``--spawned``, a
  ``time.monotonic()`` reading, which is system-wide on Linux) until the first
  trial is ready;
* ``loop_s`` — wall clock of the whole trial loop;
* ``peak_rss_mb`` — ``ru_maxrss`` of this process;
* ``trials`` — per trial: cell, target noise fraction, seconds, outcome digest,
  the outcome fields the metrics need, and any exception raised;
* ``ledger`` — per-layer busy seconds and work counts (``--trace`` only).

Usage: ``PYTHONPATH=src python3 perfbench/worker.py --workload table1 --seed 0
--block 0 --spawned <monotonic seconds> [--trace]``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def outcome_digest(metrics) -> str:
    """Digest of every outcome field of a trial's ``RunMetrics``."""
    payload = json.dumps(metrics.to_payload(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--block", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.runtime import ResultCache, SerialBackend, use_runtime

    import workloads

    ledger = None
    if args.trace:
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    trials = workloads.build_trials(args.workload, args.seed, args.block)

    records = []
    with use_runtime(backend=SerialBackend(), cache=ResultCache()):
        setup_s = time.monotonic() - args.spawned
        if ledger is not None:
            ledger.reset()
        loop_start = time.perf_counter()
        for trial in trials:
            started = time.perf_counter()
            try:
                metrics = trial.run()
            except Exception as exc:  # a failed trial is counted, not fatal
                seconds = time.perf_counter() - started
                records.append({"cell": trial.cell, "s": seconds, "error": f"{type(exc).__name__}: {exc}"})
                continue
            seconds = time.perf_counter() - started
            records.append({
                "cell": trial.cell,
                "s": seconds,
                "error": None,
                "digest": outcome_digest(metrics),
                "success": metrics.success,
                "overhead": metrics.overhead,
                "noise_fraction": metrics.noise_fraction,
                "corruptions_by_phase": metrics.corruptions_by_phase,
                "target_fraction": trial.target_fraction,
                "cc_protocol": metrics.protocol_communication,
                "cc_simulation": metrics.simulation_communication,
                "iterations_run": metrics.iterations_run,
                "iterations_budget": metrics.iterations_budget,
            })
        loop_s = time.perf_counter() - loop_start

    result = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials": records,
        "ledger": ledger.snapshot() if ledger is not None else None,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
