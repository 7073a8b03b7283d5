"""The repository benchmark: cold, closed-loop runs of the paper's experiments.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

A run repeats cold passes of one workload until ``--seconds`` have elapsed
and every block has run at least once.  A pass is ``worker.py`` in a fresh
interpreter (serial backend, one trial at a time, empty caches) running one
block of the workload's seeded trial list; passes cycle through the
``common.BLOCKS`` blocks, and a pass that repeats a block must reproduce that
block's outcomes exactly.

``--trace 0`` reports the end-to-end metrics.  Each trial's latency is the
median over the passes that ran its block, and each block's loop time the
median over its passes:

* ``trials_per_s`` — trials of all blocks over the sum of block loop times;
* ``trial_ms_p50`` / ``trial_ms_p90`` — Harrell–Davis percentiles of the
  per-trial latencies (every workload has at least 144 trials, so the p90 has
  at least ten beyond it);
* ``setup_s`` — spawn to first trial ready (interpreter, imports, workload
  graphs, protocols, scheme parameters), median over passes;
* ``peak_rss_mb`` — ``ru_maxrss`` of a pass, median over passes;
* ``trial_ok_share`` — trials that neither raised nor failed the outcome
  check, over trials attempted (one minus the failed-trial share, since a
  metric that reads 0 cannot carry a relative bound);
* ``protocol_success_rate`` — trials whose outputs equal the noiseless
  reference (the paper's success criterion);
* ``coded_overhead`` — mean CC(simulation)/CC(Π), the inverse of the rate.

``--trace 1`` runs block 0 once untraced and then traced (``ledger.py`` wraps
each layer's public entry points), at least twice, and reports the per-layer
ledger: self time (``busy_s``, median over traced passes), calls and work
counts per layer, ``trace.coverage`` (layer self time over traced trial wall),
``trace.overhead_ratio`` (traced over untraced trial wall) and the adversary
budget report.  Traced passes must reproduce the untraced outcomes and agree
count for count.

The outcome check: a trial fails if it raised, if its outcome digest differs
from the first pass of its block (or, for workload seed 0, from
``pinned_seed0.json``), or if its ``RunMetrics`` break an invariant.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units are those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from common import BLOCKS, LAYERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned_seed0.json"
#: The CLI's default ``--seed``; its per-trial outcome digests are pinned.
PINNED_SEED = 0
#: A run must end within 180 s, whatever ``--seconds`` asks for.
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed trial)."""


def run_pass(workload: str, seed: int, block: int, trace: bool, deadline: float) -> dict:
    """One cold pass in a fresh interpreter; returns the worker's JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--block", str(block),
        "--spawned", repr(time.monotonic()),
    ]
    if trace:
        command.append("--trace")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass timed out after {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"pass exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("pass printed no result")
    result = json.loads(lines[-1])
    result["block"] = block
    return result


def invariant_error(record: dict) -> str:
    """Why a trial's outcome is impossible, or '' if it is consistent."""
    if record["cc_protocol"] <= 0:
        return "CC(Π) is not positive"
    if record["cc_simulation"] < record["cc_protocol"]:
        return "simulation communicated less than Π"
    if not 1 <= record["iterations_run"] <= record["iterations_budget"]:
        return "iterations outside [1, budget]"
    if not 0.0 <= record["noise_fraction"] <= 1.0:
        return "noise fraction outside [0, 1]"
    return ""


def check_outcomes(passes: List[dict], pinned: List[List[str]]) -> List[str]:
    """Mark every failed trial in place; return one line per failure."""
    reference: Dict[int, List[str]] = {}
    failures = []
    for number, one_pass in enumerate(passes):
        block = one_pass["block"]
        expected = reference.setdefault(block, [record.get("digest") for record in one_pass["trials"]])
        if len(one_pass["trials"]) != len(expected) or (pinned and len(pinned[block]) != len(expected)):
            raise BenchmarkError(f"block {block} ran a different number of trials than expected")
        for index, record in enumerate(one_pass["trials"]):
            if record["error"] is not None:
                reason = f"raised {record['error']}"
            elif record["digest"] != expected[index]:
                reason = f"outcome {record['digest']} differs from the block's first pass ({expected[index]})"
            elif pinned and record["digest"] != pinned[block][index]:
                reason = f"outcome {record['digest']} differs from the pinned {pinned[block][index]}"
            else:
                reason = invariant_error(record)
            record["failed"] = bool(reason)
            if reason:
                failures.append(f"pass {number} block {block} trial {index} ({record['cell']}): {reason}")
    return failures


def harrell_davis(values: List[float], share: float) -> float:
    """Harrell–Davis estimate of the ``share`` quantile.

    A Beta(share·(n+1), (1-share)·(n+1))-weighted mean of all order
    statistics.  The workloads' latencies come in per-cell clusters, and a
    plain order statistic that falls on a gap between two clusters is the
    extreme trial of one of them; the weighted mean moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = share * (n + 1), (1.0 - share) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule for the Beta mass of each [i/n, (i+1)/n]
    total = weights = 0.0
    for index, value in enumerate(ordered):
        mass = sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
            for x in ((index + (k + 0.5) / steps) / n for k in range(steps))
        )
        total += mass * value
        weights += mass
    return total / weights


def end_to_end(passes: List[dict]) -> Dict[str, float]:
    by_block: Dict[int, List[dict]] = defaultdict(list)
    for one_pass in passes:
        by_block[one_pass["block"]].append(one_pass)
    latencies: List[float] = []
    loop_s = 0.0
    for runs in by_block.values():
        loop_s += statistics.median(run["loop_s"] for run in runs)
        for records in zip(*(run["trials"] for run in runs)):
            latencies.append(statistics.median(record["s"] for record in records))
    # Outcomes are deterministic per block: one pass of each block holds them.
    first = [record for runs in by_block.values() for record in runs[0]["trials"]]
    completed = [record for record in first if not record["failed"]]
    attempted = sum(len(one_pass["trials"]) for one_pass in passes)
    failed = sum(1 for one_pass in passes for record in one_pass["trials"] if record["failed"])
    return {
        "trials_per_s": len(latencies) / loop_s,
        "trial_ms_p50": 1000.0 * harrell_davis(latencies, 0.5),
        "trial_ms_p90": 1000.0 * harrell_davis(latencies, 0.9),
        "setup_s": statistics.median(one_pass["setup_s"] for one_pass in passes),
        "peak_rss_mb": statistics.median(one_pass["peak_rss_mb"] for one_pass in passes),
        "trial_ok_share": (attempted - failed) / attempted,
        "protocol_success_rate": sum(1 for record in completed if record["success"]) / len(first),
        "coded_overhead": statistics.fmean(r["overhead"] for r in completed) if completed else 0.0,
    }


def budget_report(one_pass: dict) -> Dict[str, float]:
    """Per cell: mean measured noise fraction over the cell's target fraction."""
    by_cell = defaultdict(list)
    targets = {}
    for record in one_pass["trials"]:
        if record["error"] is None:
            by_cell[record["cell"]].append(record["noise_fraction"])
            targets[record["cell"]] = record["target_fraction"]
    return {cell: statistics.fmean(values) / targets[cell] for cell, values in by_cell.items()}


def trial_wall(one_pass: dict) -> float:
    return sum(record["s"] for record in one_pass["trials"])


def per_layer(untraced: List[dict], traced: List[dict]) -> Tuple[Dict[str, float], List[str], Dict[str, float]]:
    """The ledger metrics, count mismatches between traced passes, and the budget report."""
    counts = traced[0]["ledger"]["counts"]
    mismatches = [
        f"traced pass {number}: {name} = {one['ledger']['counts'][name]}, first traced pass = {value}"
        for number, one in enumerate(traced[1:], start=1)
        for name, value in counts.items()
        if one["ledger"]["counts"][name] != value
    ]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = statistics.median(p["ledger"]["busy"][layer] for p in traced)
        metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
    for name, value in counts.items():
        if not name.endswith(".calls") and name != "core.randomness_exchange.agreed_links":
            metrics[name] = value
    links = counts["core.randomness_exchange.links"]
    metrics["core.randomness_exchange.agreed_share"] = (
        counts["core.randomness_exchange.agreed_links"] / links if links else 1.0
    )
    window_slots = counts["adversary.window_slots"]
    metrics["adversary.slot_fallback_share"] = (
        counts["adversary.fallback_slots"] / window_slots if window_slots else 0.0
    )
    ratios = budget_report(traced[0])
    metrics["adversary.budget_spent_ratio"] = statistics.fmean(ratios.values())
    metrics["adversary.budget_spent_ratio_min"] = min(ratios.values())
    walls = [trial_wall(one_pass) for one_pass in traced]
    metrics["trace.coverage"] = statistics.median(
        sum(one_pass["ledger"]["busy"].values()) / wall for one_pass, wall in zip(traced, walls)
    )
    metrics["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(
        trial_wall(one_pass) for one_pass in untraced
    )
    return metrics, mismatches, ratios


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def print_ledger(workload: str, seed: int, traced: List[dict], metrics: Dict[str, float],
                 ratios: Dict[str, float]) -> None:
    wall = statistics.median(trial_wall(one_pass) for one_pass in traced)
    print(f"ledger: {workload} seed {seed} block 0, {len(traced)} traced passes, "
          f"median traced trial wall {wall:.3f} s")
    for layer in sorted(LAYERS, key=lambda name: -metrics[f"{name}.busy_s"]):
        busy = metrics[f"{layer}.busy_s"]
        print(f"  {layer:26s} {busy:8.3f} s {busy / wall:6.1%}  calls {metrics[f'{layer}.calls']}")
    # Which phases the corruptions landed in tells a component of a composite
    # adversary apart: e.g. only the adaptive one targets meeting_points.
    by_phase: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    trials: Dict[str, int] = defaultdict(int)
    for record in traced[0]["trials"]:
        if record["error"] is None:
            trials[record["cell"]] += 1
            for phase, count in record["corruptions_by_phase"].items():
                by_phase[record["cell"]][phase] += count
    print("adversary budget per cell: measured noise fraction / target, mean corruptions by phase")
    for cell, ratio in ratios.items():
        phases = ", ".join(
            f"{phase} {count / trials[cell]:.1f}" for phase, count in sorted(by_phase[cell].items())
        )
        print(f"  {cell:28s} {ratio:8.3f}  {phases or 'none'}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    pinned: List[List[str]] = []
    if args.seed == PINNED_SEED:
        pinned = json.loads(PINNED.read_text())[args.workload]

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    untraced: List[dict] = []
    traced: List[dict] = []
    try:
        if args.trace:
            untraced.append(run_pass(args.workload, args.seed, 0, False, deadline))
            while len(traced) < 2 or time.monotonic() - started < args.seconds:
                traced.append(run_pass(args.workload, args.seed, 0, True, deadline))
        else:
            while len(untraced) < BLOCKS or time.monotonic() - started < args.seconds:
                block = len(untraced) % BLOCKS
                untraced.append(run_pass(args.workload, args.seed, block, False, deadline))
        failures = check_outcomes(untraced + traced, pinned)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = untraced + traced
    attempted = sum(len(one_pass["trials"]) for one_pass in every)
    failed = sum(1 for one_pass in every for record in one_pass["trials"] if record["failed"])
    for line in failures[:20]:
        print(f"FAILED {line}")
    correct = failed == 0
    if args.trace:
        metrics, mismatches, ratios = per_layer(untraced, traced)
        for line in mismatches:
            print(f"COUNT MISMATCH {line}")
        correct = correct and not mismatches
        print_ledger(args.workload, args.seed, traced, metrics, ratios)
    else:
        metrics = end_to_end(untraced)
        print(f"{args.workload} seed {args.seed}: {len(untraced)} cold passes over {BLOCKS} blocks, "
              f"{attempted} trials run, {failed} failed")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
