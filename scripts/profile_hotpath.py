#!/usr/bin/env python
"""cProfile one representative scheme trial and print the hottest frames.

The tool every perf-minded PR should reach for first: it runs a single
noise-resilient simulation (the same shape as one noise-sweep-cell trial —
gossip workload, scheme preset, stochastic insertion/deletion/substitution
noise at a multiple of the nominal fraction) under ``cProfile`` and prints
the top cumulative frames, so "where does simulation time go now?" has a
one-command answer::

    PYTHONPATH=src python scripts/profile_hotpath.py
    PYTHONPATH=src python scripts/profile_hotpath.py --topology clique --nodes 8 --sort tottime

The trial runs the engine's one production path: packed meeting points and
batched lockstep phases, the same schedule for every adversary.

``--obs`` profiles the same trial under an ambient observability scope and,
after the frame table, prints the metrics-registry snapshot plus per-name
span totals — so a profile's "where does time go?" answer can be
cross-checked against what the instrumentation itself reports.

``--forensics`` runs the trial under an ambient flight recorder and prints
the per-kind protocol event counts plus the trial's forensic verdict — the
end-to-end exercise of the recorder path (and its profile cost, visible in
the frame table).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from contextlib import nullcontext
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.engine import InteractiveCodingSimulator  # noqa: E402
from repro.core.parameters import (  # noqa: E402
    algorithm_a,
    algorithm_b,
    algorithm_c,
    crs_oblivious_scheme,
)
from repro.experiments.factories import RandomNoiseFactory  # noqa: E402
from repro.experiments.workloads import gossip_workload  # noqa: E402
from repro.analysis.forensics import classify_failure, explain_dump  # noqa: E402
from repro.obs import FlightRecorder, MetricsRegistry, Tracer, format_metrics_rows, use_obs  # noqa: E402

SCHEMES = {
    "crs": crs_oblivious_scheme,
    "algorithm_a": algorithm_a,
    "algorithm_b": algorithm_b,
    "algorithm_c": algorithm_c,
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", choices=sorted(SCHEMES), default="crs")
    parser.add_argument("--topology", default="clique", help="workload topology (default: clique)")
    parser.add_argument("--nodes", type=int, default=8, help="number of parties (default: 8)")
    parser.add_argument("--phases", type=int, default=6, help="gossip phases (default: 6)")
    parser.add_argument(
        "--noise-multiplier",
        type=float,
        default=1.0,
        help="noise level as a multiple of the scheme's nominal fraction (default: 1.0)",
    )
    parser.add_argument("--seed", type=int, default=0, help="trial seed (default: 0)")
    parser.add_argument("--top", type=int, default=25, help="frames to print (default: 25)")
    parser.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "ncalls"],
        default="cumulative",
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="run under an observability scope and print counters + span totals",
    )
    parser.add_argument(
        "--forensics",
        action="store_true",
        help="run under a flight recorder and print event counts + the forensic verdict",
    )
    return parser.parse_args(argv)


def _print_obs_report(registry, tracer) -> None:
    print("obs counters:")
    for row in format_metrics_rows(registry.flat_snapshot()):
        print(f"  {row['metric']:<44} {row['value']}")

    spans = tracer.drain()
    totals: dict = {}
    for span in spans:
        count, seconds = totals.get(span["name"], (0, 0.0))
        totals[span["name"]] = (count + 1, seconds + span["duration"])
    print()
    print("span totals:")
    for name in sorted(totals):
        count, seconds = totals[name]
        print(f"  {name:<20} x{count:<6} {seconds:.4f}s")

    # Cross-check: phases nest inside iterations, so their summed wall time
    # should account for (nearly) all of the iteration time — a big gap means
    # the engine is spending time the per-phase instrumentation cannot see.
    iteration = totals.get("iteration")
    phase = totals.get("phase")
    if iteration and phase and iteration[1] > 0:
        coverage = phase[1] / iteration[1]
        print(f"  phase/iteration coverage: {coverage:.1%}")


def _print_forensics_report(dump: dict) -> None:
    print("flight recorder:")
    summary = explain_dump(dump)
    counts = summary["event_counts"]
    print(f"  events recorded: {summary['events_recorded']} (kept {summary['events_kept']})")
    for kind in sorted(counts):
        print(f"  {kind:<20} {counts[kind]}")
    trial = dump.get("trial") or {}
    if trial.get("success"):
        print("  verdict: success (full timeline not kept)")
    else:
        print(f"  verdict: FAILED — {classify_failure(dump)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = gossip_workload(
        topology=args.topology, num_nodes=args.nodes, phases=args.phases, seed=0
    )
    scheme = SCHEMES[args.scheme]()
    fraction = scheme.nominal_noise_fraction(workload.graph) * args.noise_multiplier
    adversary = RandomNoiseFactory(fraction=fraction)(args.seed)

    registry = MetricsRegistry() if args.obs else None
    tracer = Tracer(sample_every=1) if args.obs else None
    recorder = FlightRecorder() if args.forensics else None
    scope = (
        use_obs(metrics=registry, tracer=tracer, recorder=recorder)
        if (args.obs or args.forensics)
        else nullcontext()
    )

    # The engine binds the ambient obs context at construction time, so the
    # scope wraps simulator creation, not just the profiled run.
    with scope:
        simulator = InteractiveCodingSimulator(
            workload.protocol, scheme=scheme, adversary=adversary, seed=args.seed
        )

        if recorder is not None:
            recorder.begin_trial(seed=args.seed, scheme=scheme.name)
        profile = cProfile.Profile()
        profile.enable()
        result = simulator.run()
        profile.disable()
        dump = None
        if recorder is not None:
            dump = recorder.finish_trial(
                success=result.success,
                iterations_run=result.iterations_run,
                iterations_budget=result.metrics.iterations_budget,
                noise_fraction=result.metrics.noise_fraction,
                corruptions=result.metrics.corruptions,
                tolerance=scheme.nominal_noise_fraction(workload.graph),
            )

    print(
        f"trial: {workload.name} / {scheme.name} / noise x{args.noise_multiplier:g} "
        f"(fraction {fraction:.5f}) / seed {args.seed} / packed transport"
    )
    print(
        f"success={result.success} iterations={result.iterations_run} "
        f"communication={result.metrics.simulation_communication} bits "
        f"corruptions={result.metrics.corruptions}"
    )
    print()
    buffer = io.StringIO()
    pstats.Stats(profile, stream=buffer).sort_stats(args.sort).print_stats(args.top)
    print(buffer.getvalue())
    if args.obs:
        _print_obs_report(registry, tracer)
    if args.forensics and dump is not None:
        _print_forensics_report(dump)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
