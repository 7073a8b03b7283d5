"""Perf gate for whole-phase merged dispatch (the slot-addressed contract).

A transport-level gate of ``NoisyNetwork.exchange_phase`` /
``PhaseExchange``; no engine path uses that dispatch.  When the adversary's
noise is a pure function of (round, link, symbol), one ``exchange_phase``
can replace one ``exchange_window_packed`` dispatch per round — per-slot schedule
evaluation for transmitted symbols, one lazily-evaluated whole-phase
silence baseline per link for insertions, and one accounting pass per link
at commit.

Shape we gate: on a representative slot-addressed workload (sparse
simulation-phase traffic under an inserting additive-oblivious pattern, the
shape that forces the per-round reference into its dense path every round),
the merged dispatch must be at least **2× faster** than per-round dispatch,
while delivering bit-identical ``ChannelStats`` (the equivalence itself is
pinned by ``tests/test_transport.py``).  The measurement is recorded in
``.bench-runs`` like every other benchmark, so ``check_perf_regression.py``
gates the trajectory session over session.
"""

from __future__ import annotations

import time

from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.network.topologies import random_connected_topology
from repro.network.transport import NoisyNetwork
from repro.utils.rng import make_rng

_ROUNDS = 400
_NUM_NODES = 8
_TRAFFIC_DENSITY = 0.15
_PATTERN_DENSITY = 0.02


def _workload():
    """Graph, oblivious pattern and per-round traffic plan, all deterministic."""
    graph = random_connected_topology(_NUM_NODES, 0.5, seed=4)
    pattern_rng = make_rng(17)
    pattern = {}
    for round_index in range(_ROUNDS):
        for sender, receiver in graph.directed_edges():
            if pattern_rng.random() < _PATTERN_DENSITY:
                pattern[(round_index, sender, receiver)] = pattern_rng.choice((1, 2))
    traffic_rng = make_rng(9)
    plan = [
        [
            (link, traffic_rng.choice((0, 1)))
            for link in graph.directed_edges()
            if traffic_rng.random() < _TRAFFIC_DENSITY
        ]
        for _ in range(_ROUNDS)
    ]
    return graph, pattern, plan


def _per_round_seconds(graph, pattern, plan):
    """The lockstep reference: one exchange_window_packed dispatch per round.

    The pattern contains insertions, so every round takes the dense path —
    exactly what the engine's per-round schedule does for this adversary.
    """
    network = NoisyNetwork(graph, adversary=AdditiveObliviousAdversary(pattern=pattern))
    start = time.perf_counter()
    for sends in plan:
        network.exchange_window_packed(
            {link: (symbol, 1) for link, symbol in sends}, 1, "simulation", 0
        )
    return time.perf_counter() - start, network


def _merged_seconds(graph, pattern, plan):
    """The merged path: the whole phase through one exchange_phase dispatch."""
    network = NoisyNetwork(graph, adversary=AdditiveObliviousAdversary(pattern=pattern))
    start = time.perf_counter()
    phase = network.exchange_phase(_ROUNDS, "simulation", 0)
    for offset, sends in enumerate(plan):
        for link, symbol in sends:
            phase.send(link, offset, symbol)
    phase.commit()
    return time.perf_counter() - start, network


def test_merged_phase_dispatch_is_at_least_twice_as_fast(benchmark, run_once):
    """The merged-dispatch gate: ≥2× over per-round dispatch, same stats."""
    graph, pattern, plan = _workload()

    def measure(runner):
        # Best of three runs per path: a scheduling spike on a shared CI
        # runner must hit every attempt to move the measurement.
        timings = []
        networks = []
        for _ in range(3):
            seconds, network = runner(graph, pattern, plan)
            timings.append(seconds)
            networks.append(network)
        assert vars(networks[0].stats) == vars(networks[1].stats) == vars(networks[2].stats)
        return min(timings), networks[0]

    def compare():
        reference_seconds, reference_network = measure(_per_round_seconds)
        merged_seconds, merged_network = measure(_merged_seconds)
        # The two dispatch shapes must account identically before their
        # timings are comparable at all.
        assert vars(merged_network.stats) == vars(reference_network.stats)
        assert merged_network.current_round == reference_network.current_round
        assert merged_network.merged_dispatches == 1
        assert reference_network.merged_dispatches == 0
        return reference_seconds, merged_seconds

    reference_seconds, merged_seconds = run_once(benchmark, compare)
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["merged_seconds"] = round(merged_seconds, 6)
    benchmark.extra_info["speedup"] = round(reference_seconds / merged_seconds, 2)
    benchmark.extra_info["rounds"] = _ROUNDS
    benchmark.extra_info["directed_links"] = len(graph.directed_edges())
    assert reference_seconds >= 2 * merged_seconds, (
        f"merged phase dispatch only {reference_seconds / merged_seconds:.2f}x faster "
        f"(per-round {reference_seconds * 1e3:.1f} ms, merged {merged_seconds * 1e3:.1f} ms)"
    )
