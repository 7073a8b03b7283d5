"""Perf gate for the packed transport hot path (PR 10).

The packed plane pair ``(bits, present)`` carries a whole window per directed
link as two integers: one adversary kernel call, one whole-register stats
update and one dispatch per link, instead of one ``transmit`` per slot.  The
workload replays the window mix of ``scripts/profile_hotpath.py``'s
representative trial (gossip clique n=8, CRS scheme, nominal noise): dense
``4·τ``-round meeting-points windows on every directed link plus thin sparse
single-round phase windows, under a slot-addressed additive-oblivious pattern
at the trial's nominal noise fraction.

Shape we gate: the packed exchange must be at least **5× faster** than the
single-slot reference ``exchange_window_per_slot`` (one ``transmit`` per
slot) in the median of alternating replay pairs, while every pair produces
bit-identical ``ChannelStats`` — the equivalence itself is pinned much
harder by ``tests/test_transport.py`` and ``tests/test_phase_merge_fuzz.py``.  Plane packing on the sender side is
*inside* the timed region: the gate covers the end-to-end cost of choosing
the packed representation, not just the kernel.  The measurement is recorded
in ``.bench-runs`` like every other benchmark, so ``check_perf_regression.py``
gates the trajectory session over session.
"""

from __future__ import annotations

import time

from repro.adversary.oblivious import AdditiveObliviousAdversary
from repro.core.parameters import crs_oblivious_scheme
from repro.experiments.workloads import gossip_workload
from repro.network.transport import NoisyNetwork
from repro.utils.rng import make_rng

#: The representative trial's meeting-points window: 4 hashes of τ bits each.
_DENSE_WINDOW = 32
#: Iterations replayed — enough dense windows that the measurement dwarfs
#: timer noise while staying well under a second on the reference path.
_ITERATIONS = 12
#: Thin phase windows (flag passing / simulation / rewind rounds) per
#: iteration, and the fraction of links that carry traffic in each.
_THIN_WINDOWS = 10
_THIN_DENSITY = 0.3
#: Alternating (per-slot, packed) replay pairs; the gate reads the median of
#: their ratios, so a scheduler stall on a shared runner moves one pair, not
#: the verdict.
_PAIRS = 7


def _workload():
    """Graph, oblivious pattern and per-window traffic, all deterministic."""
    graph = gossip_workload("clique", 8, 6, seed=0).protocol.graph
    fraction = crs_oblivious_scheme().nominal_noise_fraction(graph)
    pattern_rng = make_rng(11)
    pattern = {}
    total_rounds = _ITERATIONS * (_DENSE_WINDOW + _THIN_WINDOWS)
    for round_index in range(total_rounds):
        for link in graph.directed_edges():
            if pattern_rng.random() < fraction:
                pattern[(round_index,) + link] = pattern_rng.choice((1, 2))
    traffic_rng = make_rng(5)
    dense = [
        {
            link: [traffic_rng.choice((0, 1)) for _ in range(_DENSE_WINDOW)]
            for link in graph.directed_edges()
        }
        for _ in range(_ITERATIONS)
    ]
    thin = [
        [
            {
                link: [traffic_rng.choice((0, 1))]
                for link in graph.directed_edges()
                if traffic_rng.random() < _THIN_DENSITY
            }
            for _ in range(_THIN_WINDOWS)
        ]
        for _ in range(_ITERATIONS)
    ]
    return graph, pattern, dense, thin


def _counting_transmits(network):
    """Count ``transmit`` calls (the per-slot path's only way onto the wire)."""
    network.transmit_calls = 0
    transmit = network.transmit

    def counted(*args, **kwargs):
        network.transmit_calls += 1
        return transmit(*args, **kwargs)

    network.transmit = counted
    return network


def _per_slot_seconds(graph, pattern, dense, thin):
    """The single-slot reference: one ``transmit`` per slot of every window."""
    network = _counting_transmits(
        NoisyNetwork(graph, adversary=AdditiveObliviousAdversary(pattern=pattern))
    )
    start = time.perf_counter()
    for iteration, window in enumerate(dense):
        network.exchange_window_per_slot(window, _DENSE_WINDOW, "meeting_points", iteration)
        for messages in thin[iteration]:
            network.exchange_window_per_slot(messages, 1, "simulation", iteration)
    return time.perf_counter() - start, network


def _packed_seconds(graph, pattern, dense, thin):
    """The packed path: ``(bits, present)`` planes through one kernel per link."""
    network = _counting_transmits(
        NoisyNetwork(graph, adversary=AdditiveObliviousAdversary(pattern=pattern))
    )
    full = (1 << _DENSE_WINDOW) - 1
    start = time.perf_counter()
    for iteration, window in enumerate(dense):
        planes = {}
        for link, symbols in window.items():
            bits = 0
            for position, symbol in enumerate(symbols):
                if symbol:
                    bits |= 1 << position
            planes[link] = (bits, full)
        network.exchange_window_packed(planes, _DENSE_WINDOW, "meeting_points", iteration)
        for messages in thin[iteration]:
            network.exchange_window_packed(
                {link: (symbols[0], 1) for link, symbols in messages.items()},
                1,
                "simulation",
                iteration,
            )
    return time.perf_counter() - start, network


def test_packed_transport_is_at_least_five_times_as_fast(benchmark, run_once):
    """The packed-transport gate: ≥5× over per-slot dispatch, same stats."""
    graph, pattern, dense, thin = _workload()

    def compare():
        ratios = []
        for _ in range(_PAIRS):
            reference_seconds, reference_network = _per_slot_seconds(graph, pattern, dense, thin)
            packed_seconds, packed_network = _packed_seconds(graph, pattern, dense, thin)
            # The two dispatch shapes must account identically before their
            # timings are comparable at all.
            assert vars(packed_network.stats) == vars(reference_network.stats)
            assert packed_network.current_round == reference_network.current_round
            assert packed_network.transmit_calls == 0
            assert reference_network.transmit_calls > 0
            ratios.append((reference_seconds / packed_seconds, reference_seconds, packed_seconds))
        return sorted(ratios)

    ratios = run_once(benchmark, compare)
    speedup, reference_seconds, packed_seconds = ratios[len(ratios) // 2]
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["packed_seconds"] = round(packed_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["min_pair_speedup"] = round(ratios[0][0], 2)
    benchmark.extra_info["pairs"] = _PAIRS
    benchmark.extra_info["dense_window_rounds"] = _DENSE_WINDOW
    benchmark.extra_info["iterations"] = _ITERATIONS
    benchmark.extra_info["directed_links"] = len(graph.directed_edges())
    assert speedup >= 5, (
        f"packed transport only {speedup:.2f}x faster in the median of {_PAIRS} pairs "
        f"(per-slot {reference_seconds * 1e3:.1f} ms, packed {packed_seconds * 1e3:.1f} ms; "
        f"pair ratios {', '.join(f'{ratio:.2f}' for ratio, _, _ in ratios)})"
    )
