"""Throughput benchmarks of the simulator itself (not tied to one paper table).

These give a reference point for how expensive one noise-resilient simulation
is for each scheme preset on a small workload, and they double as regression
guards: every benchmarked run must succeed.

``test_batched_window_transport_speedup`` pins the window-transport win: it
replays the exact window traffic of one noise-sweep cell (stochastic
insertion/deletion/substitution noise at the nominal fraction) through both
the packed ``exchange_window_packed`` (one kernel call per link and window)
and the single-slot reference ``exchange_window_per_slot``, asserts
bit-identical deliveries and statistics, and requires the packed path to be
≥3× faster.  Its wall clock is persisted like every other benchmark, so
``benchmarks/check_perf_regression.py`` gates the packed numbers session
over session.
"""

from __future__ import annotations

import time

import pytest

from repro.adversary.strategies import RandomNoiseAdversary
from repro.core.engine import InteractiveCodingSimulator, simulate
from repro.core.parameters import algorithm_a, algorithm_b, algorithm_c, crs_oblivious_scheme
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.workloads import aggregation_workload, gossip_workload
from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import unpack_symbols


@pytest.mark.parametrize(
    "scheme_factory", [crs_oblivious_scheme, algorithm_a, algorithm_c], ids=["crs", "algorithm_a", "algorithm_c"]
)
def test_simulate_gossip_noiseless(benchmark, run_once, scheme_factory):
    workload = gossip_workload(topology="line", num_nodes=5, phases=12, seed=0)
    result = run_once(benchmark, simulate, workload.protocol, scheme=scheme_factory(), seed=1)
    benchmark.extra_info["overhead"] = result.overhead
    assert result.success


def test_simulate_gossip_algorithm_b_under_noise(benchmark, run_once):
    workload = gossip_workload(topology="line", num_nodes=5, phases=8, seed=0)
    scheme = algorithm_b()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    adversary = RandomNoiseAdversary(corruption_probability=fraction, seed=2)
    result = run_once(benchmark, simulate, workload.protocol, scheme=scheme, adversary=adversary, seed=2)
    benchmark.extra_info["overhead"] = result.overhead
    assert result.success


def test_simulate_sparse_aggregation(benchmark, run_once):
    workload = aggregation_workload(topology="grid", num_nodes=9, value_bits=8, seed=0)
    result = run_once(benchmark, simulate, workload.protocol, scheme=crs_oblivious_scheme(), seed=3)
    benchmark.extra_info["overhead"] = result.overhead
    assert result.success


def _best_of(function, repetitions=5):
    """Minimum wall clock over several runs (robust against scheduler noise)."""
    best = None
    value = None
    for _ in range(repetitions):
        start = time.perf_counter()
        value = function()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, value


def test_batched_window_transport_speedup(benchmark, run_once):
    """The window hot path: one noise-sweep cell's window traffic, both paths.

    The workload is a dense-graph gossip cell at the nominal noise level with
    the noise-sweep harness's stochastic adversary (``RandomNoiseFactory`` —
    substitutions/deletions plus insertions, so every silent slot is
    adversary-reachable).  The traffic is captured from a real trial as the
    plane pairs the engine sends, then replayed through the packed and the
    per-slot transport; both must agree bit for bit, and the packed path must
    be ≥3× faster.  The per-slot replay's symbol lists are built before the
    clock starts, so neither side pays for converting between the formats.
    """
    workload = gossip_workload(topology="clique", num_nodes=8, phases=6, seed=0)
    scheme = crs_oblivious_scheme()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    factory = RandomNoiseFactory(fraction=fraction)

    # Capture the cell's window-exchange workload from one real trial: the
    # dense 4τ-round meeting-points windows and the thin per-round phases.
    captured = []
    sim = InteractiveCodingSimulator(workload.protocol, scheme=scheme, adversary=factory(0), seed=0)
    original_packed = sim.network.exchange_window_packed

    def packed_spy(messages, window_rounds, phase, iteration=-1, sparse=False):
        captured.append((dict(messages), window_rounds, phase, iteration, sparse))
        return original_packed(messages, window_rounds, phase, iteration, sparse=sparse)

    sim.network.exchange_window_packed = packed_spy
    assert sim.run().success
    assert captured, "the trial exchanged no windows?"
    symbol_windows = [
        (
            {
                link: unpack_symbols(bits, present, window_rounds)
                for link, (bits, present) in messages.items()
            },
            window_rounds,
            phase,
            iteration,
            sparse,
        )
        for messages, window_rounds, phase, iteration, sparse in captured
    ]

    def replay(packed):
        network = NoisyNetwork(workload.graph, adversary=factory(1))
        if packed:
            exchange, windows = network.exchange_window_packed, captured
        else:
            exchange, windows = network.exchange_window_per_slot, symbol_windows
        deliveries = [
            exchange(messages, window_rounds, phase, iteration, sparse=sparse)
            for messages, window_rounds, phase, iteration, sparse in windows
        ]
        return deliveries, network.stats, network.current_round

    per_slot_seconds, per_slot_result = _best_of(lambda: replay(False))
    packed_seconds, packed_result = _best_of(lambda: replay(True))
    # The tentpole guarantee: the fast path changes nothing observable.
    assert packed_result[1:] == per_slot_result[1:]
    for (_, window_rounds, *_rest), got, expected in zip(
        captured, packed_result[0], per_slot_result[0]
    ):
        assert {
            link: unpack_symbols(bits, present, window_rounds)
            for link, (bits, present) in got.items()
        } == expected

    result = run_once(benchmark, lambda: replay(True))
    assert result[0] == packed_result[0]

    speedup = per_slot_seconds / packed_seconds
    benchmark.extra_info["windows_replayed"] = len(captured)
    benchmark.extra_info["per_slot_seconds"] = round(per_slot_seconds, 6)
    benchmark.extra_info["batched_seconds"] = round(packed_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 3.0, f"packed transport only {speedup:.2f}x faster than per-slot"


def test_simulate_noise_sweep_cell_end_to_end(benchmark, run_once):
    """Whole-trial wall clock of the same noise-sweep cell.

    Complements the transport replay above: this is the end-to-end number a
    sweep user sees, where hashing and protocol logic share the bill with the
    transport.
    """
    workload = gossip_workload(topology="clique", num_nodes=8, phases=6, seed=0)
    scheme = crs_oblivious_scheme()
    fraction = scheme.nominal_noise_fraction(workload.graph)
    factory = RandomNoiseFactory(fraction=fraction)

    def run_cell():
        successes = 0
        for seed in range(3):
            result = simulate(workload.protocol, scheme=scheme, adversary=factory(seed), seed=seed)
            successes += 1 if result.success else 0
        return successes

    successes = run_once(benchmark, run_cell)
    assert successes == 3
