"""Baseline: per-bit repetition coding.

A natural "cheap fix" for channel noise is to repeat every transmitted bit
``repetitions`` times and take a majority vote at the receiver.  Against pure
substitution noise this buys resilience at the cost of a ``repetitions``-fold
communication blow-up (i.e. rate ``1/r`` — not constant-rate in the useful
sense once meaningful resilience is needed).  Against the paper's full noise
model it has a structural weakness: deletions are seen as erasures (which the
majority can sometimes absorb) but a burst hitting one repetition group, or
insertions on idle slots, still flips the decoded bit, and a single flipped
decoded bit corrupts the rest of the computation because interactive
protocols feed every received bit forward.

This baseline exists to populate the "simple coding" row of the Table 1
harness and to demonstrate why interactive coding needs more than per-bit
redundancy.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.analysis.metrics import RunMetrics
from repro.baselines.uncoded import BaselineResult
from repro.network.transport import NoisyNetwork
from repro.protocols.base import Protocol, ReceivedMap


def _majority(bits: int, present: int) -> int:
    """Majority vote over the delivered copies; deleted copies do not vote."""
    ones = bits.bit_count()
    zeros = present.bit_count() - ones
    return 1 if ones > zeros else 0


def run_repetition(
    protocol: Protocol,
    adversary: Optional[Adversary] = None,
    repetitions: int = 3,
    name: str = "repetition",
) -> BaselineResult:
    """Execute Π with each bit repeated ``repetitions`` times and majority decoding."""
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    adversary = adversary if adversary is not None else NoiselessAdversary()
    adversary.reset()
    reference = protocol.run_noiseless()

    graph = protocol.graph
    network = NoisyNetwork(graph, adversary=adversary)
    parties = {party: protocol.create_party(party) for party in graph.nodes}
    received: Dict[int, ReceivedMap] = {party: {} for party in graph.nodes}
    full = (1 << repetitions) - 1

    for round_index, transmissions in enumerate(protocol.schedule()):
        # Each scheduled bit becomes one dense per-link window of length
        # ``repetitions``; the whole round is a single packed exchange.
        messages: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for sender, receiver in transmissions:
            bit = parties[sender].send_bit(round_index, receiver, received[sender])
            messages[(sender, receiver)] = (full if bit else 0, full)
        delivered = network.exchange_window_packed(messages, repetitions, phase="baseline")
        for sender, receiver in transmissions:
            received[receiver][(round_index, sender)] = _majority(*delivered[(sender, receiver)])

    outputs = {party: parties[party].compute_output(received[party]) for party in graph.nodes}
    success = all(outputs[party] == reference.outputs[party] for party in graph.nodes)
    stats = network.stats
    metrics = RunMetrics(
        scheme=name,
        success=success,
        protocol_communication=protocol.communication_complexity(),
        simulation_communication=stats.transmissions,
        corruptions=stats.corruptions,
        noise_fraction=stats.noise_fraction(),
        iterations_run=1,
        iterations_budget=1,
        communication_by_phase=dict(stats.transmissions_by_phase),
        corruptions_by_phase=dict(stats.corruptions_by_phase),
    )
    return BaselineResult(
        name=name,
        success=success,
        outputs=outputs,
        reference_outputs=reference.outputs,
        metrics=metrics,
    )
