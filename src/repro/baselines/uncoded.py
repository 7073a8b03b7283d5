"""Baseline: run Π directly over the noisy network (no coding at all).

This is the comparison point the introduction implies: without an interactive
coding scheme, even a tiny amount of insertion/deletion/substitution noise
corrupts the computation, because every received bit feeds into later
messages and into the outputs.  The baseline has rate exactly 1 (no overhead)
but essentially no resilience — which is the other end of the trade-off the
paper's Table 1 describes.

The runner executes Π round by round over the :class:`NoisyNetwork`; each
party receives whatever the adversary delivers (a deleted bit is replaced by
0, since the party must feed *something* into its protocol logic) and outputs
are compared against the noiseless reference execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.analysis.metrics import RunMetrics
from repro.network.transport import NoisyNetwork
from repro.protocols.base import Protocol, ReceivedMap


@dataclass
class BaselineResult:
    """Outcome of a baseline execution."""

    name: str
    success: bool
    outputs: Dict[int, object]
    reference_outputs: Dict[int, object]
    metrics: RunMetrics


def run_uncoded(
    protocol: Protocol,
    adversary: Optional[Adversary] = None,
    name: str = "uncoded",
) -> BaselineResult:
    """Execute Π over the noisy network with no protection whatsoever."""
    adversary = adversary if adversary is not None else NoiselessAdversary()
    adversary.reset()
    reference = protocol.run_noiseless()

    graph = protocol.graph
    network = NoisyNetwork(graph, adversary=adversary)
    parties = {party: protocol.create_party(party) for party in graph.nodes}
    received: Dict[int, ReceivedMap] = {party: {} for party in graph.nodes}

    for round_index, transmissions in enumerate(protocol.schedule()):
        messages: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for sender, receiver in transmissions:
            bit = parties[sender].send_bit(round_index, receiver, received[sender])
            messages[(sender, receiver)] = (bit, 1)
        delivered = network.exchange_window_packed(messages, 1, phase="baseline")
        for sender, receiver in transmissions:
            # The delivered bit plane lies inside the present plane, so a
            # deleted slot reads as 0.
            bits, _present = delivered[(sender, receiver)]
            received[receiver][(round_index, sender)] = bits & 1
        # Insertions on idle links are delivered but ignored: the receiver is
        # not listening on a link with no scheduled transmission this round.

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
