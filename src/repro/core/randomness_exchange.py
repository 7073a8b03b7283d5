"""The per-link randomness exchange (paper Algorithm 5).

When no common random string is assumed (Algorithms A and B), each link
bootstraps its hash seeds as follows: the endpoint with the smaller identifier
samples a short uniform seed, protects it with a constant-rate
error-correcting code, and streams the codeword to the other endpoint over a
fixed schedule (one bit per round).  Both endpoints then expand their —
hopefully identical — seeds into a long δ-biased string from which all later
hash seeds are carved (:class:`~repro.hashing.seeds.ExchangedSeedSource`).

Because the schedule is fixed, deletions are seen as erasures and insertions
outside the schedule are ignored, so the code only needs to handle
substitutions and erasures (paper footnote 9).  If decoding fails outright,
the receiver falls back to the raw received bits: the two endpoints then hold
different seeds, all their hash comparisons keep failing, and the link
behaves like the paper's ``E \\ E'`` set — which Section 5 shows the
adversary cannot afford to create at the allowed noise rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.coding.block_code import BinaryBlockCode, DecodingError
from repro.hashing.seeds import ExchangedSeedSource, SeedSource
from repro.hashing.small_bias import seed_length_bits
from repro.network.graph import Graph, edge_key
from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import bits_to_int
from repro.utils.rng import random_bits


@dataclass
class RandomnessExchangeReport:
    """Outcome of the randomness exchange across the whole network."""

    #: (party, neighbour) -> the seed source that party will use on that link.
    seed_sources: Dict[Tuple[int, int], SeedSource]
    #: canonical edge -> whether both endpoints ended up with identical seeds
    #: (ground truth, for analysis only; the parties themselves do not know).
    agreed: Dict[Tuple[int, int], bool] = field(default_factory=dict)
    #: Total bits transmitted during the exchange.
    communication: int = 0

    @property
    def corrupted_links(self) -> List[Tuple[int, int]]:
        return sorted(edge for edge, ok in self.agreed.items() if not ok)


def run_randomness_exchange(
    graph: Graph,
    network: NoisyNetwork,
    rng: random.Random,
    field_degree: int = 64,
    slot_capacity_bits: int = 4096,
    expansion: int = 3,
) -> RandomnessExchangeReport:
    """Execute Algorithm 5 on every link in parallel and build the seed sources."""
    seed_bits = seed_length_bits(field_degree)
    seed_mask = (1 << seed_bits) - 1
    code = BinaryBlockCode(message_bits=seed_bits, expansion=expansion)
    window = code.codeword_bits
    full = (1 << window) - 1

    # Every coded seed travels as one (codeword, all-present) plane pair.
    sampled: Dict[Tuple[int, int], int] = {}
    messages: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for u, v in graph.edges:  # canonical order: u < v, u is the sender
        seed = bits_to_int(random_bits(rng, seed_bits))
        sampled[(u, v)] = seed
        messages[(u, v)] = (code.encode_int(seed), full)

    before = network.communication()
    received = network.exchange_window_packed(
        messages, window_rounds=window, phase="randomness_exchange"
    )
    communication = network.communication() - before

    report = RandomnessExchangeReport(seed_sources={}, communication=communication)
    for u, v in graph.edges:
        sender_seed = sampled[(u, v)]
        dbits, dpresent = received[(u, v)]
        try:
            receiver_seed = code.decode_planes(dbits, dpresent)
        except DecodingError:
            # Decoding failure: fall back to the first seed_bits delivered
            # bits, erasures read as 0.
            receiver_seed = dbits & seed_mask
        report.agreed[edge_key(u, v)] = receiver_seed == sender_seed

        sender_source = ExchangedSeedSource(
            link_seed=sender_seed, field_degree=field_degree, slot_capacity_bits=slot_capacity_bits
        )
        receiver_source = ExchangedSeedSource(
            link_seed=receiver_seed, field_degree=field_degree, slot_capacity_bits=slot_capacity_bits
        )
        if receiver_seed == sender_seed:
            # The exchange succeeded: both endpoints expand the same δ-biased
            # string, so they can share one generator (and its lazily-built
            # expansion tables).  Each keeps its own per-slot cache.
            receiver_source.share_generator_with(sender_source)
        report.seed_sources[(u, v)] = sender_source
        report.seed_sources[(v, u)] = receiver_source
    return report
