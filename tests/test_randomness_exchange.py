"""Tests for the randomness exchange (Algorithm 5)."""

from __future__ import annotations

import pytest

from oracles import route_per_slot

from repro.adversary.base import NoiseBudget, NoiselessAdversary
from repro.adversary.contract import _state_snapshot
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    DeletionAdversary,
    LinkTargetedAdversary,
    RandomNoiseAdversary,
)
from repro.coding.block_code import BinaryBlockCode, DecodingError
from repro.core.randomness_exchange import run_randomness_exchange
from repro.hashing.seeds import ExchangedSeedSource
from repro.hashing.small_bias import seed_length_bits
from repro.network.topologies import complete_topology, line_topology, star_topology
from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import symbols_to_bits, unpack_symbols
from repro.utils.rng import make_rng


class TestCleanExchange:
    def test_all_links_agree(self):
        graph = line_topology(4)
        network = NoisyNetwork(graph)
        report = run_randomness_exchange(graph, network, make_rng(0), field_degree=32)
        assert all(report.agreed.values())
        assert report.corrupted_links == []
        assert report.communication > 0
        assert set(report.seed_sources) == set(graph.directed_edges())

    def test_endpoints_derive_identical_hash_seeds(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph)
        report = run_randomness_exchange(graph, network, make_rng(1), field_degree=32)
        for u, v in graph.edges:
            source_u = report.seed_sources[(u, v)]
            source_v = report.seed_sources[(v, u)]
            assert isinstance(source_u, ExchangedSeedSource)
            assert source_u.seed_for(0, "mp_prefix", 256) == source_v.seed_for(0, "mp_prefix", 256)

    def test_communication_scales_with_links(self):
        small_graph = line_topology(3)
        big_graph = star_topology(7)
        small = run_randomness_exchange(small_graph, NoisyNetwork(small_graph), make_rng(0), field_degree=32)
        big = run_randomness_exchange(big_graph, NoisyNetwork(big_graph), make_rng(0), field_degree=32)
        assert big.communication == small.communication * big_graph.num_edges // small_graph.num_edges


class TestNoisyExchange:
    def test_light_noise_is_corrected(self):
        graph = line_topology(4)
        adversary = RandomNoiseAdversary(corruption_probability=0.01, seed=2)
        network = NoisyNetwork(graph, adversary=adversary)
        report = run_randomness_exchange(graph, network, make_rng(3), field_degree=32)
        assert all(report.agreed.values())

    def test_deletions_are_treated_as_erasures(self):
        graph = line_topology(3)
        adversary = DeletionAdversary(deletion_probability=0.05, seed=4)
        network = NoisyNetwork(graph, adversary=adversary)
        report = run_randomness_exchange(graph, network, make_rng(5), field_degree=32)
        assert all(report.agreed.values())

    def test_heavy_targeted_noise_breaks_one_link(self):
        graph = line_topology(4)
        adversary = LinkTargetedAdversary(
            target=(0, 1), phases=("randomness_exchange",), max_corruptions=10_000, seed=6
        )
        network = NoisyNetwork(graph, adversary=adversary)
        report = run_randomness_exchange(graph, network, make_rng(7), field_degree=32)
        assert report.agreed[(0, 1)] is False
        # the untouched links still agree
        assert report.agreed[(1, 2)] is True
        assert report.agreed[(2, 3)] is True
        assert report.corrupted_links == [(0, 1)]

    def test_mismatched_seeds_produce_mismatched_hash_seeds(self):
        graph = line_topology(3)
        adversary = LinkTargetedAdversary(
            target=(0, 1), phases=("randomness_exchange",), max_corruptions=10_000, seed=8
        )
        network = NoisyNetwork(graph, adversary=adversary)
        report = run_randomness_exchange(graph, network, make_rng(9), field_degree=32)
        source_u = report.seed_sources[(0, 1)]
        source_v = report.seed_sources[(1, 0)]
        assert source_u.seed_for(0, "mp_prefix", 256) != source_v.seed_for(0, "mp_prefix", 256)


def _heavy_targeted():
    return LinkTargetedAdversary(
        target=(0, 1), phases=("randomness_exchange",), max_corruptions=10_000, seed=6
    )


#: Adversaries the production (packed) exchange is pinned against the
#: per-slot transport oracle with.
ORACLE_CASES = {
    "noiseless": NoiselessAdversary,
    "random-noise-inserting-budgeted": lambda: RandomNoiseAdversary(
        corruption_probability=0.03,
        insertion_probability=0.02,
        seed=3,
        budget=NoiseBudget(fraction=0.02, absolute_allowance=4),
    ),
    "deletion": lambda: DeletionAdversary(deletion_probability=0.05, seed=4),
    "composite": lambda: CompositeAdversary(
        components=(
            RandomNoiseAdversary(corruption_probability=0.02, insertion_probability=0.01, seed=5),
            BurstAdversary(start_round=100, end_round=180, max_corruptions=40, seed=7),
        )
    ),
    "link-targeted-heavy": _heavy_targeted,
}


def _exchange(builder, oracle, field_degree=32):
    graph = complete_topology(4)
    network = NoisyNetwork(graph, adversary=builder())
    if oracle:
        route_per_slot(network)
    report = run_randomness_exchange(graph, network, make_rng(17), field_degree=field_degree)
    return report, network


class TestExchangeMatchesPerSlotOracle:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_production_exchange_matches_oracle(self, name):
        builder = ORACLE_CASES[name]
        report, network = _exchange(builder, oracle=False)
        expected, oracle_network = _exchange(builder, oracle=True)
        assert report.agreed == expected.agreed
        assert report.communication == expected.communication
        assert set(report.seed_sources) == set(expected.seed_sources)
        for link, source in report.seed_sources.items():
            assert source.link_seed == expected.seed_sources[link].link_seed, link
        assert network.stats == oracle_network.stats
        assert network.current_round == oracle_network.current_round
        assert _state_snapshot(network.adversary) == _state_snapshot(oracle_network.adversary)
        assert (network.stats.corruptions > 0) is (name != "noiseless")

    def test_heavy_targeted_noise_takes_the_raw_bit_fallback(self):
        field_degree = 32
        seed_bits = seed_length_bits(field_degree)
        graph = complete_topology(4)
        network = NoisyNetwork(graph, adversary=_heavy_targeted())
        delivered = {}
        exchange_window_packed = network.exchange_window_packed

        def capture(messages, *args, **kwargs):
            delivered.update(exchange_window_packed(messages, *args, **kwargs))
            return delivered

        network.exchange_window_packed = capture
        report = run_randomness_exchange(graph, network, make_rng(17), field_degree=field_degree)
        dbits, dpresent = delivered[(0, 1)]
        code = BinaryBlockCode(message_bits=seed_bits)
        with pytest.raises(DecodingError):
            code.decode_planes(dbits, dpresent)
        window = unpack_symbols(dbits, dpresent, code.codeword_bits)
        assert None in window[:seed_bits]  # erased slots among the seed bits
        fallback = symbols_to_bits(window[:seed_bits])  # erasures read as 0
        receiver_seed = report.seed_sources[(1, 0)].link_seed
        assert receiver_seed == sum(bit << index for index, bit in enumerate(fallback))
        assert report.agreed[(0, 1)] is False
