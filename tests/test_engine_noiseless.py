"""Integration tests: the simulator over a noiseless network.

Over a perfect network the coding scheme must reproduce the noiseless outputs
of every workload exactly, with bounded overhead, and its early-stop must fire
well before the iteration budget.
"""

from __future__ import annotations

import pytest

from repro.core.chunking import ChunkedProtocol
from repro.core.engine import InteractiveCodingSimulator, simulate
from repro.core.parameters import algorithm_a, algorithm_b, algorithm_c, crs_oblivious_scheme
from repro.core.transcript import ChunkRecord
from repro.network.topologies import line_topology, ring_topology, star_topology
from repro.protocols.base import PartyLogic, Protocol
from repro.protocols.random_protocol import RandomProtocol
from repro.protocols.token_ring import TokenRingProtocol


class TestNoiselessCorrectness:
    def test_gossip_line(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert result.success
        assert result.failed_parties() == []

    def test_gossip_clique(self, gossip_clique4):
        result = simulate(gossip_clique4, scheme=crs_oblivious_scheme(), seed=2)
        assert result.success

    def test_aggregation(self, aggregation_line6):
        result = simulate(aggregation_line6, scheme=crs_oblivious_scheme(), seed=3)
        assert result.success
        assert all(value == aggregation_line6.expected_total() for value in result.outputs.values())

    def test_line_example(self, line_example6):
        result = simulate(line_example6, scheme=crs_oblivious_scheme(), seed=4)
        assert result.success

    def test_token_ring(self):
        graph = ring_topology(5)
        protocol = TokenRingProtocol(graph, {i: i for i in range(5)}, value_bits=4, laps=1)
        result = simulate(protocol, scheme=crs_oblivious_scheme(), seed=5)
        assert result.success

    def test_random_protocol(self):
        graph = star_topology(5)
        protocol = RandomProtocol(graph, {i: i * 3 for i in range(5)}, num_rounds=10, density=0.5, seed=6)
        result = simulate(protocol, scheme=crs_oblivious_scheme(), seed=6)
        assert result.success

    def test_pairwise_exchange(self, pairwise_line4):
        result = simulate(pairwise_line4, scheme=crs_oblivious_scheme(), seed=7)
        assert result.success

    @pytest.mark.parametrize("scheme_factory", [crs_oblivious_scheme, algorithm_a, algorithm_b, algorithm_c])
    def test_all_schemes_noiseless(self, scheme_factory, gossip_line5):
        result = simulate(gossip_line5, scheme=scheme_factory(), seed=8)
        assert result.success


class TestNoiselessBehaviour:
    def test_early_stop_fires(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert result.iterations_run < result.iterations_budget

    def test_without_early_stop_all_iterations_run(self, pairwise_line4):
        scheme = crs_oblivious_scheme(early_stop=False, min_iterations=5, iteration_factor=1.0, extra_iterations=0)
        result = simulate(pairwise_line4, scheme=scheme, seed=1)
        assert result.iterations_run == result.iterations_budget

    def test_overhead_is_finite_and_recorded(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert result.overhead > 1.0
        assert result.metrics.simulation_communication == sum(
            result.metrics.communication_by_phase.values()
        )

    def test_no_noise_means_no_corruptions(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert result.metrics.corruptions == 0
        assert result.noise_fraction == 0.0
        assert result.metrics.hash_collisions_observed == 0

    def test_final_link_agreement_covers_all_chunks(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert all(value >= result.num_real_chunks for value in result.final_link_agreement.values())

    def test_deterministic_given_seed(self, gossip_line5):
        first = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=12)
        second = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=12)
        assert first.metrics.simulation_communication == second.metrics.simulation_communication
        assert first.outputs == second.outputs

    def test_trace_potential_records_snapshots(self, gossip_line5):
        scheme = crs_oblivious_scheme(trace_potential=True)
        result = simulate(gossip_line5, scheme=scheme, seed=1)
        assert result.potential_trace is not None
        assert len(result.potential_trace) == result.iterations_run
        assert result.potential_trace.is_monotone_nondecreasing("G_star")

    def test_crs_mode_has_no_randomness_exchange_traffic(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        assert "randomness_exchange" not in result.metrics.communication_by_phase

    def test_exchange_mode_pays_randomness_exchange_traffic(self, gossip_line5):
        result = simulate(gossip_line5, scheme=algorithm_a(), seed=1)
        assert result.metrics.communication_by_phase.get("randomness_exchange", 0) > 0
        assert result.metrics.randomness_exchange_failures == 0

    def test_summary_contains_key_fields(self, gossip_line5):
        result = simulate(gossip_line5, scheme=crs_oblivious_scheme(), seed=1)
        summary = result.summary()
        for key in ("scheme", "success", "cc_protocol", "cc_simulation", "overhead", "rate"):
            assert key in summary


class TestAblationsNoiseless:
    def test_flag_passing_disabled_still_correct_without_noise(self, gossip_line5):
        scheme = crs_oblivious_scheme(enable_flag_passing=False)
        assert simulate(gossip_line5, scheme=scheme, seed=1).success

    def test_rewind_disabled_still_correct_without_noise(self, gossip_line5):
        scheme = crs_oblivious_scheme(enable_rewind_phase=False)
        assert simulate(gossip_line5, scheme=scheme, seed=1).success

    def test_raw_hash_input_mode(self, pairwise_line4):
        scheme = crs_oblivious_scheme(hash_input_mode="raw")
        assert simulate(pairwise_line4, scheme=scheme, seed=1).success

    def test_custom_chunk_multiplier(self, gossip_line5):
        big_chunks = simulate(gossip_line5, scheme=crs_oblivious_scheme(chunk_multiplier=20), seed=1)
        small_chunks = simulate(gossip_line5, scheme=crs_oblivious_scheme(chunk_multiplier=2), seed=1)
        assert big_chunks.success and small_chunks.success
        assert big_chunks.overhead < small_chunks.overhead


class _ScriptedLine2(Protocol):
    """Two parties, fixed schedule: chunk 1 is rounds 0-2, chunk 2 rounds 3-5
    (budget 3).  Each party sends ``10 * party + round + (received bits)``
    mod 2, so a bit depends on what arrived earlier in the same phase."""

    SCHEDULE = [[(0, 1)], [(1, 0)], [(0, 1)], [(1, 0)], [(1, 0)], [(0, 1)]]

    def build_schedule(self):
        return [list(links) for links in self.SCHEDULE]

    def create_party(self, party):
        return _ScriptedParty(party)


class _ScriptedParty(PartyLogic):
    def send_bit(self, round_index, receiver, received):
        return (10 * self.party + round_index + sum(received.values())) % 2

    def compute_output(self, received):
        return dict(received)


class TestSimulationPhase:
    def test_unequal_transcripts_record_views_and_receptions(self):
        """Party 0 simulates chunk 2 while party 1 simulates chunk 1.

        Offset 0 schedules only listens (party 0 on round 3, party 1 on
        round 0), so nobody sends and, without insertions, the round is
        skipped: both views keep ``None`` there and neither party records a
        reception.  Offset 1: party 1 sends round 1, party 0 hears it as
        round 4.  Offset 2: party 0 sends round 5 from a received map that
        already holds that reception; party 1 hears it as round 2.
        """
        protocol = _ScriptedLine2(line_topology(2))
        simulator = InteractiveCodingSimulator(protocol, scheme=crs_oblivious_scheme(), seed=0)
        simulator.chunked = ChunkedProtocol(protocol, chunk_budget=3, padding_chunks=1)
        simulator._initialize_state()
        first = ChunkRecord(chunk_index=1, link_view=(0, 1, 0), received_by_round=((1, 1),))
        simulator.runtimes[0].transcripts[1].append(first)
        for runtime in simulator.runtimes.values():
            runtime.net_correct = 1
        rounds_before = simulator.network.current_round

        simulator._simulation_phase(0)

        # Party 1 sends round 1 knowing nothing: (10 + 1 + 0) % 2 = 1.
        # Party 0 sends round 5 having received (1, 1): 1 and (4, 1): 1,
        # so (0 + 5 + 2) % 2 = 1.
        assert simulator.runtimes[0].transcripts[1].records == [
            first,
            ChunkRecord(chunk_index=2, link_view=(None, 1, 1), received_by_round=((4, 1),)),
        ]
        assert simulator.runtimes[1].transcripts[0].records == [
            ChunkRecord(chunk_index=1, link_view=(None, 1, 1), received_by_round=((2, 1),)),
        ]
        # One ⊥ round plus the three-round window; the silent round is
        # collapsed rather than exchanged.
        assert simulator.network.current_round - rounds_before == 4
        assert simulator.network.idle_rounds_collapsed == 1
