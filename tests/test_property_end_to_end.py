"""Property-based end-to-end tests.

These are the highest-value invariants of the reproduction:

* **Correctness under tolerated noise** — for random small protocols, random
  topologies and random (budgeted) noise, the simulation either reproduces
  the noiseless outputs exactly or the injected noise exceeded the scheme's
  regime; under no noise it must always succeed.
* **Accounting invariants** — communication and corruption counters are
  internally consistent for every run.
* **Meeting-points invariant** — for arbitrary divergent transcript pairs,
  the mechanism always reconverges to a common prefix with bounded overshoot.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.strategies import LinkTargetedAdversary, RandomNoiseAdversary
from repro.core.engine import simulate
from repro.core.meeting_points import STATUS_SIMULATE, MeetingPointsSession
from repro.core.parameters import crs_oblivious_scheme
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import InnerProductHash
from repro.hashing.seeds import CrsSeedSource
from repro.network.topologies import random_connected_topology
from repro.protocols.random_protocol import RandomProtocol

_SLOW = settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _random_workload(num_nodes: int, num_rounds: int, density: float, seed: int) -> RandomProtocol:
    graph = random_connected_topology(num_nodes, 0.3, seed=seed)
    inputs = {party: (seed * 31 + party * 7) % 1024 for party in graph.nodes}
    return RandomProtocol(graph, inputs, num_rounds=num_rounds, density=density, seed=seed + 1)


class TestEndToEndProperties:
    @_SLOW
    @given(
        num_nodes=st.integers(3, 6),
        num_rounds=st.integers(4, 14),
        density=st.floats(0.2, 0.8),
        seed=st.integers(0, 10_000),
    )
    def test_noiseless_simulation_always_correct(self, num_nodes, num_rounds, density, seed):
        protocol = _random_workload(num_nodes, num_rounds, density, seed)
        result = simulate(protocol, scheme=crs_oblivious_scheme(), seed=seed)
        assert result.success

    @_SLOW
    @given(
        num_nodes=st.integers(3, 5),
        seed=st.integers(0, 10_000),
        errors=st.integers(1, 2),
    )
    def test_few_targeted_errors_always_recovered(self, num_nodes, seed, errors):
        protocol = _random_workload(num_nodes, 10, 0.5, seed)
        edges = protocol.graph.edges
        target = edges[seed % len(edges)]
        adversary = LinkTargetedAdversary(
            target=target, phases=("simulation",), max_corruptions=errors, seed=seed
        )
        result = simulate(protocol, scheme=crs_oblivious_scheme(), adversary=adversary, seed=seed)
        assert result.success

    @_SLOW
    @given(seed=st.integers(0, 10_000))
    def test_accounting_invariants(self, seed):
        protocol = _random_workload(4, 8, 0.5, seed)
        adversary = RandomNoiseAdversary(corruption_probability=0.004, insertion_probability=0.001, seed=seed)
        result = simulate(protocol, scheme=crs_oblivious_scheme(), adversary=adversary, seed=seed)
        metrics = result.metrics
        # phase breakdowns sum to the totals
        assert sum(metrics.communication_by_phase.values()) == metrics.simulation_communication
        assert sum(metrics.corruptions_by_phase.values()) == metrics.corruptions
        # the noise fraction is consistent with its definition
        if metrics.simulation_communication:
            assert abs(metrics.noise_fraction - metrics.corruptions / metrics.simulation_communication) < 1e-9
        # rates are inverses
        if metrics.simulation_communication:
            assert metrics.rate * metrics.overhead == 1.0 or abs(metrics.rate * metrics.overhead - 1.0) < 1e-9
        # iteration counts within budget
        assert 1 <= result.iterations_run <= result.iterations_budget


class TestMeetingPointsProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        common=st.lists(st.integers(0, 3), min_size=0, max_size=10),
        suffix_u=st.lists(st.integers(0, 3), min_size=0, max_size=4),
        suffix_v=st.lists(st.integers(0, 3), min_size=0, max_size=4),
        master_seed=st.integers(0, 1_000),
    )
    def test_divergent_transcripts_always_reconverge(self, common, suffix_u, suffix_v, master_seed):
        # Make the suffixes genuinely divergent (distinct chunk content).
        suffix_u = [(value, 0) for value in suffix_u]
        suffix_v = [(value, 1) for value in suffix_v]

        def build(owner, neighbor, payloads):
            transcript = LinkTranscript(owner, neighbor)
            for index, payload in enumerate(payloads, start=1):
                if isinstance(payload, tuple):
                    view = payload
                else:
                    view = (payload,)
                transcript.append(ChunkRecord(chunk_index=index, link_view=view))
            return transcript

        transcript_u = build(0, 1, list(common) + suffix_u)
        transcript_v = build(1, 0, list(common) + suffix_v)
        divergence = max(len(suffix_u), len(suffix_v))

        hasher = InnerProductHash(14)
        session_u = MeetingPointsSession(hasher=hasher, seed_source=CrsSeedSource(master_seed, (0, 1)))
        session_v = MeetingPointsSession(hasher=hasher, seed_source=CrsSeedSource(master_seed, (0, 1)))

        converged = False
        for iteration in range(80):
            full = (1 << session_u.message_bits) - 1
            message_u = session_u.build_message_packed(iteration, transcript_u)
            message_v = session_v.build_message_packed(iteration, transcript_v)
            outcome_u = session_u.process_reply_packed(iteration, transcript_u, message_v, full)
            outcome_v = session_v.process_reply_packed(iteration, transcript_v, message_u, full)
            if outcome_u.truncate_to is not None:
                transcript_u.truncate_to(outcome_u.truncate_to)
            if outcome_v.truncate_to is not None:
                transcript_v.truncate_to(outcome_v.truncate_to)
            if outcome_u.status == STATUS_SIMULATE and outcome_v.status == STATUS_SIMULATE:
                converged = True
                break

        assert converged, "meeting points failed to reconverge"
        # After convergence both sides hold the same (possibly shortened) prefix
        # of the common part; with a 14-bit hash collisions are negligible here.
        assert len(transcript_u) == len(transcript_v)
        assert transcript_u.matches_prefix(transcript_v)
        assert len(transcript_u) <= len(common)
