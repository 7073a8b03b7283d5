"""Property-style equivalence suite for the meeting-points hashing fast path.

Mirrors ``tests/test_transport.py``: every layer of the batched hashing
machinery is run side by side with its per-call / per-bit reference over
random inputs, and the two must agree bit for bit —

* ``SmallBiasGenerator`` table-driven stepping vs the per-bit
  field-multiplication loop (``table_stepping=False``),
* ``SeedSource.seeds_for_iteration`` native overrides vs the per-call
  ``seed_for`` loop, for both seed-source implementations,
* ``InnerProductHash.digest_many`` vs one ``digest`` per value,
* ``MeetingPointsSession`` vs the per-call oracle
  :func:`~repro.core.meeting_points.per_call_message`, over random
  transcripts, seeds and corrupted replies,
* whole trials through the engine's production path vs the same trials with
  every window routed through the per-slot transport oracle
  (``tests/oracles.py``), for every scheme.
"""

from __future__ import annotations

import random

import pytest

from oracles import route_per_slot

from repro.adversary.strategies import DeletionAdversary, RandomNoiseAdversary
from repro.core.engine import InteractiveCodingSimulator
from repro.core.meeting_points import MeetingPointsSession, per_call_message
from repro.core.parameters import (
    algorithm_a,
    algorithm_b,
    crs_oblivious_scheme,
    scheme_by_name,
)
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import InnerProductHash
from repro.hashing.seeds import (
    SEED_PURPOSES,
    CrsSeedSource,
    ExchangedSeedSource,
    SeedLayout,
    seed_layout,
)
from repro.hashing.small_bias import _EXTENSION_CHUNK_BITS, SmallBiasGenerator, _StreamState
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.workloads import gossip_workload
from repro.utils.bitstring import bits_to_int, int_to_bits, pack_symbols
from repro.utils.rng import make_rng


# ---------------------------------------------------------------- small bias --


class TestSmallBiasExpansionEquivalence:
    def test_table_stepping_matches_per_bit_reference(self):
        rng = make_rng(11)
        for degree in (8, 16, 32, 64, 128):
            seed = rng.getrandbits(2 * degree)
            fast = SmallBiasGenerator(seed_bits=seed, field_degree=degree)
            reference = SmallBiasGenerator(
                seed_bits=seed, field_degree=degree, table_stepping=False
            )
            for _ in range(6):
                offset = rng.randint(0, 10_000)
                count = rng.randint(0, 400)
                assert fast.packed_bits(offset, count) == reference.packed_bits(offset, count)
                assert fast.packed_bits(offset, count) == bits_to_int(fast.bits(offset, count))

    def test_packed_slots_matches_per_slot_reads(self):
        rng = make_rng(12)
        for trial in range(8):
            generator = SmallBiasGenerator(seed_bits=rng.getrandbits(128))
            slots = []
            position = rng.randint(0, 500)
            for _ in range(rng.randint(1, 5)):
                position += rng.randint(0, 3000)
                length = rng.randint(0, 600)
                slots.append((position, length))
                position += length
            expected = tuple(generator.packed_bits(offset, count) for offset, count in slots)
            assert generator.packed_slots(slots) == expected

    def test_cursor_resume_across_sequential_reads(self):
        """Monotone packed_slots calls (the per-iteration access pattern) stay
        correct when the generator resumes from its cursor memo."""
        rng = make_rng(13)
        fast = SmallBiasGenerator(seed_bits=rng.getrandbits(128))
        cold = SmallBiasGenerator(seed_bits=fast.seed_bits)
        for iteration in range(6):
            base = iteration * 3 * 4096
            slots = [(base, 256), (base + 4096, 1024)]
            warm = fast.packed_slots(slots)
            assert warm == tuple(cold.packed_bits(offset, count) for offset, count in slots)

    def test_packed_slots_rejects_disorder(self):
        # The per-bit reference path validates exactly like the fast path.
        for table_stepping in (True, False):
            generator = SmallBiasGenerator(seed_bits=12345, table_stepping=table_stepping)
            with pytest.raises(ValueError, match="increasing-offset"):
                generator.packed_slots([(100, 50), (60, 10)])
            with pytest.raises(ValueError, match="increasing-offset"):
                generator.packed_slots([(0, 64), (32, 8)])  # overlapping
            with pytest.raises(ValueError, match="non-negative"):
                generator.packed_slots([(0, 8), (-4, 8)])

    @pytest.mark.parametrize(
        "degree, seed",
        [
            (64, 0x0123456789ABCDEF_FEDCBA9876543210),
            (64, 0x5DEECE66D_0000BEEF_1234567F),
            (32, 0x8BADF00D_0DEFACED),
            (16, 0xC0DE_0001),
            (64, 0xA5A5_0000_0000_0000 << 64),  # x = 0: the all-zero stream
            (64, 0xFFFF_0000_1234_5679),  # y = 0: one bit, then zeros
            (32, 0x9E3779B9),  # y = 0
        ],
    )
    def test_stepwise_growth_across_chunks_matches_one_shot(self, degree, seed):
        """Many small reads that cross several extension chunks grow the
        shared stream to exactly what one long read (and the per-bit field
        loop) produces."""
        total = 3 * _EXTENSION_CHUNK_BITS + 2 * degree + 777
        stepwise = SmallBiasGenerator(seed_bits=seed, field_degree=degree)
        stepwise._state = _StreamState()  # private state: no sharing with other tests
        rng = make_rng(degree + seed % 1000)
        value = offset = 0
        while offset < total:
            count = min(rng.randint(1, 900), total - offset)
            value |= stepwise.packed_bits(offset, count) << offset
            offset += count
        one_shot = SmallBiasGenerator(seed_bits=seed, field_degree=degree)
        one_shot._state = _StreamState()
        assert value == one_shot.packed_bits(0, total)
        samples = [0, 1, 2 * degree - 1, 2 * degree, _EXTENSION_CHUNK_BITS + degree, total - 1]
        samples += [rng.randrange(total) for _ in range(10)]
        for index in samples:
            assert (value >> index) & 1 == stepwise.bit(index), index

    def test_random_access_bit_agrees_with_sequential(self):
        generator = SmallBiasGenerator(seed_bits=make_rng(14).getrandbits(128))
        window = generator.bits(200, 40)
        for offset in range(40):
            assert generator.bit(200 + offset) == window[offset]


# -------------------------------------------------------------- seed sources --


def _per_bit_source(link_seed: int) -> ExchangedSeedSource:
    """An exchanged-seed source expanding through the per-bit reference loop."""
    source = ExchangedSeedSource(link_seed=link_seed)
    source._generator = SmallBiasGenerator(
        seed_bits=link_seed, field_degree=source.field_degree, table_stepping=False
    )
    return source


def _random_layout(rng: random.Random) -> SeedLayout:
    lengths = {}
    for purpose in SEED_PURPOSES:
        if rng.random() < 0.75:
            lengths[purpose] = rng.choice([1, 32, 256, 1024])
    return seed_layout(**lengths)


class TestSeedBatchEquivalence:
    def test_crs_batch_matches_per_call_reference(self):
        rng = make_rng(21)
        for trial in range(8):
            master = rng.getrandbits(48)
            link = (rng.randint(0, 5), rng.randint(6, 11))
            batched = CrsSeedSource(master_seed=master, link=link)
            per_call = CrsSeedSource(master_seed=master, link=link)
            for _ in range(4):
                iteration = rng.randint(0, 40)
                layout = _random_layout(rng)
                expected = tuple(
                    per_call.seed_for(iteration, purpose, length) if length else None
                    for purpose, length in zip(SEED_PURPOSES, layout.lengths)
                )
                assert batched.seeds_for_iteration(iteration, layout) == expected
                # warm second call (batch cache) and per-call reads of the
                # slots the batch just filled
                assert batched.seeds_for_iteration(iteration, layout) == expected
                for purpose, length in zip(SEED_PURPOSES, layout.lengths):
                    if length:
                        assert batched.seed_for(iteration, purpose, length) == per_call.seed_for(
                            iteration, purpose, length
                        )

    def test_exchanged_batch_matches_per_call_reference(self):
        rng = make_rng(22)
        for trial in range(6):
            seed = rng.getrandbits(128)
            batched = ExchangedSeedSource(link_seed=seed)
            per_call = ExchangedSeedSource(link_seed=seed)
            reference = _per_bit_source(seed)
            for iteration in sorted(rng.sample(range(12), 3)):
                layout = _random_layout(rng)
                expected = tuple(
                    per_call.seed_for(iteration, purpose, length) if length else None
                    for purpose, length in zip(SEED_PURPOSES, layout.lengths)
                )
                assert batched.seeds_for_iteration(iteration, layout) == expected
                assert reference.seeds_for_iteration(iteration, layout) == expected

    def test_default_batch_implementation_loops_seed_for(self):
        """The abstract default (no native override) is the per-call loop."""
        from repro.hashing.seeds import SeedSource

        source = CrsSeedSource(master_seed=7, link=(0, 1))
        layout = seed_layout(mp_counter=64, mp_prefix=128)
        expected = tuple(
            source.seed_for(3, purpose, length) if length else None
            for purpose, length in zip(SEED_PURPOSES, layout.lengths)
        )
        assert SeedSource.seeds_for_iteration(source, 3, layout) == expected
        assert source.seeds_for_iteration(3, layout) == expected

    def test_generator_sharing_requires_matching_configuration(self):
        a = ExchangedSeedSource(link_seed=1)
        b = ExchangedSeedSource(link_seed=2)
        with pytest.raises(ValueError):
            b.share_generator_with(a)
        c = ExchangedSeedSource(link_seed=1, slot_capacity_bits=2048)
        with pytest.raises(ValueError):
            c.share_generator_with(a)

    def test_generator_sharing_preserves_values(self):
        a = ExchangedSeedSource(link_seed=99)
        b = ExchangedSeedSource(link_seed=99)
        independent = ExchangedSeedSource(link_seed=99)
        b.share_generator_with(a)
        layout = seed_layout(mp_counter=256, mp_prefix=1024)
        assert a.seeds_for_iteration(0, layout) == independent.seeds_for_iteration(0, layout)
        assert b.seeds_for_iteration(0, layout) == independent.seeds_for_iteration(0, layout)
        assert b.seed_for(1, "mp_prefix", 512) == independent.seed_for(1, "mp_prefix", 512)

    def test_layout_interning_and_validation(self):
        assert seed_layout(mp_counter=8) is seed_layout(mp_counter=8)
        assert seed_layout(mp_counter=8) is not seed_layout(mp_counter=16)
        with pytest.raises(ValueError):
            seed_layout(bogus=8)
        with pytest.raises(ValueError):
            SeedLayout((1, 2))  # wrong arity
        with pytest.raises(ValueError):
            SeedLayout((-1, 0, 0))


# ------------------------------------------------------------- digest batching --


class TestDigestManyEquivalence:
    def test_matches_per_value_digest(self):
        rng = make_rng(31)
        for _ in range(20):
            tau = rng.choice([1, 4, 8, 12, 17])
            input_bits = rng.choice([1, 32, 128, 200])
            hasher = InnerProductHash(tau)
            seed = rng.getrandbits(hasher.seed_bits_required(input_bits))
            values = [rng.getrandbits(input_bits) for _ in range(rng.randint(1, 4))]
            assert hasher.digest_many(values, input_bits, seed) == tuple(
                hasher.digest(value, input_bits, seed) for value in values
            )

    def test_validates_like_digest(self):
        hasher = InnerProductHash(4)
        with pytest.raises(ValueError):
            hasher.digest_many([16], 4, 0)  # value too wide
        with pytest.raises(ValueError):
            hasher.digest_many([1], 4, 1 << 20)  # seed too long
        assert hasher.digest_many([], 4, 0) == ()


# ---------------------------------------------------- session vs per-call oracle --


def _transcript(owner: int, neighbor: int, payloads) -> LinkTranscript:
    transcript = LinkTranscript(owner, neighbor)
    for index, payload in enumerate(payloads, start=1):
        transcript.append(ChunkRecord(chunk_index=index, link_view=payload))
    return transcript


def _random_payloads(rng: random.Random, count: int):
    return [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(count)]


def _corrupt(rng: random.Random, message):
    """Randomly flip / erase a few symbols of an outgoing hash message."""
    symbols = list(message)
    for index in range(len(symbols)):
        roll = rng.random()
        if roll < 0.05:
            symbols[index] = None
        elif roll < 0.12:
            symbols[index] = 1 - symbols[index]
    return symbols


def _reply_group(reply, index: int, tau: int):
    """Hash group ``index`` of a symbol reply; ``None`` if any bit is missing."""
    group = reply[index * tau:(index + 1) * tau]
    return None if None in group else bits_to_int(group)


@pytest.mark.parametrize("source_kind", ["crs", "exchanged"])
@pytest.mark.parametrize("hash_input_mode", ["fingerprint", "raw"])
def test_session_fast_path_is_bit_identical_to_reference(source_kind, hash_input_mode):
    """The tentpole guarantee at session level: the batched session emits the
    per-call oracle's wire message under noisy replies, for every seed
    source, and its decisions read exactly the hash groups the oracle's
    digests predict (counter agreement, full match, meeting-point votes)."""
    for trial in range(6):
        rng = make_rng(1000 * trial + 41)
        tau = rng.choice([4, 8, 12])
        hasher = InnerProductHash(tau)
        mask = (1 << tau) - 1

        def build_source():
            # Raw-mode hash inputs need τ·4096-bit seeds, so give both
            # sources slots big enough to hold them (the unified expansion
            # contract sizes slots identically for CRS and exchanged seeds);
            # the exchanged seed fills both AGHP field elements (x and y
            # non-degenerate).
            if source_kind == "crs":
                return CrsSeedSource(master_seed=4242, link=(0, 1), slot_capacity_bits=1 << 16)
            return ExchangedSeedSource(
                link_seed=0x9D1C_37A2_55B0_4E11_6F08_42D3_91AC_7E65, slot_capacity_bits=1 << 16
            )

        transcript = _transcript(0, 1, _random_payloads(rng, rng.randint(0, 12)))
        session = MeetingPointsSession(
            hasher=hasher, seed_source=build_source(), hash_input_mode=hash_input_mode
        )
        # A separate source instance, so the oracle's per-call reads never hit
        # slots the session's batched reads cached.
        oracle_source = build_source()

        noise = make_rng(rng.getrandbits(32))
        for iteration in range(15):
            message = session.build_message_packed(iteration, transcript)
            expected = per_call_message(
                hasher, oracle_source, hash_input_mode, iteration, transcript, session.k
            )
            assert message == expected, (trial, iteration)

            own = [(expected >> (index * tau)) & mask for index in range(4)]
            reply = _corrupt(noise, int_to_bits(message, session.message_bits))
            groups = [_reply_group(reply, index, tau) for index in range(4)]
            k_before = session.k
            outcome = session.process_reply_packed(iteration, transcript, *pack_symbols(reply))
            assert outcome.k_agreed == (groups[0] == own[0]), (trial, iteration)
            assert outcome.full_match == (groups[1] == own[1]), (trial, iteration)
            if outcome.k_agreed and not outcome.full_match and k_before > 1:
                if own[2] in (groups[2], groups[3]):
                    expected_vote = "mp1"
                elif own[3] in (groups[2], groups[3]):
                    expected_vote = "mp2"
                else:
                    expected_vote = None
                assert outcome.vote == expected_vote, (trial, iteration)
            if outcome.truncate_to is not None:
                transcript.truncate_to(outcome.truncate_to)


# ------------------------------------------------------------ trial-level runs --


def _trial_fingerprint(result):
    return (
        result.success,
        result.outputs,
        result.metrics,
        result.channel_summary,
        result.iterations_run,
        result.final_link_agreement,
        result.randomness_exchange_agreed,
    )


_TRIAL_CASES = {
    "crs-noise": (crs_oblivious_scheme, lambda: RandomNoiseAdversary(corruption_probability=0.004, seed=3)),
    "crs-inserting": (
        crs_oblivious_scheme,
        lambda: RandomNoiseAdversary(corruption_probability=0.002, insertion_probability=0.002, seed=4),
    ),
    "algorithm-a-deletion": (algorithm_a, lambda: DeletionAdversary(deletion_probability=0.004, seed=5)),
    "algorithm-b-noise": (algorithm_b, lambda: RandomNoiseAdversary(corruption_probability=0.002, seed=6)),
}


def _run_trial(protocol, scheme, adversary, seed, per_slot):
    """One trial on the production path, or with every window dispatch routed
    through the per-slot transport oracle."""
    simulator = InteractiveCodingSimulator(protocol, scheme=scheme, adversary=adversary, seed=seed)
    if per_slot:
        route_per_slot(simulator.network)
    return simulator.run()


@pytest.mark.parametrize("case", sorted(_TRIAL_CASES))
def test_full_trial_bit_identity_across_fast_path_switches(case, gossip_clique4):
    """Whole trials agree field for field when the production transport
    (batched lockstep windows, packed meeting points) is switched out for
    the per-slot oracle."""
    scheme_factory, adversary_factory = _TRIAL_CASES[case]

    def run(per_slot: bool):
        return _run_trial(gossip_clique4, scheme_factory(), adversary_factory(), 7, per_slot)

    assert _trial_fingerprint(run(True)) == _trial_fingerprint(run(False)), case


@pytest.mark.parametrize("scheme_name", ["algorithm_crs", "algorithm_a", "algorithm_b", "algorithm_c"])
def test_reference_and_default_profiles_bit_identical(scheme_name):
    """Every scheme: the production path and the per-slot oracle agree on a
    noisy trial under the noise-sweep adversary."""
    workload = gossip_workload("clique", 4, 3, seed=0)
    scheme = scheme_by_name(scheme_name)
    fraction = scheme.nominal_noise_fraction(workload.protocol.graph)
    factory = RandomNoiseFactory(fraction=fraction)
    results = {}
    for label, per_slot in [("default", False), ("reference", True)]:
        result = _run_trial(workload.protocol, scheme, factory(3), 3, per_slot)
        results[label] = (result.success, result.metrics.as_dict())
    assert results["default"] == results["reference"]


@pytest.mark.parametrize("case", sorted(_TRIAL_CASES))
def test_full_trial_bit_identity_with_obs_on_and_off(case, gossip_clique4):
    """Observability is a pure reader: metrics + tracing change nothing.

    The tracer draws its ids from ``os.urandom`` and the registry flush runs
    after the simulation, so every field of the result — outputs, metrics,
    channel summary — must match the uninstrumented run bit for bit, on both
    the production transport and the per-slot oracle.
    """
    from repro.obs import MetricsRegistry, Tracer, use_obs

    scheme_factory, adversary_factory = _TRIAL_CASES[case]

    def run(per_slot: bool):
        return _run_trial(gossip_clique4, scheme_factory(), adversary_factory(), 7, per_slot)

    for per_slot in (False, True):
        plain = _trial_fingerprint(run(per_slot))
        registry = MetricsRegistry()
        with use_obs(metrics=registry, tracer=Tracer()):
            observed = _trial_fingerprint(run(per_slot))
        assert observed == plain, (case, per_slot)
        # The flush attributed the session's hash builds.
        counters = registry.snapshot()["counters"]
        assert counters.get("hashing.packed_builds", 0) > 0
