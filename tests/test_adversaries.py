"""Unit tests for the adversary implementations."""

from __future__ import annotations

import random

import pytest

from repro.adversary import ContractViolation, check_contract
from repro.adversary.base import Adversary, NoiseBudget, NoiselessAdversary
from repro.adversary.oblivious import AdditiveObliviousAdversary, FixingObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    DeletionAdversary,
    EchoSpoofingAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
    RotatingLinkAdaptiveAdversary,
)
from repro.network.channel import Symbol, TransmissionContext, WindowContext
from repro.utils.bitstring import pack_symbols, unpack_symbols


def _ctx(round_index=0, sender=0, receiver=1, phase="simulation", iteration=0):
    return TransmissionContext(
        round_index=round_index, sender=sender, receiver=receiver, phase=phase, iteration=iteration
    )


def _window_ctx(link=(0, 1), phase="simulation", iteration=0, base_round=0):
    return WindowContext(link=link, phase=phase, iteration=iteration, base_round=base_round)


class TestNoiseBudget:
    def test_allowance_grows_with_transmissions(self):
        budget = NoiseBudget(fraction=0.1)
        assert not budget.can_spend()
        for _ in range(10):
            budget.observe_transmission()
        assert budget.allowed == 1
        budget.spend()
        assert not budget.can_spend()
        assert budget.remaining == 0

    def test_absolute_allowance(self):
        budget = NoiseBudget(fraction=0.0, absolute_allowance=2)
        budget.spend()
        budget.spend()
        with pytest.raises(RuntimeError):
            budget.spend()

    def test_bulk_observe_matches_repeated_single_observes(self):
        bulk = NoiseBudget(fraction=0.1)
        single = NoiseBudget(fraction=0.1)
        bulk.observe_transmissions(37)
        for _ in range(37):
            single.observe_transmission()
        assert bulk == single
        assert bulk.allowed == single.allowed

    def test_bulk_observe_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            NoiseBudget(fraction=0.1).observe_transmissions(-1)

    def test_bulk_spend(self):
        budget = NoiseBudget(fraction=0.0, absolute_allowance=5)
        budget.spend(3)
        assert budget.remaining == 2
        with pytest.raises(RuntimeError):
            budget.spend(3)


class TestNoiseless:
    def test_identity(self):
        adversary = NoiselessAdversary()
        assert adversary.corrupt(_ctx(), 1) == 1
        assert adversary.corrupt(_ctx(), None) is None
        assert adversary.may_insert is False


class TestAdditiveOblivious:
    def test_pattern_applies_only_on_listed_slots(self):
        adversary = AdditiveObliviousAdversary(pattern={(0, 0, 1): 1})
        assert adversary.corrupt(_ctx(round_index=0), 0) == 1
        assert adversary.corrupt(_ctx(round_index=1), 0) == 0

    def test_pattern_can_delete_and_insert(self):
        adversary = AdditiveObliviousAdversary(pattern={(0, 0, 1): 1, (1, 0, 1): 2})
        assert adversary.corrupt(_ctx(round_index=1), 0) is None  # 0 + 2 = 2 -> silence
        assert adversary.corrupt(_ctx(round_index=0), None) == 0  # silence + 1 -> 0

    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            AdditiveObliviousAdversary(pattern={(0, 0, 1): 0})

    def test_planned_corruptions(self):
        adversary = AdditiveObliviousAdversary(pattern={(0, 0, 1): 1, (3, 1, 0): 2})
        assert adversary.planned_corruptions() == 2


class TestFixingOblivious:
    def test_fixes_output(self):
        adversary = FixingObliviousAdversary(pattern={(0, 0, 1): 1, (1, 0, 1): None})
        assert adversary.corrupt(_ctx(round_index=0), 0) == 1
        assert adversary.corrupt(_ctx(round_index=1), 1) is None
        assert adversary.corrupt(_ctx(round_index=2), 0) == 0

    def test_fixing_to_honest_value_is_not_a_corruption(self):
        adversary = FixingObliviousAdversary(pattern={(0, 0, 1): 1})
        assert adversary.corrupt(_ctx(round_index=0), 1) == 1


class TestRandomNoise:
    def test_zero_probability_never_corrupts(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.0, seed=1)
        assert all(adversary.corrupt(_ctx(round_index=i), 1) == 1 for i in range(50))

    def test_full_probability_always_corrupts(self):
        adversary = RandomNoiseAdversary(corruption_probability=1.0, seed=1)
        assert all(adversary.corrupt(_ctx(round_index=i), 1) != 1 for i in range(50))

    def test_budget_capped(self):
        budget = NoiseBudget(fraction=0.0, absolute_allowance=2)
        adversary = RandomNoiseAdversary(corruption_probability=1.0, seed=1, budget=budget)
        corrupted = sum(1 for i in range(20) if adversary.corrupt(_ctx(round_index=i), 1) != 1)
        assert corrupted == 2

    def test_reset_restores_stream(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.5, seed=3)
        first = [adversary.corrupt(_ctx(round_index=i), 1) for i in range(20)]
        adversary.reset()
        second = [adversary.corrupt(_ctx(round_index=i), 1) for i in range(20)]
        assert first == second

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            RandomNoiseAdversary(corruption_probability=1.5)


class TestRandomNoiseInsertingPackedKernel:
    """The native packed kernel for inserting random noise walks every slot."""

    @staticmethod
    def _windows(seed, count=40):
        """Seeded (bits, present, length) windows, silent slots included."""
        rng = random.Random(seed)
        windows = []
        for _ in range(count):
            length = rng.choice([0, 1, 7, 64, 384])
            shape = rng.random()
            if shape < 0.2:
                present = 0  # all silent, like a receiver-side exchange link
            elif shape < 0.4:
                present = (1 << length) - 1  # all present, like a sender-side link
            else:
                present = rng.getrandbits(length)
            windows.append((rng.getrandbits(length) & present, present, length))
        return windows

    @pytest.mark.parametrize(
        "corruption, insertion",
        [(0.05, 0.02), (0.3, 0.3), (0.0, 0.1), (1.0, 1.0)],
    )
    @pytest.mark.parametrize("budgeted", [False, True])
    def test_matches_corrupt_window(self, corruption, insertion, budgeted):
        def build():
            budget = NoiseBudget(fraction=0.05, absolute_allowance=2) if budgeted else None
            return RandomNoiseAdversary(
                corruption_probability=corruption,
                insertion_probability=insertion,
                seed=21,
                budget=budget,
            )

        packed, reference = build(), build()
        for index, (bits, present, length) in enumerate(self._windows(seed=7)):
            ctx = _window_ctx(base_round=index * 400)
            got = packed.corrupt_window_packed(ctx, bits, present, length)
            expected = reference.corrupt_window(ctx, tuple(unpack_symbols(bits, present, length)))
            assert got == pack_symbols(expected)
            assert got[0] & ~got[1] == 0
            assert packed._rng.getstate() == reference._rng.getstate()
            if budgeted:
                assert packed.budget.transmissions_seen == reference.budget.transmissions_seen
                assert packed.budget.corruptions_spent == reference.budget.corruptions_spent

    @pytest.mark.parametrize(
        "allowance",
        [None, 10**6, 3, 0],
        ids=["unbudgeted", "budget-open", "budget-exhausting", "budget-exhausted"],
    )
    def test_all_silent_windows_match_per_slot_oracle(self, allowance):
        """The all-silent branch (idle links of a dense dispatch): windows of
        1..N slots with ``present == 0`` draw, insert and spend exactly like
        the per-slot fallback, whether the budget is open, runs out midway or
        is exhausted from the start."""

        def build():
            budget = None if allowance is None else NoiseBudget(absolute_allowance=allowance)
            return RandomNoiseAdversary(
                corruption_probability=0.2, insertion_probability=0.3, seed=5, budget=budget
            )

        packed, reference = build(), build()
        inserted = 0
        for length in range(1, 41):
            ctx = _window_ctx(base_round=length * 50)
            got = packed.corrupt_window_packed(ctx, 0, 0, length)
            expected = Adversary.corrupt_window(reference, ctx, (None,) * length)
            assert got == pack_symbols(expected)
            assert packed._rng.getstate() == reference._rng.getstate()
            if allowance is not None:
                assert packed.budget.transmissions_seen == reference.budget.transmissions_seen == 0
                assert packed.budget.corruptions_spent == reference.budget.corruptions_spent
            inserted += got[1].bit_count()
        if allowance in (None, 10**6):
            assert inserted > 100  # the branch really inserted, not just passed through
        else:
            assert inserted == packed.budget.corruptions_spent == allowance


class TestLinkTargeted:
    def test_only_target_link_is_hit(self):
        adversary = LinkTargetedAdversary(target=(0, 1), max_corruptions=100, seed=0)
        assert adversary.corrupt(_ctx(sender=1, receiver=0), 1) == 1
        assert adversary.corrupt(_ctx(sender=0, receiver=1), 1) != 1

    def test_phase_restriction(self):
        adversary = LinkTargetedAdversary(target=(0, 1), phases=("simulation",), max_corruptions=10, seed=0)
        assert adversary.corrupt(_ctx(phase="meeting_points"), 1) == 1
        assert adversary.corrupt(_ctx(phase="simulation"), 1) != 1

    def test_max_corruptions_cap_survives_reset(self):
        adversary = LinkTargetedAdversary(target=(0, 1), max_corruptions=1, seed=0)
        adversary.reset()
        hits = sum(1 for i in range(10) if adversary.corrupt(_ctx(round_index=i), 1) != 1)
        assert hits == 1

    def test_fraction_budget(self):
        adversary = LinkTargetedAdversary(target=(0, 1), fraction=0.5, seed=0)
        hits = sum(1 for i in range(20) if adversary.corrupt(_ctx(round_index=i), 1) != 1)
        assert 8 <= hits <= 10  # roughly half of the observed transmissions


class TestBurst:
    def test_burst_window(self):
        adversary = BurstAdversary(start_round=5, end_round=7, max_corruptions=10, seed=0)
        assert adversary.corrupt(_ctx(round_index=4), 1) == 1
        assert adversary.corrupt(_ctx(round_index=5), 1) != 1
        assert adversary.corrupt(_ctx(round_index=8), 1) == 1

    def test_burst_cap(self):
        adversary = BurstAdversary(start_round=0, end_round=100, max_corruptions=2, seed=0)
        hits = sum(1 for i in range(50) if adversary.corrupt(_ctx(round_index=i), 1) != 1)
        assert hits == 2

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            BurstAdversary(start_round=5, end_round=1)


class TestDeletion:
    def test_only_deletes(self):
        adversary = DeletionAdversary(deletion_probability=1.0, seed=0)
        assert adversary.corrupt(_ctx(), 1) is None
        assert adversary.corrupt(_ctx(), None) is None


class TestAdaptive:
    def test_phase_targeted_respects_budget(self):
        adversary = PhaseTargetedAdaptiveAdversary(fraction=0.1, phases=("simulation",), seed=0)
        hits = 0
        for i in range(100):
            if adversary.corrupt(_ctx(round_index=i, phase="simulation"), 1) != 1:
                hits += 1
        assert 8 <= hits <= 11
        assert adversary.oblivious is False

    def test_rotating_link_requires_links(self):
        with pytest.raises(ValueError):
            RotatingLinkAdaptiveAdversary(links=(), fraction=0.1)

    def test_rotating_link_moves_across_links(self):
        adversary = RotatingLinkAdaptiveAdversary(links=((0, 1), (1, 0)), fraction=1.0, seed=0)
        corrupted_links = set()
        for i in range(40):
            sender, receiver = (0, 1) if i % 2 == 0 else (1, 0)
            result = adversary.corrupt(_ctx(round_index=i, sender=sender, receiver=receiver), 1)
            if result != 1:
                corrupted_links.add((sender, receiver))
        assert corrupted_links == {(0, 1), (1, 0)}

    def test_echo_spoofing_spends_in_pairs(self):
        adversary = EchoSpoofingAdversary(target=(0, 1), fraction=0.5, seed=0)
        # Build up budget by letting it observe unrelated traffic first.
        for i in range(10):
            assert adversary.corrupt(_ctx(round_index=i, sender=2, receiver=3), 1) == 1
        deleted = adversary.corrupt(_ctx(sender=0, receiver=1), 1)
        assert deleted is None
        spoofed = adversary.corrupt(_ctx(sender=1, receiver=0), None)
        assert spoofed in (0, 1)


class TestComposite:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            CompositeAdversary(components=())

    def test_applies_all_components(self):
        composite = CompositeAdversary(
            components=(
                DeletionAdversary(deletion_probability=0.0, seed=0),
                LinkTargetedAdversary(target=(0, 1), max_corruptions=100, seed=0),
            )
        )
        assert composite.corrupt(_ctx(sender=0, receiver=1), 1) != 1
        assert composite.oblivious is True

    def test_obliviousness_propagates(self):
        composite = CompositeAdversary(
            components=(
                PhaseTargetedAdaptiveAdversary(fraction=0.1, seed=0),
                NoiselessAdversary(),
            )
        )
        assert composite.oblivious is False

    def test_rejects_shared_noise_budget(self):
        """A budget shared between components would make the packed and
        per-slot paths diverge (the packed kernels mirror counters locally
        per component), so the unsupported configuration fails loudly."""
        shared = NoiseBudget(fraction=0.1)
        with pytest.raises(ValueError, match="share a NoiseBudget"):
            CompositeAdversary(
                components=(
                    RandomNoiseAdversary(corruption_probability=0.5, seed=0, budget=shared),
                    DeletionAdversary(deletion_probability=0.5, seed=1, budget=shared),
                )
            )
        # distinct budgets are fine, including across nesting levels
        CompositeAdversary(
            components=(
                RandomNoiseAdversary(
                    corruption_probability=0.5, seed=0, budget=NoiseBudget(fraction=0.1)
                ),
                CompositeAdversary(
                    components=(
                        DeletionAdversary(
                            deletion_probability=0.5, seed=1, budget=NoiseBudget(fraction=0.1)
                        ),
                    )
                ),
            )
        )


class TestMayInsertContract:
    """`may_insert` is a real, documented attribute of every stock adversary."""

    def test_every_stock_adversary_sets_may_insert(self):
        instances = [
            NoiselessAdversary(),
            AdditiveObliviousAdversary(pattern={(0, 0, 1): 1}),
            AdditiveObliviousAdversary(),
            FixingObliviousAdversary(pattern={(0, 0, 1): 1}),
            FixingObliviousAdversary(pattern={(0, 0, 1): None}),
            RandomNoiseAdversary(corruption_probability=0.1, seed=0),
            RandomNoiseAdversary(corruption_probability=0.1, insertion_probability=0.1, seed=0),
            LinkTargetedAdversary(target=(0, 1), fraction=0.1, seed=0),
            BurstAdversary(start_round=0, end_round=1, max_corruptions=1, seed=0),
            DeletionAdversary(deletion_probability=0.1, seed=0),
            CompositeAdversary(components=(NoiselessAdversary(),)),
            PhaseTargetedAdaptiveAdversary(fraction=0.1, seed=0),
            RotatingLinkAdaptiveAdversary(links=((0, 1),), fraction=0.1, seed=0),
            EchoSpoofingAdversary(target=(0, 1), fraction=0.1, seed=0),
        ]
        for adversary in instances:
            assert isinstance(adversary.may_insert, bool), adversary.name

    def test_may_insert_reflects_insertion_capability(self):
        assert NoiselessAdversary().may_insert is False
        assert AdditiveObliviousAdversary(pattern={(0, 0, 1): 1}).may_insert is True
        assert AdditiveObliviousAdversary().may_insert is False
        assert FixingObliviousAdversary(pattern={(0, 0, 1): None}).may_insert is False
        assert RandomNoiseAdversary(corruption_probability=0.5, seed=0).may_insert is False
        assert (
            RandomNoiseAdversary(
                corruption_probability=0.5, insertion_probability=0.1, seed=0
            ).may_insert
            is True
        )
        assert EchoSpoofingAdversary(target=(0, 1), fraction=0.1, seed=0).may_insert is True
        assert (
            CompositeAdversary(
                components=(
                    NoiselessAdversary(),
                    EchoSpoofingAdversary(target=(0, 1), fraction=0.1, seed=0),
                )
            ).may_insert
            is True
        )


class _NotifyDependentAdversary(Adversary):
    """Corrupts a slot iff the previous notification showed a clean delivery.

    Implements only `corrupt` + `notify_delivery` — the documented per-slot
    pattern — so composites containing it must fall back to slot-by-slot
    replay to stay bit-identical between the transmission paths.
    """

    name = "notify-dependent"
    may_insert = False

    def __init__(self):
        self.last_was_clean = False

    def corrupt(self, ctx, sent):
        if sent is not None and self.last_was_clean:
            return 1 - sent
        return sent

    def notify_delivery(self, ctx, sent, received):
        self.last_was_clean = sent == received

    def reset(self):
        self.last_was_clean = False


def test_composite_with_notify_using_component_stays_bit_identical():
    from repro.network.topologies import line_topology
    from repro.network.transport import NoisyNetwork

    def build():
        return CompositeAdversary(
            components=(
                RandomNoiseAdversary(corruption_probability=0.3, seed=9),
                _NotifyDependentAdversary(),
            )
        )

    packed = NoisyNetwork(line_topology(3), adversary=build())
    per_slot = NoisyNetwork(line_topology(3), adversary=build())
    messages = {(0, 1): [1, 1, 0, 1, 0, 1], (1, 2): [0, 1, 1, None, 1, 0]}
    a = packed.exchange_window_packed(
        {link: pack_symbols(symbols) for link, symbols in messages.items()}, 6, phase="simulation"
    )
    b = per_slot.exchange_window_per_slot(messages, 6, phase="simulation")
    assert a == {link: pack_symbols(symbols) for link, symbols in b.items()}
    assert packed.stats == per_slot.stats
    assert (
        packed.adversary.components[1].last_was_clean
        == per_slot.adversary.components[1].last_was_clean
    )


class _PerSlotOnlyAdversary(Adversary):
    """A custom adversary that only implements `corrupt` (fallback coverage)."""

    name = "per-slot-only"
    may_insert = True

    def __init__(self):
        self.calls = []
        self.notified = []

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        self.calls.append((ctx.round_index, ctx.slot_index, sent))
        if sent is None:
            return None
        return 1 - sent

    def notify_delivery(self, ctx, sent, received):
        self.notified.append((ctx.slot_index, sent, received))


class TestCorruptWindow:
    """The window contract: corrupt_window_packed must mirror per-slot corrupt calls."""

    def _per_slot_reference(self, build, ctx, window):
        """Drive `corrupt` slot by slot the way the per-slot transport would."""
        adversary = build()
        delivered = []
        for offset, sent in enumerate(window):
            if sent is None and not adversary.may_insert:
                delivered.append(None)
                continue
            slot = ctx.slot(offset)
            received = adversary.corrupt(slot, sent)
            adversary.notify_delivery(slot, sent, received)
            delivered.append(received)
        return adversary, delivered

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: NoiselessAdversary(),
            lambda: AdditiveObliviousAdversary(pattern={(2, 0, 1): 1, (4, 0, 1): 2}),
            lambda: FixingObliviousAdversary(pattern={(1, 0, 1): None, (3, 0, 1): 1}),
            lambda: RandomNoiseAdversary(
                corruption_probability=0.4, insertion_probability=0.2, seed=11
            ),
            lambda: RandomNoiseAdversary(
                corruption_probability=0.9,
                seed=5,
                budget=NoiseBudget(fraction=0.3, absolute_allowance=1),
            ),
            lambda: LinkTargetedAdversary(target=(0, 1), fraction=0.5, seed=3),
            lambda: BurstAdversary(start_round=1, end_round=4, max_corruptions=2, seed=9),
            lambda: DeletionAdversary(deletion_probability=0.5, seed=7),
            lambda: DeletionAdversary(
                deletion_probability=0.9, seed=2, budget=NoiseBudget(fraction=0.25)
            ),
            lambda: PhaseTargetedAdaptiveAdversary(
                fraction=0.4, phases=("simulation",), seed=4
            ),
            lambda: RotatingLinkAdaptiveAdversary(links=((0, 1), (1, 0)), fraction=1.0, seed=6),
            lambda: EchoSpoofingAdversary(target=(0, 1), fraction=0.6, seed=8),
        ],
        ids=[
            "noiseless",
            "additive",
            "fixing",
            "random-noise",
            "random-noise-budgeted",
            "link-targeted",
            "burst",
            "deletion",
            "deletion-budgeted",
            "phase-targeted",
            "rotating-link",
            "echo-spoofing",
        ],
    )
    def test_window_matches_slot_by_slot_reference(self, builder):
        window = [1, 0, None, 1, None, 0, 1, 1]
        ctx = _window_ctx(link=(0, 1), phase="simulation", base_round=0)
        reference_adversary, reference = self._per_slot_reference(builder, ctx, window)
        adversary = builder()
        delivered = adversary.corrupt_window_packed(ctx, *pack_symbols(window), len(window))
        assert delivered == pack_symbols(reference)
        rng = getattr(adversary, "_rng", None)
        if rng is not None:
            assert rng.getstate() == reference_adversary._rng.getstate()

    def test_fallback_covers_corrupt_only_adversaries(self):
        adversary = _PerSlotOnlyAdversary()
        ctx = _window_ctx(link=(0, 1), base_round=10)
        delivered = adversary.corrupt_window_packed(ctx, *pack_symbols([1, None, 0]), 3)
        assert unpack_symbols(*delivered, 3) == [0, None, 1]
        # the fallback materialised one per-slot context per slot, in order,
        # and interleaved the notification hook exactly like the slot path
        assert adversary.calls == [(10, 0, 1), (11, 1, None), (12, 2, 0)]
        assert adversary.notified == [(0, 1, 0), (1, None, None), (2, 0, 1)]

    def test_fallback_skips_silent_slots_for_non_inserting_adversaries(self):
        adversary = _PerSlotOnlyAdversary()
        adversary.may_insert = False
        delivered = adversary.corrupt_window_packed(_window_ctx(), *pack_symbols([None, 1, None]), 3)
        assert unpack_symbols(*delivered, 3) == [None, 0, None]
        assert adversary.calls == [(1, 1, 1)]

    def test_window_context_slot_materialisation(self):
        ctx = _window_ctx(link=(3, 5), phase="rewind", iteration=7, base_round=100)
        slot = ctx.slot(4)
        assert slot == TransmissionContext(
            round_index=104, sender=3, receiver=5, phase="rewind", iteration=7, slot_index=4
        )
        assert ctx.sender == 3 and ctx.receiver == 5

    def test_window_context_equality_and_hash(self):
        a = _window_ctx(link=(0, 1), phase="simulation", iteration=1, base_round=4)
        b = _window_ctx(link=(0, 1), phase="simulation", iteration=1, base_round=4)
        c = _window_ctx(link=(1, 0), phase="simulation", iteration=1, base_round=4)
        assert a == b and a != c
        assert hash(a) == hash(b)
        assert {a, b, c} == {a, c}


#: Every stock adversary in every shipped mode, as fresh-instance builders.
#: The round-/link-keyed ones are configured to overlap the conformance
#: checker's default probe region so the interesting branches execute.
STOCK_CONTRACT_CASES = {
    "noiseless": lambda: NoiselessAdversary(),
    "additive": lambda: AdditiveObliviousAdversary(
        pattern={(3, 0, 1): 1, (17, 1, 0): 2, (40, 1, 2): 1}
    ),
    "fixing": lambda: FixingObliviousAdversary(
        pattern={(5, 0, 1): None, (20, 1, 2): 1, (33, 2, 1): 0}
    ),
    "random-noise": lambda: RandomNoiseAdversary(
        corruption_probability=0.3, insertion_probability=0.2, seed=1
    ),
    "random-noise-budgeted": lambda: RandomNoiseAdversary(
        corruption_probability=0.4, seed=2, budget=NoiseBudget(fraction=0.2)
    ),
    "random-noise-inserting-budgeted": lambda: RandomNoiseAdversary(
        corruption_probability=0.3,
        insertion_probability=0.25,
        seed=12,
        budget=NoiseBudget(fraction=0.2, absolute_allowance=1),
    ),
    "deletion": lambda: DeletionAdversary(deletion_probability=0.3, seed=3),
    "link-targeted": lambda: LinkTargetedAdversary(
        target=(0, 1), fraction=0.3, corruption_probability=0.8, seed=4
    ),
    "burst": lambda: BurstAdversary(start_round=10, end_round=40, max_corruptions=6, seed=5),
    "composite-slot": lambda: CompositeAdversary(
        components=(
            AdditiveObliviousAdversary(pattern={(4, 0, 1): 2, (21, 1, 0): 1, (30, 1, 2): 2}),
            FixingObliviousAdversary(pattern={(4, 0, 1): 1, (25, 2, 1): None, (38, 1, 2): 0}),
        )
    ),
    "composite-stateful": lambda: CompositeAdversary(
        components=(
            RandomNoiseAdversary(corruption_probability=0.2, seed=6),
            BurstAdversary(start_round=20, end_round=50, max_corruptions=3, seed=7),
        )
    ),
    "echo-spoofing": lambda: EchoSpoofingAdversary(target=(0, 1), fraction=0.4, seed=8),
    "phase-targeted": lambda: PhaseTargetedAdaptiveAdversary(fraction=0.3, seed=9),
    "rotating-link": lambda: RotatingLinkAdaptiveAdversary(
        links=((0, 1), (1, 2)), fraction=0.3, seed=10
    ),
}


class TestCheckContract:
    """`repro.adversary.check_contract` conformance over every stock adversary."""

    @pytest.mark.parametrize(
        "builder", list(STOCK_CONTRACT_CASES.values()), ids=list(STOCK_CONTRACT_CASES)
    )
    def test_every_stock_adversary_conforms(self, builder):
        adversary = builder()
        report = check_contract(adversary)
        assert report.adversary == adversary.name
        assert report.slot_addressed is adversary.slot_addressed
        assert "packed-equivalence" in report.laws
        if adversary.slot_addressed:
            assert {"purity", "slot-decomposability", "path-agreement"} <= set(report.laws)
        else:
            assert "truthful-flag" in report.laws

    def test_checker_does_not_mutate_the_subject(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.5, seed=42)
        stream_before = adversary._rng.getstate()
        check_contract(adversary)
        assert adversary._rng.getstate() == stream_before

    def test_rejects_stateful_adversary_lying_about_slot_addressing(self):
        class LyingAdversary(RandomNoiseAdversary):
            """Claims the contract but draws from its sequential stream.

            All three paths agree bit for bit (so packed-equivalence holds),
            yet every evaluation advances ``self._rng`` — the purity law is
            what must catch it.
            """

            def corrupt(self, ctx, sent):
                if sent is None:
                    return None
                return sent if self._rng.random() >= 0.5 else 1 - sent

            def corruption_schedule(self, ctx, symbols):
                return [self.corrupt(None, sent) for sent in symbols]

            corrupt_window = corruption_schedule
            # Drop the parent's native packed kernel (it replays the *stock*
            # corrupt, not ours) so packed-equivalence holds via the fallback
            # and the purity law is what must catch the lie.
            corrupt_window_packed = Adversary.corrupt_window_packed

        lying = LyingAdversary(corruption_probability=0.0, seed=0)
        lying.slot_addressed = True
        with pytest.raises(ContractViolation, match="purity"):
            check_contract(lying)

    def test_rejects_window_position_dependent_schedule(self):
        class OffsetKeyedAdversary(NoiselessAdversary):
            """Pure and stateless, but keyed on window offset, not round."""

            def corruption_schedule(self, ctx, symbols):
                return [
                    (None if sent is None else 1 - sent) if offset == 0 else sent
                    for offset, sent in enumerate(symbols)
                ]

        with pytest.raises(ContractViolation, match="slot-decomposability"):
            check_contract(OffsetKeyedAdversary())

    def test_rejects_schedule_disagreeing_with_corrupt(self):
        class DisagreeingAdversary(NoiselessAdversary):
            # Restore the per-slot fallback so the packed path replays the
            # divergent ``corrupt`` (packed-equivalence holds) and only the
            # schedule/corrupt disagreement is left to catch.
            corrupt_window_packed = Adversary.corrupt_window_packed

            def corrupt(self, ctx, sent):
                return None if sent == 1 else sent

        with pytest.raises(ContractViolation, match="path-agreement"):
            check_contract(DisagreeingAdversary())

    def test_rejects_untruthful_flag(self):
        class NotReallyStatefulAdversary(NoiselessAdversary):
            slot_addressed = False

        with pytest.raises(ContractViolation, match="truthful-flag"):
            check_contract(NotReallyStatefulAdversary())

    def test_rejects_batched_divergence(self):
        """A third-party list-valued ``corrupt_window`` is what the base packed
        fallback runs, so its divergence from per-slot ``corrupt`` must fail
        the packed law."""

        class DivergentListKernelAdversary(Adversary):
            may_insert = False

            def __init__(self):
                self._rng = random.Random(1)

            def corrupt(self, ctx, sent):
                return None if self._rng.random() < 0.5 else sent

            def corrupt_window(self, ctx, symbols):
                return list(symbols)  # skips the per-slot RNG draws

            def reset(self):
                self._rng = random.Random(1)

        with pytest.raises(ContractViolation, match="packed-equivalence"):
            check_contract(DivergentListKernelAdversary())

    def test_rejects_packed_divergence(self):
        class DivergentPackedAdversary(DeletionAdversary):
            def corrupt_window_packed(self, ctx, bits, present, count):
                return bits, present  # skips the per-slot RNG draws

        divergent = DivergentPackedAdversary(deletion_probability=0.5, seed=1)
        with pytest.raises(ContractViolation, match="packed-equivalence"):
            check_contract(divergent)

    def test_rejects_packed_plane_invariant_break(self):
        class LeakyPlanesAdversary(NoiselessAdversary):
            def corrupt_window_packed(self, ctx, bits, present, count):
                # Claims a 1-bit on a slot it simultaneously marks silent.
                return (~present) & ((1 << count) - 1), present

        with pytest.raises(ContractViolation, match="packed-equivalence"):
            check_contract(LeakyPlanesAdversary())

    @pytest.mark.parametrize(
        "builder", list(STOCK_CONTRACT_CASES.values()), ids=list(STOCK_CONTRACT_CASES)
    )
    def test_conformance_is_recorder_invariant(self, builder):
        """An ambient flight recorder must not perturb the conformance probe.

        The probe replays the adversary's RNG and budget state across its
        windows; if recorder presence changed either, the same adversary
        would pass dark and fail observed (or vice versa).  Pin report
        equality and identical end state across the two runs.
        """
        from repro.adversary.contract import _state_snapshot
        from repro.obs import FlightRecorder, use_obs

        dark_report = check_contract(builder())
        observed_subject = builder()
        with use_obs(recorder=FlightRecorder()):
            observed_report = check_contract(observed_subject)
        assert observed_report == dark_report
        assert _state_snapshot(observed_subject) == _state_snapshot(builder())


class TestSlotAddressedModes:
    """Which adversaries report the slot-addressed contract, and its laws."""

    def test_burst_cap_rules(self):
        with pytest.raises(ValueError, match="non-negative int"):
            BurstAdversary(start_round=0, end_round=9, max_corruptions=None)
        with pytest.raises(ValueError, match="non-negative int"):
            BurstAdversary(start_round=0, end_round=9, max_corruptions=-1)

    def test_schedule_requires_the_flag(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.5, seed=0)
        with pytest.raises(RuntimeError, match="not slot-addressed"):
            adversary.corruption_schedule(_window_ctx(), (1, 0, 1))

    def test_slot_addressed_schedule_is_grouping_independent(self):
        # Offsets on transmitted slots and on the silent slots 102 and 104
        # (insertions), straddling the split point of the halves.
        adversary = AdditiveObliviousAdversary(
            pattern={(100, 0, 1): 1, (102, 0, 1): 2, (103, 0, 1): 2, (104, 0, 1): 1,
                     (106, 0, 1): 1}
        )
        symbols = (1, 0, None, 1, None, 0, 1, 1)
        whole = adversary.corruption_schedule(_window_ctx(base_round=100), symbols)
        halves = adversary.corruption_schedule(
            _window_ctx(base_round=100), symbols[:4]
        ) + adversary.corruption_schedule(_window_ctx(base_round=104), symbols[4:])
        reversed_slots = [
            adversary.corruption_schedule(_window_ctx(base_round=100 + offset), (symbols[offset],))[0]
            for offset in reversed(range(len(symbols)))
        ][::-1]
        assert whole == halves == reversed_slots

    def test_composite_slot_addressing_propagates(self):
        pure = CompositeAdversary(
            components=(
                NoiselessAdversary(),
                AdditiveObliviousAdversary(pattern={(3, 0, 1): 1, (5, 1, 0): 2}),
            )
        )
        assert pure.slot_addressed is True
        poisoned = CompositeAdversary(
            components=(
                AdditiveObliviousAdversary(pattern={(3, 0, 1): 1, (5, 1, 0): 2}),
                EchoSpoofingAdversary(target=(0, 1), fraction=0.1, seed=1),
            )
        )
        assert poisoned.slot_addressed is False

    def test_stateful_stock_adversaries_report_false(self):
        stateful = [
            RandomNoiseAdversary(corruption_probability=0.1, seed=0),
            DeletionAdversary(deletion_probability=0.1, seed=0),
            LinkTargetedAdversary(target=(0, 1), fraction=0.1, seed=0),
            BurstAdversary(start_round=0, end_round=5, max_corruptions=2, seed=0),
            EchoSpoofingAdversary(target=(0, 1), fraction=0.1, seed=0),
            PhaseTargetedAdaptiveAdversary(fraction=0.1, seed=0),
            RotatingLinkAdaptiveAdversary(links=((0, 1),), fraction=0.1, seed=0),
        ]
        for adversary in stateful:
            assert adversary.slot_addressed is False, adversary.name

    def test_oblivious_stock_adversaries_report_true_natively(self):
        assert NoiselessAdversary().slot_addressed is True
        assert AdditiveObliviousAdversary(pattern={(0, 0, 1): 1}).slot_addressed is True
        assert FixingObliviousAdversary(pattern={(0, 0, 1): None}).slot_addressed is True
