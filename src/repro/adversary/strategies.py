"""Concrete noise strategies.

Two families:

* **Content-oblivious strategies** decide whether to corrupt a slot from the
  slot's coordinates (round, link, phase) and their own pre-seeded RNG only —
  never from the transmitted symbol or the parties' randomness.  Fixing their
  RNG seed turns each of them into an explicit oblivious noise pattern in the
  sense of §2.1 (the pattern could be materialised up front; we evaluate it
  lazily for convenience).
* **Adaptive (non-oblivious) strategies** may look at the symbol on the wire
  and at everything delivered so far, which is exactly the extra power
  Algorithm B / Algorithm C are designed to resist.

All budgeted strategies spend from a :class:`~repro.adversary.base.NoiseBudget`
whose allowance grows with the *actual* communication, matching the relative
noise fraction of the theorems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, NoiseBudget
from repro.network.channel import Symbol, TransmissionContext, WindowContext
from repro.utils.rng import make_rng


def _corrupt_randomly(rng: random.Random, symbol: Symbol) -> Symbol:
    """Pick a uniformly random corruption of ``symbol`` (always a real change)."""
    if symbol is None:
        return rng.choice([0, 1])  # insertion
    return rng.choice([1 - symbol, None])  # substitution or deletion


@dataclass
class RandomNoiseAdversary(Adversary):
    """Corrupt each transmitted slot independently with a fixed probability.

    This is the natural stochastic instantiation of an oblivious adversary:
    the coin flips depend only on the slot index and the adversary's own seed.
    ``insertion_probability`` controls extra insertions on silent slots
    (0 disables them and lets the transport skip silent slots entirely).
    """

    corruption_probability: float = 0.0
    insertion_probability: float = 0.0
    seed: int = 0
    budget: Optional[NoiseBudget] = None
    name: str = "random-noise"
    oblivious: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption_probability <= 1.0:
            raise ValueError("corruption_probability must lie in [0, 1]")
        if not 0.0 <= self.insertion_probability <= 1.0:
            raise ValueError("insertion_probability must lie in [0, 1]")
        self._rng = make_rng(self.seed)
        self.may_insert = self.insertion_probability > 0.0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if self.budget is not None and sent is not None:
            self.budget.observe_transmission()
        probability = self.insertion_probability if sent is None else self.corruption_probability
        if probability <= 0.0 or self._rng.random() >= probability:
            return sent
        if self.budget is not None and not self.budget.can_spend():
            return sent
        corrupted = _corrupt_randomly(self._rng, sent)
        if self.budget is not None:
            self.budget.spend()
        return corrupted

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Without insertions only the transmitted slots matter, so the kernel
        # walks the set bits of ``present`` LSB-first — which is exactly
        # offset order, preserving the per-slot path's RNG draw sequence
        # draw for draw.  Insertions make silent slots draw too, so that case
        # walks every slot.
        insertion_probability = self.insertion_probability
        if insertion_probability > 0.0:
            if present:
                return self._corrupt_every_slot_packed(bits, present, count)
            # An all-silent window (every idle link of a dense dispatch): one
            # insertion draw per slot, then the choice on a hit the budget
            # allows.  Nothing is transmitted, so the budget's transmission
            # count cannot move and its own methods decide directly.
            rng = self._rng
            rand = rng.random
            budget = self.budget
            for slot in range(count):
                if rand() >= insertion_probability:
                    continue
                if budget is not None:
                    if not budget.can_spend():
                        continue
                    budget.spend()
                present |= 1 << slot
                if _corrupt_randomly(rng, None):
                    bits |= 1 << slot
            return bits, present
        probability = self.corruption_probability
        budget = self.budget
        if probability <= 0.0:
            if budget is not None and present:
                budget.observe_transmissions(present.bit_count())
            return bits, present
        rng = self._rng
        rand = rng.random
        if budget is None:
            remaining = present
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                if rand() >= probability:
                    continue
                received = _corrupt_randomly(rng, (bits >> (low.bit_length() - 1)) & 1)
                if received is None:
                    bits &= ~low
                    present ^= low
                elif received:
                    bits |= low
                else:
                    bits &= ~low
            return bits, present
        seen = budget.transmissions_seen
        spent = budget.corruptions_spent
        fraction = budget.fraction
        allowance = budget.absolute_allowance
        allowance_at = budget.allowance_at
        remaining = present
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            seen += 1
            if rand() >= probability or spent + 1 > allowance_at(fraction, seen, allowance):
                continue
            received = _corrupt_randomly(rng, (bits >> (low.bit_length() - 1)) & 1)
            spent += 1
            if received is None:
                bits &= ~low
                present ^= low
            elif received:
                bits |= low
            else:
                bits &= ~low
        budget.transmissions_seen = seen
        budget.corruptions_spent = spent
        return bits, present

    def _corrupt_every_slot_packed(self, bits: int, present: int, count: int) -> Tuple[int, int]:
        """The packed kernel when silent slots may draw (insertions enabled).

        Walks all ``count`` slots in offset order and draws exactly what
        the per-slot path draws: one ``random()`` per slot whose
        probability (insertion if silent, corruption if present) is positive,
        then the corruption choice on a hit the budget allows.  Slots are
        visited run by run — maximal stretches of equally present slots, read
        off the trailing ones or zeros of ``present`` — so an all-present
        window is one tight loop.  The budget only reads its transmission
        count at a hit, so that count is the popcount of ``present`` up to
        the hit slot instead of a per-slot add.
        """
        rng = self._rng
        rand = rng.random
        budget = self.budget
        if budget is not None:
            seen = budget.transmissions_seen
            spent = budget.corruptions_spent
            fraction = budget.fraction
            allowance = budget.absolute_allowance
            allowance_at = budget.allowance_at
        sent_present = present
        offset = 0
        while offset < count:
            rest = sent_present >> offset
            transmitted = rest & 1
            if transmitted:
                end = offset + (rest ^ (rest + 1)).bit_length() - 1
                probability = self.corruption_probability
            else:
                end = offset + (rest & -rest).bit_length() - 1 if rest else count
                probability = self.insertion_probability
            if probability:
                for slot in range(offset, end):
                    if rand() >= probability:
                        continue
                    low = 1 << slot
                    if budget is not None:
                        seen_here = seen + (sent_present & ((low << 1) - 1)).bit_count()
                        if spent + 1 > allowance_at(fraction, seen_here, allowance):
                            continue
                        spent += 1
                    received = _corrupt_randomly(rng, (bits >> slot) & 1 if transmitted else None)
                    if received is None:
                        bits &= ~low
                        present &= ~low
                    else:
                        present |= low
                        bits = bits | low if received else bits & ~low
            offset = end
        if budget is not None:
            budget.transmissions_seen = seen + sent_present.bit_count()
            budget.corruptions_spent = spent
        return bits, present

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        if self.budget is not None:
            self.budget.transmissions_seen = 0
            self.budget.corruptions_spent = 0


@dataclass
class LinkTargetedAdversary(Adversary):
    """Concentrate the noise on one directed link.

    Optionally restricted to a set of phases (for instance only the
    ``"simulation"`` phase, or only the ``"randomness_exchange"`` prefix —
    the attack Section 5 must defend against).  Content-oblivious.

    The attack is bounded either by a relative ``fraction`` of the realised
    communication (the theorems' noise model) or by an absolute
    ``max_corruptions`` (useful for "exactly k errors" experiments); when
    ``max_corruptions`` is set it is the only limit that applies.
    """

    target: Tuple[int, int] = (0, 1)
    fraction: float = 0.0
    phases: Optional[Sequence[str]] = None
    corruption_probability: float = 1.0
    max_corruptions: Optional[int] = None
    seed: int = 0
    name: str = "link-targeted"
    oblivious: bool = True
    may_insert: bool = False

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._spent = 0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        if (ctx.sender, ctx.receiver) != self.target:
            return sent
        if self.phases is not None and ctx.phase not in self.phases:
            return sent
        if sent is None:
            return sent
        if self._rng.random() >= self.corruption_probability:
            return sent
        if self.max_corruptions is not None:
            if self._spent >= self.max_corruptions:
                return sent
        elif not self._budget.can_spend():
            return sent
        if self.max_corruptions is None:
            self._budget.spend()
        self._spent += 1
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Off-target windows pass their planes through untouched, but the
        # budget observes their realised communication.
        if ctx.link != tuple(self.target) or (
            self.phases is not None and ctx.phase not in self.phases
        ):
            if present:
                self._budget.observe_transmissions(present.bit_count())
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._spent = 0


@dataclass
class BurstAdversary(Adversary):
    """Corrupt every transmission inside a window of absolute rounds.

    Models the "all the noise lands in one short interval" worst case; the
    total damage is still capped by ``max_corruptions`` so experiments can
    relate it to a noise fraction after the fact.
    """

    start_round: int = 0
    end_round: int = 0
    max_corruptions: int = 0
    seed: int = 0
    name: str = "burst"
    oblivious: bool = True
    may_insert: bool = False

    def __post_init__(self) -> None:
        if self.end_round < self.start_round:
            raise ValueError("end_round must be >= start_round")
        if self.max_corruptions is None or self.max_corruptions < 0:
            raise ValueError("max_corruptions must be a non-negative int")
        self._rng = make_rng(self.seed)
        self._spent = 0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is None:
            return sent
        if not self.start_round <= ctx.round_index <= self.end_round:
            return sent
        if self._spent >= self.max_corruptions:
            return sent
        self._spent += 1
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Windows disjoint from the burst interval (or after the cap is
        # exhausted) pass their planes straight through; overlapping windows
        # take the generic unpack fallback.
        last_round = ctx.base_round + count - 1
        if (
            self._spent >= self.max_corruptions
            or last_round < self.start_round
            or ctx.base_round > self.end_round
        ):
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._spent = 0


@dataclass
class DeletionAdversary(Adversary):
    """Delete each transmitted symbol independently with a fixed probability.

    Useful for isolating the insertion/deletion aspect of the noise model
    (e.g. to show that baselines relying purely on timing fail).
    """

    deletion_probability: float = 0.0
    seed: int = 0
    budget: Optional[NoiseBudget] = None
    name: str = "deletion"
    oblivious: bool = True
    may_insert: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.deletion_probability <= 1.0:
            raise ValueError("deletion_probability must lie in [0, 1]")
        self._rng = make_rng(self.seed)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is None:
            return sent
        if self.budget is not None:
            self.budget.observe_transmission()
        if self._rng.random() >= self.deletion_probability:
            return sent
        if self.budget is not None:
            if not self.budget.can_spend():
                return sent
            self.budget.spend()
        return None

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Deletions only ever clear plane bits, so the kernel walks the set
        # bits of ``present`` LSB-first (= offset order, preserving the draw
        # sequence) and never touches ``bits`` except to keep the
        # bits-subset-of-present invariant.
        # Per-slot ``corrupt`` draws once per transmitted slot even at
        # probability 0, so the loop below must too.
        probability = self.deletion_probability
        rand = self._rng.random
        budget = self.budget
        if budget is None:
            remaining = present
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                if rand() < probability:
                    bits &= ~low
                    present ^= low
            return bits, present
        seen = budget.transmissions_seen
        spent = budget.corruptions_spent
        fraction = budget.fraction
        allowance = budget.absolute_allowance
        allowance_at = budget.allowance_at
        remaining = present
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            seen += 1
            if rand() < probability and spent + 1 <= allowance_at(fraction, seen, allowance):
                bits &= ~low
                present ^= low
                spent += 1
        budget.transmissions_seen = seen
        budget.corruptions_spent = spent
        return bits, present

    def reset(self) -> None:
        self._rng = make_rng(self.seed)


@dataclass
class CompositeAdversary(Adversary):
    """Apply several adversaries in sequence to every slot.

    Each component sees the (possibly already corrupted) symbol produced by
    the previous one; the composite is oblivious only if every component is.
    Useful for combining a background noise floor with a targeted attack —
    e.g. the Table 1 harness pairs random insertion/deletion noise with a
    short burst on one link so that baselines face at least a few guaranteed
    errors.
    """

    components: Sequence[Adversary] = ()
    name: str = "composite"

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("CompositeAdversary needs at least one component")
        self.oblivious = all(component.oblivious for component in self.components)
        self.may_insert = any(component.may_insert for component in self.components)
        # The packed kernel runs each component over a whole window before
        # the next one sees it, mirroring budget counters locally per component.
        # That is only equivalent to the per-slot interleaving when every
        # component owns its budget, so a shared NoiseBudget object is
        # rejected rather than silently diverging between the two paths.
        seen_budgets = set()
        for component in self._flattened():
            budget = getattr(component, "budget", None)
            if budget is None:
                continue
            if id(budget) in seen_budgets:
                raise ValueError(
                    "CompositeAdversary components must not share a NoiseBudget instance"
                )
            seen_budgets.add(id(budget))
        # A component that records state via notify_delivery must be replayed
        # slot by slot: the per-slot path notifies every component with the
        # ORIGINAL sent and FINAL received symbol of each slot, interleaved
        # between slots, which chaining whole windows cannot reproduce.
        # Whole-window chaining is used only when every leaf's notify hook is
        # the base no-op (true for all stock adversaries).
        self._chain_windows = all(
            type(component).notify_delivery is Adversary.notify_delivery
            for component in self._flattened()
        )
        # A chain of pure schedules is itself pure: slot i of the composite
        # depends only on slot i of every component.  Any stateful component
        # (or one that needs the per-slot notify replay) poisons the whole
        # composite, which then truthfully reports slot_addressed=False.
        self.slot_addressed = self._chain_windows and all(
            component.slot_addressed for component in self._flattened()
        )

    def _flattened(self) -> Iterable[Adversary]:
        for component in self.components:
            if isinstance(component, CompositeAdversary):
                yield from component._flattened()
            else:
                yield component

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        symbol = sent
        for component in self.components:
            symbol = component.corrupt(ctx, symbol)
        return symbol

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        # Chaining whole windows is bit-identical to chaining per slot: each
        # component owns its RNG/budget, and its state when reaching slot i
        # depends only on the slots it already processed (0..i-1 of this
        # window in both orders) — the interleaving with other components is
        # unobservable, and each component's packed kernel is bit-identical
        # to its per-slot path.  Components with a real notify_delivery hook
        # break that argument, so they take the per-slot fallback (which
        # chains `corrupt` per slot and forwards the original/final symbols
        # through `notify_delivery`, exactly like the per-slot transport).
        if not self._chain_windows:
            return super().corrupt_window_packed(ctx, bits, present, count)
        for component in self.components:
            bits, present = component.corrupt_window_packed(ctx, bits, present, count)
        return bits, present

    def corruption_schedule(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        if not self.slot_addressed:
            return super().corruption_schedule(ctx, symbols)  # raises
        out = list(symbols)
        for component in self.components:
            out = component.corruption_schedule(ctx, out)
        return out

    def notify_delivery(self, ctx: TransmissionContext, sent: Symbol, received: Symbol) -> None:
        for component in self.components:
            component.notify_delivery(ctx, sent, received)

    def reset(self) -> None:
        for component in self.components:
            component.reset()


@dataclass
class PhaseTargetedAdaptiveAdversary(Adversary):
    """A non-oblivious adversary that spends its budget on chosen phases.

    It watches the actual communication (so its budget tracks the realised
    communication complexity) and corrupts transmissions that occur in the
    listed phases, preferring early iterations.  This captures the classic
    adaptive attacks against the scheme: hitting the meeting-points hashes or
    the flag-passing bits, where a single corrupted bit has the largest
    downstream effect.
    """

    fraction: float = 0.0
    phases: Sequence[str] = ("meeting_points", "flag_passing")
    seed: int = 0
    max_iteration: Optional[int] = None
    name: str = "adaptive-phase-targeted"
    oblivious: bool = False
    may_insert: bool = False

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        if sent is None:
            return sent
        if ctx.phase not in self.phases:
            return sent
        if self.max_iteration is not None and ctx.iteration > self.max_iteration:
            return sent
        if not self._budget.can_spend():
            return sent
        self._budget.spend()
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        if ctx.phase not in self.phases or (
            self.max_iteration is not None and ctx.iteration > self.max_iteration
        ):
            if present:
                self._budget.observe_transmissions(present.bit_count())
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)


@dataclass
class RotatingLinkAdaptiveAdversary(Adversary):
    """A non-oblivious adversary that keeps moving its attack across links.

    Every time its budget allows another corruption it targets the next
    directed link in a round-robin order, corrupting the first transmitted
    symbol it sees there.  Spreading single errors across many links maximises
    the number of (iteration, link) pairs that need local correction, which is
    the stress case for the global flag-passing/rewind machinery.
    """

    links: Sequence[Tuple[int, int]] = ()
    fraction: float = 0.0
    seed: int = 0
    name: str = "adaptive-rotating-link"
    oblivious: bool = False
    may_insert: bool = False

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("RotatingLinkAdaptiveAdversary needs a non-empty link list")
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._cursor = 0

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        if sent is None:
            return sent
        if (ctx.sender, ctx.receiver) != tuple(self.links[self._cursor]):
            return sent
        if not self._budget.can_spend():
            return sent
        self._budget.spend()
        self._cursor = (self._cursor + 1) % len(self.links)
        return _corrupt_randomly(self._rng, sent)

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        if ctx.link != tuple(self.links[self._cursor]):
            if present:
                self._budget.observe_transmissions(present.bit_count())
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._cursor = 0


@dataclass
class EchoSpoofingAdversary(Adversary):
    """The synchronisation attack of BGMO17 adapted to our model.

    Whenever it can afford two corruptions it deletes a symbol travelling in
    one direction of the target link and inserts a spoofed symbol in the
    opposite direction within the same window, driving the two endpoints out
    of sync — the attack that makes insertion/deletion noise strictly harder
    than substitutions.  Non-oblivious (it reacts to observed traffic).
    """

    target: Tuple[int, int] = (0, 1)
    fraction: float = 0.0
    seed: int = 0
    name: str = "echo-spoofing"
    oblivious: bool = False
    may_insert: bool = True

    def __post_init__(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._pending_spoof = False

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        if sent is not None:
            self._budget.observe_transmission()
        forward = (ctx.sender, ctx.receiver) == tuple(self.target)
        backward = (ctx.receiver, ctx.sender) == tuple(self.target)
        if forward and sent is not None and self._budget.can_spend(2):
            self._budget.spend()
            self._pending_spoof = True
            return None  # deletion
        if backward and sent is None and self._pending_spoof:
            self._pending_spoof = False
            self._budget.spend()
            return self._rng.choice([0, 1])  # spoofed reply (insertion)
        return sent

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        target = tuple(self.target)
        if ctx.link != target and (ctx.link[1], ctx.link[0]) != target:
            if present:
                self._budget.observe_transmissions(present.bit_count())
            return bits, present
        return super().corrupt_window_packed(ctx, bits, present, count)

    def reset(self) -> None:
        self._rng = make_rng(self.seed)
        self._budget = NoiseBudget(fraction=self.fraction)
        self._pending_spoof = False
