"""Channel primitives: symbols, transmission contexts and statistics.

The communication model (paper §2.1) is synchronous: in every round every
link may carry at most one symbol from the alphabet Σ (here Σ = {0, 1}) in
each direction, and a party may also stay silent.  A transmission is the
event of actually sending a symbol; the channel function is

    Ch : Σ ∪ {*} -> Σ ∪ {*}

where ``*`` ("no message") is represented by ``None`` throughout the code.
A corruption is any slot where the received value differs from the sent one:

* substitution — ``0 -> 1`` or ``1 -> 0``;
* deletion     — a symbol was sent but ``None`` is delivered;
* insertion    — nothing was sent but a symbol is delivered.

``ChannelStats`` keeps the accounting that the theorems are stated in terms
of: the total number of transmissions (the communication complexity ``CC``),
the number of corruptions of each kind, and per-phase breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

Symbol = Optional[int]  # 0, 1 or None (silence / the paper's "*")

#: Encoding used by the additive adversary of the paper (§2.1, "additive
#: adversary"): symbols are mapped to Z_3 with ``None`` encoded as 2, the
#: adversary adds an offset in {0, 1, 2} mod 3, and the result is mapped back.
SYMBOL_TO_TRIT = {0: 0, 1: 1, None: 2}
TRIT_TO_SYMBOL = {0: 0, 1: 1, 2: None}


def apply_additive_noise(sent: Symbol, offset: int) -> Symbol:
    """Apply an additive-adversary offset (mod 3) to a channel symbol."""
    if offset not in (0, 1, 2):
        raise ValueError(f"additive offset must be in {{0,1,2}}, got {offset}")
    return TRIT_TO_SYMBOL[(SYMBOL_TO_TRIT[sent] + offset) % 3]


def classify_corruption(sent: Symbol, received: Symbol) -> Optional[str]:
    """Return 'substitution' / 'deletion' / 'insertion' or ``None`` if clean."""
    if sent == received:
        return None
    if sent is None:
        return "insertion"
    if received is None:
        return "deletion"
    return "substitution"


@dataclass(frozen=True)
class TransmissionContext:
    """Metadata describing one channel slot (one round, one directed link).

    Adversaries receive this context when deciding whether to corrupt a slot.
    ``phase`` is one of ``"randomness_exchange"``, ``"meeting_points"``,
    ``"flag_passing"``, ``"simulation"``, ``"rewind"`` or ``"baseline"``;
    ``iteration`` is the index of the outer iteration of Algorithm 1 (or -1
    outside the main loop).
    """

    round_index: int
    sender: int
    receiver: int
    phase: str
    iteration: int = -1
    slot_index: int = 0


class WindowContext:
    """Metadata describing one window of consecutive slots on one directed link.

    The packed transmission path hands one ``WindowContext`` per directed
    link to :meth:`~repro.adversary.base.Adversary.corrupt_window_packed`;
    slot ``offset`` of the window corresponds to absolute round
    ``base_round + offset``.  :meth:`slot` materialises the equivalent
    per-slot :class:`TransmissionContext`, which is what the per-slot
    fallback (and any adversary that only implements ``corrupt``) consumes.

    A hand-rolled ``__slots__`` class rather than a dataclass: one instance
    is allocated per (link, window) on the transport hot path, where the
    dataclass machinery is measurable overhead.
    """

    __slots__ = ("link", "phase", "iteration", "base_round")

    def __init__(
        self,
        link: Tuple[int, int],
        phase: str,
        iteration: int = -1,
        base_round: int = 0,
    ) -> None:
        self.link = link
        self.phase = phase
        self.iteration = iteration
        self.base_round = base_round

    @property
    def sender(self) -> int:
        return self.link[0]

    @property
    def receiver(self) -> int:
        return self.link[1]

    def slot(self, offset: int) -> TransmissionContext:
        """The per-slot context of window offset ``offset``."""
        return TransmissionContext(
            round_index=self.base_round + offset,
            sender=self.link[0],
            receiver=self.link[1],
            phase=self.phase,
            iteration=self.iteration,
            slot_index=offset,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowContext(link={self.link!r}, phase={self.phase!r}, "
            f"iteration={self.iteration}, base_round={self.base_round})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowContext):
            return NotImplemented
        return (
            self.link == other.link
            and self.phase == other.phase
            and self.iteration == other.iteration
            and self.base_round == other.base_round
        )

    def __hash__(self) -> int:
        return hash((self.link, self.phase, self.iteration, self.base_round))


@dataclass
class ChannelStats:
    """Running totals of transmissions and corruptions."""

    transmissions: int = 0
    delivered_symbols: int = 0
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    transmissions_by_phase: Dict[str, int] = field(default_factory=dict)
    corruptions_by_phase: Dict[str, int] = field(default_factory=dict)
    corruptions_by_link: Dict[tuple, int] = field(default_factory=dict)

    @property
    def corruptions(self) -> int:
        """Total number of corrupted slots (each counts once, per the paper)."""
        return self.substitutions + self.deletions + self.insertions

    def noise_fraction(self) -> float:
        """Fraction of corrupted transmissions (0 when nothing was sent)."""
        if self.transmissions == 0:
            return 0.0
        return self.corruptions / self.transmissions

    def record(self, ctx: TransmissionContext, sent: Symbol, received: Symbol) -> None:
        """Account one channel slot."""
        if sent is not None:
            self.transmissions += 1
            self.transmissions_by_phase[ctx.phase] = self.transmissions_by_phase.get(ctx.phase, 0) + 1
        if received is not None:
            self.delivered_symbols += 1
        kind = classify_corruption(sent, received)
        if kind is None:
            return
        if kind == "substitution":
            self.substitutions += 1
        elif kind == "deletion":
            self.deletions += 1
        else:
            self.insertions += 1
        self.corruptions_by_phase[ctx.phase] = self.corruptions_by_phase.get(ctx.phase, 0) + 1
        link = (ctx.sender, ctx.receiver)
        self.corruptions_by_link[link] = self.corruptions_by_link.get(link, 0) + 1

    def record_window(
        self,
        ctx: WindowContext,
        sent: Sequence[Symbol],
        received: Sequence[Symbol],
    ) -> None:
        """Account one whole window on one directed link in a single pass.

        Equivalent to calling :meth:`record` once per slot with the matching
        :class:`TransmissionContext` — same totals, same per-phase and
        per-link breakdowns — but the dictionaries are touched at most once
        per window instead of once per slot.
        """
        transmissions = 0
        delivered = 0
        substitutions = 0
        deletions = 0
        insertions = 0
        for sent_symbol, received_symbol in zip(sent, received):
            if sent_symbol is not None:
                transmissions += 1
            if received_symbol is not None:
                delivered += 1
            if sent_symbol != received_symbol:
                if sent_symbol is None:
                    insertions += 1
                elif received_symbol is None:
                    deletions += 1
                else:
                    substitutions += 1
        self.delivered_symbols += delivered
        if transmissions:
            self.transmissions += transmissions
            phase_counts = self.transmissions_by_phase
            phase_counts[ctx.phase] = phase_counts.get(ctx.phase, 0) + transmissions
        corruptions = substitutions + deletions + insertions
        if corruptions:
            self.substitutions += substitutions
            self.deletions += deletions
            self.insertions += insertions
            phase_corruptions = self.corruptions_by_phase
            phase_corruptions[ctx.phase] = phase_corruptions.get(ctx.phase, 0) + corruptions
            link_corruptions = self.corruptions_by_link
            link_corruptions[ctx.link] = link_corruptions.get(ctx.link, 0) + corruptions

    def record_window_packed(
        self,
        ctx: WindowContext,
        sent_bits: int,
        sent_present: int,
        received_bits: int,
        received_present: int,
    ) -> None:
        """Packed-plane variant of :meth:`record_window` — O(1) popcounts.

        ``(bits, present)`` planes follow the
        :func:`~repro.utils.bitstring.pack_symbols` convention (``bits`` is a
        subset of ``present``; a cleared ``present`` bit is silence).  The
        totals and per-phase/per-link breakdowns are identical to the
        symbol-sequence path: a substitution is a slot present on both sides
        with differing bits, a deletion is present→absent, an insertion is
        absent→present.
        """
        transmissions = sent_present.bit_count()
        delivered = received_present.bit_count()
        both = sent_present & received_present
        substitutions = ((sent_bits ^ received_bits) & both).bit_count()
        deletions = (sent_present & ~received_present).bit_count()
        insertions = (received_present & ~sent_present).bit_count()
        self.delivered_symbols += delivered
        if transmissions:
            self.transmissions += transmissions
            phase_counts = self.transmissions_by_phase
            phase_counts[ctx.phase] = phase_counts.get(ctx.phase, 0) + transmissions
        corruptions = substitutions + deletions + insertions
        if corruptions:
            self.substitutions += substitutions
            self.deletions += deletions
            self.insertions += insertions
            phase_corruptions = self.corruptions_by_phase
            phase_corruptions[ctx.phase] = phase_corruptions.get(ctx.phase, 0) + corruptions
            link_corruptions = self.corruptions_by_link
            link_corruptions[ctx.link] = link_corruptions.get(ctx.link, 0) + corruptions

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict summary convenient for reports and benchmarks."""
        return {
            "transmissions": self.transmissions,
            "corruptions": self.corruptions,
            "substitutions": self.substitutions,
            "deletions": self.deletions,
            "insertions": self.insertions,
            "noise_fraction": self.noise_fraction(),
        }
