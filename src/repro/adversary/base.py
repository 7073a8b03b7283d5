"""Adversary interface and noise-budget bookkeeping.

The paper distinguishes:

* **oblivious** adversaries — the noise pattern is fixed before the protocol
  starts, independently of the parties' randomness (the *additive* adversary
  of §2.1 and the *fixing* adversary of Remark 1);
* **non-oblivious** adversaries — the noise may adapt to everything observed
  on the wire (but not to private coins tossed later).

All of them implement :class:`Adversary`.  The single-slot contract is
``corrupt``: the transport consults the adversary for one channel slot (one
round, one directed link) and the adversary returns what the receiver should
see.  The hot path is ``corrupt_window_packed``: the transport hands the
adversary one whole window of slots on one directed link as a
``(bits, present)`` plane pair and gets the delivered planes back.  Its base
implementation unpacks the window and falls back to ``corrupt_window``, the
per-slot replay of ``corrupt``; every native kernel is required to be
bit-identical to that fallback.  Corruption accounting is done by the
transport, not by the adversary, so an adversary cannot under-report its own
noise.

On top of both sits the opt-in **slot-addressed contract**
(``Adversary.slot_addressed`` + ``corruption_schedule``): corruption as a
pure function of ``(round, link, symbol)`` with no cross-slot state.  Only
the noiseless and oblivious pattern adversaries (and composites of them)
declare it; the engine never reads it, and its one consumer is the
transport's whole-phase ``exchange_phase`` unit.  See
:meth:`Adversary.corruption_schedule` for the laws and
``repro.adversary.check_contract`` for the conformance probe.

The theorems bound the noise as a *fraction of the actual communication* of
the executed instance, which is not known in advance.  :class:`NoiseBudget`
implements that accounting: adaptive adversaries ask it whether another
corruption would keep them within ``fraction * transmissions_so_far`` (plus
an optional absolute allowance), mirroring the "relative noise fraction" of
adaptive-length settings discussed in §2.1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.network.channel import Symbol, TransmissionContext, WindowContext
from repro.utils.bitstring import pack_symbols, unpack_symbols


@dataclass
class NoiseBudget:
    """Tracks how many corruptions an adversary may still inject.

    Parameters
    ----------
    fraction:
        Maximum allowed ratio ``corruptions / transmissions``.
    absolute_allowance:
        Extra corruptions allowed regardless of the fraction (useful for
        experiments that want "exactly k errors").
    """

    fraction: float = 0.0
    absolute_allowance: int = 0
    transmissions_seen: int = 0
    corruptions_spent: int = 0

    def observe_transmission(self) -> None:
        """Record that one symbol was actually transmitted."""
        self.transmissions_seen += 1

    def observe_transmissions(self, count: int) -> None:
        """Bulk path: record ``count`` transmissions in one update.

        Equivalent to ``count`` calls to :meth:`observe_transmission`.  Batch
        adversaries use it when they know no spending decision falls inside
        the observed window (e.g. the whole window is off-target), so the
        intermediate counter values are unobservable.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self.transmissions_seen += count

    @staticmethod
    def allowance_at(fraction: float, transmissions_seen: int, absolute_allowance: int) -> int:
        """The :attr:`allowed` value at a hypothetical counter state.

        The single source of truth for the allowance formula: batch
        adversaries that mirror the counters in local variables for one
        window use this to make spend decisions identical to the per-slot
        path.
        """
        return int(fraction * transmissions_seen) + absolute_allowance

    @property
    def allowed(self) -> int:
        """Corruptions permitted so far (floor of fraction * transmissions + allowance)."""
        return self.allowance_at(self.fraction, self.transmissions_seen, self.absolute_allowance)

    @property
    def remaining(self) -> int:
        return max(0, self.allowed - self.corruptions_spent)

    def can_spend(self, amount: int = 1) -> bool:
        return self.corruptions_spent + amount <= self.allowed

    def spend(self, amount: int = 1) -> None:
        if not self.can_spend(amount):
            raise RuntimeError(
                f"noise budget exceeded: spent {self.corruptions_spent}, "
                f"requested {amount}, allowed {self.allowed}"
            )
        self.corruptions_spent += amount


class Adversary(abc.ABC):
    """Base class for all noise models."""

    #: Human-readable name used by experiment reports.
    name: str = "adversary"

    #: Whether the adversary commits to its noise before seeing the execution.
    oblivious: bool = True

    #: The slot-addressed contract flag.  ``True`` declares that this
    #: adversary's corruption decision for every channel slot is a *pure
    #: function of (absolute round, directed link, sent symbol)* — no
    #: sequential RNG streams, no budgets fed by realised communication, no
    #: cross-slot state of any kind — and that :meth:`corruption_schedule`
    #: implements exactly that function, so evaluating a slot early, twice,
    #: or grouped into a different window is unobservable.  Only the
    #: transport's whole-phase unit
    #: (:meth:`~repro.network.transport.NoisyNetwork.exchange_phase`) reads
    #: the flag; the engine runs one schedule for every adversary.  Stateful
    #: adversaries must truthfully report ``False``.
    #: ``repro.adversary.check_contract`` probes the laws below.
    slot_addressed: bool = False

    #: Whether the adversary may deliver symbols on slots where the sender was
    #: silent (insertions).  This is a real, load-bearing attribute of the
    #: adversary contract (not duck typing): every adversary must set it, and
    #: transports skip consulting the adversary on silent slots when it is
    #: ``False``.  A non-inserting adversary must therefore treat a silent
    #: slot as a pure no-op — no RNG draws, no budget updates — because it is
    #: not guaranteed to see silent slots at all.
    may_insert: bool = True

    @abc.abstractmethod
    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        """Return the symbol delivered to the receiver for this slot.

        ``sent`` is the symbol the sender put on the wire (``None`` if the
        sender stayed silent).  Returning ``sent`` unchanged means "no
        corruption"; any other value is an insertion, deletion or
        substitution and will be charged by the transport's statistics.
        """

    def corrupt_window(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        """The per-slot fallback: the delivered symbols of one window on one link.

        ``symbols`` is the dense window the sender put on the wire (``None``
        entries are silent slots); slot ``i`` occurs in absolute round
        ``ctx.base_round + i``.  It replays exactly what a sequence of
        single-slot transmissions would do — :meth:`corrupt` then
        :meth:`notify_delivery` per slot, in offset order, skipping silent
        slots when :attr:`may_insert` is ``False`` — so any adversary that
        only implements ``corrupt`` behaves bit-identically on the packed and
        per-slot transmission paths.

        The transport never calls this directly: the base
        :meth:`corrupt_window_packed` unpacks its planes and calls it.  An
        adversary may override it with a list-valued kernel (the base packed
        fallback then reaches that kernel); such an override MUST preserve the
        bit-identity with this fallback — same delivered symbols, same RNG
        stream consumption, same budget accounting — for every input window.
        """
        delivered: List[Symbol] = []
        append = delivered.append
        may_insert = self.may_insert
        corrupt = self.corrupt
        notify = self.notify_delivery
        slot_ctx = ctx.slot
        for offset, sent in enumerate(symbols):
            if sent is None and not may_insert:
                append(None)
                continue
            slot = slot_ctx(offset)
            received = corrupt(slot, sent)
            notify(slot, sent, received)
            append(received)
        return delivered

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        """Return the planes delivered for one whole window on one link.

        ``(bits, present)`` follow the
        :func:`~repro.utils.bitstring.pack_symbols` convention: slot ``i``
        carries bit ``i`` of ``bits`` iff bit ``i`` of ``present`` is set,
        and is silent otherwise; ``count`` is the window length in rounds and
        slot ``i`` occurs in absolute round ``ctx.base_round + i``.  Returns
        the delivered window as the same kind of plane pair.  The transport
        calls this once per directed link and window.

        This base implementation is the compatibility fallback: it unpacks
        the planes into an immutable tuple, runs :meth:`corrupt_window`
        (itself the per-slot :meth:`corrupt` replay unless overridden) and
        re-packs.  Native overrides must preserve exactly that equivalence:
        same delivered planes, same RNG stream consumption, same budget
        accounting, for every input window (``check_contract``'s
        ``packed-equivalence`` law; ``tests/test_adversaries.py`` pins it for
        all stock adversaries).  If you subclass a stock adversary and change
        ``corrupt`` or ``notify_delivery``, restore this fallback with
        ``corrupt_window_packed = Adversary.corrupt_window_packed``.
        """
        delivered = self.corrupt_window(ctx, tuple(unpack_symbols(bits, present, count)))
        return pack_symbols(delivered)

    def corruption_schedule(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        """Pure evaluation of the delivery schedule for one window on one link.

        Only available when :attr:`slot_addressed` is ``True``.  Returns the
        delivered symbol window, like :meth:`corrupt_window`, but under much stronger
        laws — the *slot-addressed contract*:

        * **purity** — the call reads and writes no mutable state: two
          independent evaluations of the same ``(ctx, symbols)`` return the
          same schedule, and the adversary's observable state (RNG streams,
          budgets, counters) is identical before and after;
        * **slot decomposability** — slot ``i`` of a window evaluation equals
          the single-slot evaluation at the same absolute round:
          ``corruption_schedule(ctx, symbols)[i] ==
          corruption_schedule(ctx_at(base_round + i), (symbols[i],))[0]``;
        * **path agreement** — while ``slot_addressed`` holds,
          :meth:`corrupt` and :meth:`corrupt_window_packed` agree bit for bit
          with this function, so the per-slot, packed-window and whole-phase
          transmission paths all deliver the same symbols.

        These laws are what make :class:`~repro.network.transport.PhaseExchange`
        legal: it evaluates slots the moment the sent symbol is known (out of
        dispatch order) and accounts the whole phase in one pass, with no way
        for the grouping to change the outcome.
        ``repro.adversary.check_contract`` probes all three laws.
        """
        if not self.slot_addressed:
            raise RuntimeError(
                f"{type(self).__name__} is not slot-addressed: corruption_schedule is only "
                "defined when slot_addressed is True"
            )
        raise NotImplementedError(
            f"{type(self).__name__} declares slot_addressed=True but does not "
            "implement corruption_schedule"
        )

    def notify_delivery(self, ctx: TransmissionContext, sent: Symbol, received: Symbol) -> None:
        """Hook called after every slot; adaptive adversaries may record state."""

    def reset(self) -> None:
        """Reset mutable state so the same adversary object can be reused."""


class NoiselessAdversary(Adversary):
    """The identity channel: never corrupts anything."""

    name = "noiseless"
    oblivious = True
    may_insert = False
    slot_addressed = True  # the identity channel is trivially pure

    def corrupt(self, ctx: TransmissionContext, sent: Symbol) -> Symbol:
        return sent

    def corrupt_window_packed(
        self, ctx: WindowContext, bits: int, present: int, count: int
    ) -> Tuple[int, int]:
        return bits, present

    def corruption_schedule(self, ctx: WindowContext, symbols: Sequence[Symbol]) -> List[Symbol]:
        return list(symbols)
