"""The synchronous noisy transport layer.

``NoisyNetwork`` is the single place where symbols cross from a sender to a
receiver.  It

* validates that transmissions only use existing links,
* hands the traffic to the adversary,
* keeps the global round counter and all communication / corruption
  statistics (:class:`~repro.network.channel.ChannelStats`), and
* exposes window-oriented helpers (``exchange_window``) because every phase
  of the coding scheme transmits a fixed-length burst of symbols on many
  links in parallel, one symbol per round per direction.

Four transmission paths exist:

* the **packed path** (the engine's meeting-points exchange):
  ``exchange_window_packed`` carries each directed link's window as a
  ``(bits, present)`` integer plane pair (the
  :func:`~repro.utils.bitstring.pack_symbols` convention) end to end — one
  :meth:`~repro.adversary.base.Adversary.corrupt_window_packed` call and one
  O(1)-popcount :meth:`~repro.network.channel.ChannelStats.record_window_packed`
  pass per link, with no per-slot symbol objects anywhere;
* the **batched path** (the engine's lockstep phases): ``exchange_window``
  makes one :meth:`~repro.adversary.base.Adversary.corrupt_window` call per
  directed link and one :meth:`~repro.network.channel.ChannelStats.record_window`
  bookkeeping pass per window — no per-slot contexts, calls or dictionary
  updates;
* the **single-slot reference**: ``transmit`` carries one symbol through the
  classic ``TransmissionContext`` → ``corrupt`` → ``record`` →
  ``notify_delivery`` pipeline, and ``exchange_window_per_slot`` runs a whole
  window through it.  The engine never calls it; it is the oracle the
  batched and packed paths are pinned bit-identical to for every adversary
  honouring the ``corrupt_window`` contract (``tests/test_transport.py``);
* the **merged phase path**: ``exchange_phase`` opens one
  :class:`PhaseExchange` covering a whole phase's rounds for adversaries
  honouring the slot-addressed contract
  (:attr:`~repro.adversary.base.Adversary.slot_addressed`).  The engine
  evaluates each slot the moment it knows the sent symbol — data-dependent
  rounds included — and the transport records the entire phase in one
  accounting pass at commit, bit-identical to the lockstep schedules above.

The engine never talks to the adversary directly; everything goes through
this class so the accounting cannot be bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.network.channel import ChannelStats, Symbol, TransmissionContext, WindowContext
from repro.network.graph import Graph
from repro.obs.context import get_obs
from repro.obs.recorder import link_label
from repro.utils.bitstring import unpack_symbols

_VALID_SYMBOLS = (0, 1, None)


@dataclass
class NoisyNetwork:
    """Synchronous message transport over a graph with an adversary attached."""

    graph: Graph
    adversary: Adversary = field(default_factory=NoiselessAdversary)
    stats: ChannelStats = field(default_factory=ChannelStats)
    current_round: int = 0

    #: Dispatch accounting for ``repro.obs``: plain integers kept hot-path
    #: cheap (one add per window) and flushed into the ambient metrics
    #: registry once per trial by the engine.  ``idle_rounds_collapsed`` is
    #: credited by the engine at its window-collapse sites, not by
    #: ``advance_rounds`` itself (which every window exchange also calls).
    windows_exchanged: int = 0
    sparse_dispatches: int = 0
    dense_dispatches: int = 0
    merged_dispatches: int = 0
    packed_dispatches: int = 0
    idle_rounds_collapsed: int = 0

    def __post_init__(self) -> None:
        self._check_notify_contract(self.adversary)
        # Construction-time capture of the ambient flight recorder (mirrors
        # the engine's obs capture): a plain attribute, not a dataclass field,
        # so it stays invisible to fingerprints, ``repr`` and equality.  The
        # recorder only ever *reads* traffic the stats already account, so it
        # cannot perturb deliveries, budgets or the round clock.
        self.recorder = get_obs().recorder

    @staticmethod
    def _check_notify_contract(adversary: Adversary) -> None:
        """Reject adversaries whose batch path would silently skip notifications.

        The stock native ``corrupt_window`` overrides never call
        ``notify_delivery`` (it is a no-op for every stock adversary).  A
        subclass that overrides ``notify_delivery`` while *inheriting* such an
        override would therefore record different state on the batched and
        per-slot paths — the exact silent divergence the bit-identity
        guarantee forbids.  The hazard exists precisely when the class
        providing ``corrupt_window`` is unrelated to (not a subclass of, and
        not the base fallback seen by) the class providing
        ``notify_delivery``; overriding ``corrupt_window`` alongside (or
        below) the notify override, or restoring the base fallback with
        ``corrupt_window = Adversary.corrupt_window``, declares the pairing
        intentional.
        """
        adversary_type = type(adversary)
        if adversary_type.notify_delivery is Adversary.notify_delivery:
            return
        corrupt_window_owner = next(
            klass for klass in adversary_type.__mro__ if "corrupt_window" in klass.__dict__
        )
        notify_owner = next(
            klass for klass in adversary_type.__mro__ if "notify_delivery" in klass.__dict__
        )
        if corrupt_window_owner is Adversary:
            return  # the base fallback interleaves notify_delivery per slot
        if issubclass(corrupt_window_owner, notify_owner):
            return  # whoever wrote corrupt_window knew about the notify hook
        raise ValueError(
            f"{adversary_type.__name__} overrides notify_delivery but inherits "
            f"corrupt_window from {corrupt_window_owner.__name__}, whose batch path "
            "never notifies: override corrupt_window too, or restore the per-slot "
            "fallback with `corrupt_window = Adversary.corrupt_window`"
        )

    # -- round bookkeeping --------------------------------------------------

    def advance_rounds(self, count: int) -> None:
        """Advance the global clock by ``count`` silent rounds."""
        if count < 0:
            raise ValueError("cannot advance by a negative number of rounds")
        self.current_round += count

    # -- single-slot transmission -------------------------------------------

    def transmit(
        self,
        sender: int,
        receiver: int,
        symbol: Symbol,
        phase: str,
        iteration: int = -1,
        round_offset: int = 0,
        slot_index: int = 0,
    ) -> Symbol:
        """Send one symbol (or silence) over a directed link and return what arrives."""
        if not self.graph.has_edge(sender, receiver):
            raise ValueError(f"({sender}, {receiver}) is not a link of the network")
        if symbol not in _VALID_SYMBOLS:
            raise ValueError(f"invalid channel symbol {symbol!r}")
        ctx = TransmissionContext(
            round_index=self.current_round + round_offset,
            sender=sender,
            receiver=receiver,
            phase=phase,
            iteration=iteration,
            slot_index=slot_index,
        )
        received = self.adversary.corrupt(ctx, symbol)
        if received not in _VALID_SYMBOLS:
            raise ValueError(f"adversary produced invalid symbol {received!r}")
        self.stats.record(ctx, symbol, received)
        recorder = self.recorder
        if recorder is not None and received != symbol:
            recorder.record_window(
                link_label(sender, receiver), phase, iteration, ctx.round_index,
                (symbol,), (received,),
            )
        self.adversary.notify_delivery(ctx, symbol, received)
        return received

    # -- window transmission --------------------------------------------------

    def exchange_window(
        self,
        messages: Dict[Tuple[int, int], Sequence[Symbol]],
        window_rounds: int,
        phase: str,
        iteration: int = -1,
        sparse: bool = False,
    ) -> Dict[Tuple[int, int], List[Symbol]]:
        """Run ``window_rounds`` synchronous rounds in which each directed link
        ``(u, v)`` carries the symbol sequence ``messages[(u, v)]`` (padded with
        silence up to the window length).

        Every directed link of the graph participates in every round of the
        window, even if its sender stays silent: this is what allows the
        adversary to *insert* symbols on idle links, exactly as in the paper's
        noise model.  Message keys must be directed links of the network.
        Returns the symbols delivered on every directed link.

        ``sparse=True`` permits (but does not guarantee) omitting silent links
        from the result when the adversary cannot insert — a silent link under
        a non-inserting adversary always delivers pure silence, so the caller
        loses nothing by treating a missing key as an all-``None`` window.
        The wire behaviour (adversary calls, statistics, clock) is identical;
        only the shape of the returned mapping changes.  Engine phases that
        transmit on a handful of links per round use this to skip the
        O(links) result-building work entirely.
        """
        self._validate_window(messages, window_rounds)
        adversary = self.adversary
        corrupt_window = adversary.corrupt_window
        may_insert = adversary.may_insert
        stats = self.stats
        base_round = self.current_round
        omit_silent = sparse and not may_insert
        self.windows_exchanged += 1
        if omit_silent:
            self.sparse_dispatches += 1
        else:
            self.dense_dispatches += 1
        # The adversary sees the window as an immutable tuple, so the sent
        # record used for corruption accounting below cannot be mutated in
        # place — the accounting structurally cannot be bypassed.  The
        # all-silent window is shared across links (it is never writable).
        silence_tuple = (None,) * window_rounds
        silence_list = [None] * window_rounds
        received: Dict[Tuple[int, int], List[Symbol]] = {}
        if omit_silent:
            # Silent links are skipped entirely, so only the message links are
            # visited — in canonical directed-edge order, because stateful
            # adversaries must see corrupt_window calls in the same sequence
            # as a full scan would produce.
            link_index = self.graph.directed_edge_index()
            links: Sequence[Tuple[int, int]] = sorted(messages, key=link_index.__getitem__)
        else:
            links = self.graph.directed_edges()
        for link in links:
            outgoing = messages.get(link)
            if outgoing is None:
                if not may_insert:
                    # A non-inserting adversary maps silence to silence; skip
                    # the whole window (the slots carry no bits).
                    if not omit_silent:
                        received[link] = [None] * window_rounds
                    continue
                window_tuple = silence_tuple
                window = silence_list  # read-only: compared and counted, never handed out
            else:
                window = list(outgoing)
                if len(window) < window_rounds:
                    window.extend([None] * (window_rounds - len(window)))
                window_tuple = tuple(window)
            ctx = WindowContext(link=link, phase=phase, iteration=iteration, base_round=base_round)
            delivered = corrupt_window(ctx, window_tuple)
            if type(delivered) is not list:
                delivered = list(delivered)
            if delivered == window:
                # Untouched window: the input was already validated, so only
                # the transmission counters can change — and an all-silent
                # window cannot even do that.
                if outgoing is not None:
                    stats.record_window(ctx, window, delivered)
            else:
                if len(delivered) != window_rounds:
                    raise ValueError(
                        f"adversary delivered {len(delivered)} symbols for a "
                        f"{window_rounds}-round window on link {link}"
                    )
                for value in delivered:
                    if value not in _VALID_SYMBOLS:
                        raise ValueError(f"adversary produced invalid symbol {value!r}")
                stats.record_window(ctx, window, delivered)
                if self.recorder is not None:
                    self.recorder.record_window(
                        link_label(*link), phase, iteration, base_round, window, delivered
                    )
            received[link] = delivered
        self.advance_rounds(window_rounds)
        return received

    def exchange_window_packed(
        self,
        messages: Dict[Tuple[int, int], Tuple[int, int]],
        window_rounds: int,
        phase: str,
        iteration: int = -1,
        sparse: bool = False,
    ) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Packed-plane variant of :meth:`exchange_window`.

        Each directed link's window travels as one ``(bits, present)``
        integer plane pair following the
        :func:`~repro.utils.bitstring.pack_symbols` convention — slot ``i``
        carries bit ``i`` of ``bits`` iff bit ``i`` of ``present`` is set —
        instead of a symbol sequence.  Wire behaviour, statistics, clock and
        the ``sparse`` contract are identical to :meth:`exchange_window`
        (``tests/test_transport.py`` pins the bit-identity for all stock
        adversaries); what changes is the cost model: validation is two mask
        checks per link, corruption is one
        :meth:`~repro.adversary.base.Adversary.corrupt_window_packed` call,
        and accounting is O(1) popcounts.
        """
        if window_rounds < 0:
            raise ValueError("window_rounds must be non-negative")
        adversary = self.adversary
        corrupt_window_packed = adversary.corrupt_window_packed
        may_insert = adversary.may_insert
        stats = self.stats
        recorder = self.recorder
        base_round = self.current_round
        omit_silent = sparse and not may_insert
        self.windows_exchanged += 1
        self.packed_dispatches += 1
        if omit_silent:
            self.sparse_dispatches += 1
        else:
            self.dense_dispatches += 1
        if messages:
            edge_set = self.graph.directed_edge_set()
            for link, (bits, present) in messages.items():
                if link not in edge_set:
                    raise ValueError(
                        f"message keyed on unknown link {link}: not a directed edge of the network"
                    )
                if bits & ~present:
                    raise ValueError(
                        f"message on link {link} sets bits outside its present mask"
                    )
                if present >> window_rounds:
                    sender, receiver = link
                    raise ValueError(
                        f"message on link ({sender}, {receiver}) has symbols beyond "
                        f"the {window_rounds}-round window"
                    )
        received: Dict[Tuple[int, int], Tuple[int, int]] = {}
        if omit_silent:
            # Same canonical directed-edge order as the batched sparse
            # dispatch, for the same reason: stateful adversaries must see
            # the corruption calls in the sequence a full scan would produce.
            link_index = self.graph.directed_edge_index()
            links: Sequence[Tuple[int, int]] = sorted(messages, key=link_index.__getitem__)
        else:
            links = self.graph.directed_edges()
        for link in links:
            outgoing = messages.get(link)
            if outgoing is None:
                if not may_insert:
                    if not omit_silent:
                        received[link] = (0, 0)
                    continue
                bits = present = 0
            else:
                bits, present = outgoing
            ctx = WindowContext(link=link, phase=phase, iteration=iteration, base_round=base_round)
            dbits, dpresent = corrupt_window_packed(ctx, bits, present, window_rounds)
            if dbits == bits and dpresent == present:
                # Untouched window: only the transmission counters can
                # change, and an all-silent window cannot even do that.
                if present:
                    stats.record_window_packed(ctx, bits, present, dbits, dpresent)
            else:
                if dbits & ~dpresent:
                    raise ValueError(
                        f"adversary delivered bits outside the present mask on link {link}"
                    )
                if dpresent >> window_rounds:
                    raise ValueError(
                        f"adversary delivered symbols beyond the "
                        f"{window_rounds}-round window on link {link}"
                    )
                stats.record_window_packed(ctx, bits, present, dbits, dpresent)
                if recorder is not None:
                    recorder.record_window(
                        link_label(*link), phase, iteration, base_round,
                        unpack_symbols(bits, present, window_rounds),
                        unpack_symbols(dbits, dpresent, window_rounds),
                    )
            received[link] = (dbits, dpresent)
        self.advance_rounds(window_rounds)
        return received

    def exchange_window_per_slot(
        self,
        messages: Dict[Tuple[int, int], Sequence[Symbol]],
        window_rounds: int,
        phase: str,
        iteration: int = -1,
        sparse: bool = False,
    ) -> Dict[Tuple[int, int], List[Symbol]]:
        """The single-slot reference implementation of :meth:`exchange_window`.

        Every slot goes through :meth:`transmit` individually.  This is the
        semantics the batched path must reproduce bit for bit; equivalence
        tests and benchmarks run both side by side.  ``sparse`` has the same
        meaning (and the same wire-identical guarantee) as on
        :meth:`exchange_window`.
        """
        self._validate_window(messages, window_rounds)
        received: Dict[Tuple[int, int], List[Symbol]] = {}
        may_insert = self.adversary.may_insert
        omit_silent = sparse and not may_insert
        self.windows_exchanged += 1
        if omit_silent:
            # Same canonical order and same result shape as the batched
            # sparse dispatch: silent links carry no bits for a non-inserting
            # adversary, so they are omitted from the scan and the result.
            self.sparse_dispatches += 1
            link_index = self.graph.directed_edge_index()
            links: Sequence[Tuple[int, int]] = sorted(messages, key=link_index.__getitem__)
        else:
            self.dense_dispatches += 1
            links = self.graph.directed_edges()
        for sender, receiver in links:
            outgoing = list(messages.get((sender, receiver), ()))
            delivered: List[Symbol] = []
            for offset in range(window_rounds):
                symbol = outgoing[offset] if offset < len(outgoing) else None
                if symbol is None and not may_insert:
                    delivered.append(None)
                    continue
                delivered.append(
                    self.transmit(
                        sender,
                        receiver,
                        symbol,
                        phase=phase,
                        iteration=iteration,
                        round_offset=offset,
                        slot_index=offset,
                    )
                )
            received[(sender, receiver)] = delivered
        self.advance_rounds(window_rounds)
        return received

    # -- merged phase transmission --------------------------------------------

    def exchange_phase(
        self,
        window_rounds: int,
        phase: str,
        iteration: int = -1,
    ) -> "PhaseExchange":
        """Open one merged dispatch covering a whole ``window_rounds``-round phase.

        Only legal when the adversary honours the slot-addressed contract
        (:attr:`~repro.adversary.base.Adversary.slot_addressed`): corruption
        is a pure function of ``(round, link, symbol)``, so each slot's
        delivery can be evaluated the moment the sent symbol is known —
        data-dependent rounds included, in any order — and the whole phase
        can be accounted in a single pass.  Use the returned
        :class:`PhaseExchange` to ``send`` symbols at per-phase round
        offsets, read deliveries (including insertions on silent links), and
        finally ``commit`` the statistics and clock.  Bit-identical to the
        lockstep per-round dispatch in deliveries, :class:`ChannelStats` and
        round accounting.
        """
        return PhaseExchange(self, window_rounds, phase, iteration)

    def _validate_window(
        self,
        messages: Dict[Tuple[int, int], Sequence[Symbol]],
        window_rounds: int,
    ) -> None:
        """Shared validation: window length, message keys and symbol values."""
        if window_rounds < 0:
            raise ValueError("window_rounds must be non-negative")
        if not messages:
            return
        links = self.graph.directed_edge_set()
        for link, symbols in messages.items():
            if link not in links:
                raise ValueError(f"message keyed on unknown link {link}: not a directed edge of the network")
            if len(symbols) > window_rounds:
                sender, receiver = link
                raise ValueError(
                    f"message on link ({sender}, {receiver}) has {len(symbols)} symbols "
                    f"but the window only has {window_rounds} rounds"
                )
            for symbol in symbols:
                if symbol not in _VALID_SYMBOLS:
                    raise ValueError(f"invalid channel symbol {symbol!r}")

    # -- convenience ----------------------------------------------------------

    def noise_fraction(self) -> float:
        return self.stats.noise_fraction()

    def communication(self) -> int:
        """Total number of transmissions so far (= communication in bits)."""
        return self.stats.transmissions


class PhaseExchange:
    """One merged transport dispatch covering a whole phase's rounds.

    Created by :meth:`NoisyNetwork.exchange_phase`.  The engine drives it in
    three moves:

    * :meth:`send` — transmit one symbol on one directed link at a per-phase
      round offset and get the delivered symbol back immediately (the
      adversary's pure :meth:`~repro.adversary.base.Adversary.corruption_schedule`
      is evaluated on that single slot);
    * :meth:`delivered` / :meth:`delivered_map` — read what a receiver
      observes on any slot, including insertions on links nobody sent on
      (served from a lazily evaluated all-silence *baseline schedule* per
      link, one ``corruption_schedule`` call covering the whole phase);
    * :meth:`commit` — one :meth:`~repro.network.channel.ChannelStats.record_window`
      accounting pass per link over the full phase window, then one clock
      advancement.

    Slot decomposability (law two of the contract) is what makes the mix of
    single-slot evaluations and whole-window baselines coherent: every slot's
    delivery is the same however the slots are grouped, so the statistics
    committed here are bit-identical to the lockstep per-round dispatch.
    """

    __slots__ = (
        "_network",
        "_adversary",
        "_may_insert",
        "_rounds",
        "_phase",
        "_iteration",
        "_base_round",
        "_links",
        "_sent",
        "_received",
        "_baselines",
        "_committed",
    )

    def __init__(
        self,
        network: NoisyNetwork,
        window_rounds: int,
        phase: str,
        iteration: int = -1,
    ) -> None:
        adversary = network.adversary
        if not adversary.slot_addressed:
            raise ValueError(
                f"{type(adversary).__name__} is not slot-addressed: exchange_phase "
                "requires the corruption_schedule contract (slot_addressed=True)"
            )
        if window_rounds < 0:
            raise ValueError("window_rounds must be non-negative")
        self._network = network
        self._adversary = adversary
        self._may_insert = adversary.may_insert
        self._rounds = window_rounds
        self._phase = phase
        self._iteration = iteration
        self._base_round = network.current_round
        self._links = network.graph.directed_edge_set()
        self._sent: Dict[Tuple[Tuple[int, int], int], Symbol] = {}
        self._received: Dict[Tuple[Tuple[int, int], int], Symbol] = {}
        self._baselines: Dict[Tuple[int, int], List[Symbol]] = {}
        self._committed = False

    @property
    def rounds(self) -> int:
        return self._rounds

    def send(self, link: Tuple[int, int], offset: int, symbol: Symbol) -> Symbol:
        """Transmit ``symbol`` on ``link`` at phase-round ``offset``; return
        what the receiver observes on that slot."""
        if self._committed:
            raise RuntimeError("phase already committed")
        if link not in self._links:
            raise ValueError(
                f"message keyed on unknown link {link}: not a directed edge of the network"
            )
        if symbol not in _VALID_SYMBOLS:
            raise ValueError(f"invalid channel symbol {symbol!r}")
        if not 0 <= offset < self._rounds:
            raise ValueError(
                f"offset {offset} outside the {self._rounds}-round phase window"
            )
        key = (link, offset)
        if key in self._sent:
            raise ValueError(f"slot {offset} on link {link} already carried a symbol this phase")
        ctx = WindowContext(
            link=link,
            phase=self._phase,
            iteration=self._iteration,
            base_round=self._base_round + offset,
        )
        delivered = self._adversary.corruption_schedule(ctx, (symbol,))[0]
        if delivered not in _VALID_SYMBOLS:
            raise ValueError(f"adversary produced invalid symbol {delivered!r}")
        self._sent[key] = symbol
        self._received[key] = delivered
        return delivered

    def _baseline(self, link: Tuple[int, int]) -> List[Symbol]:
        """The all-silence delivery schedule of ``link`` over the whole phase."""
        schedule = self._baselines.get(link)
        if schedule is None:
            ctx = WindowContext(
                link=link,
                phase=self._phase,
                iteration=self._iteration,
                base_round=self._base_round,
            )
            schedule = list(self._adversary.corruption_schedule(ctx, (None,) * self._rounds))
            if len(schedule) != self._rounds:
                raise ValueError(
                    f"adversary delivered {len(schedule)} symbols for a "
                    f"{self._rounds}-round window on link {link}"
                )
            for value in schedule:
                if value not in _VALID_SYMBOLS:
                    raise ValueError(f"adversary produced invalid symbol {value!r}")
            self._baselines[link] = schedule
        return schedule

    def delivered(self, link: Tuple[int, int], offset: int) -> Symbol:
        """What the receiver observes on ``link`` at ``offset``.

        Serves the evaluated delivery for slots something was sent on, the
        silence baseline (insertions) for untouched slots under an inserting
        adversary, and ``None`` otherwise — exactly what the dense lockstep
        dispatch would have put in its result mapping.
        """
        if link not in self._links:
            raise ValueError(
                f"message keyed on unknown link {link}: not a directed edge of the network"
            )
        if not 0 <= offset < self._rounds:
            raise ValueError(
                f"offset {offset} outside the {self._rounds}-round phase window"
            )
        key = (link, offset)
        if key in self._received:
            return self._received[key]
        if not self._may_insert:
            return None
        return self._baseline(link)[offset]

    def delivered_map(self, offset: int) -> Dict[Tuple[int, int], Symbol]:
        """All links delivering a (non-``None``) symbol at phase-round ``offset``."""
        out: Dict[Tuple[int, int], Symbol] = {}
        if self._may_insert:
            for link in self._network.graph.directed_edges():
                value = self.delivered(link, offset)
                if value is not None:
                    out[link] = value
        else:
            for (link, slot_offset), value in self._received.items():
                if slot_offset == offset and value is not None:
                    out[link] = value
        return out

    def commit(self) -> None:
        """Account the whole phase and advance the clock — one pass per link."""
        if self._committed:
            raise RuntimeError("phase already committed")
        self._committed = True
        network = self._network
        rounds = self._rounds
        stats = network.stats
        may_insert = self._may_insert
        network.windows_exchanged += 1
        network.merged_dispatches += 1
        recorder = network.recorder
        per_link_sent: Dict[Tuple[int, int], Dict[int, Symbol]] = {}
        for (link, offset), symbol in self._sent.items():
            per_link_sent.setdefault(link, {})[offset] = symbol
        silence = [None] * rounds
        received = self._received
        for link in network.graph.directed_edges():
            overrides = per_link_sent.get(link)
            if overrides is None:
                if not may_insert:
                    continue  # all-silent link, non-inserting adversary: no slot carries bits
                baseline = self._baseline(link)
                if any(value is not None for value in baseline):
                    ctx = WindowContext(
                        link=link,
                        phase=self._phase,
                        iteration=self._iteration,
                        base_round=self._base_round,
                    )
                    stats.record_window(ctx, silence, baseline)
                    if recorder is not None:
                        recorder.record_window(
                            link_label(*link), self._phase, self._iteration,
                            self._base_round, silence, baseline,
                        )
                continue
            sent_window = [overrides.get(offset) for offset in range(rounds)]
            if may_insert:
                baseline = self._baseline(link)
                delivered_window = [
                    received[(link, offset)] if (link, offset) in received else baseline[offset]
                    for offset in range(rounds)
                ]
            else:
                delivered_window = [received.get((link, offset)) for offset in range(rounds)]
            ctx = WindowContext(
                link=link,
                phase=self._phase,
                iteration=self._iteration,
                base_round=self._base_round,
            )
            stats.record_window(ctx, sent_window, delivered_window)
            if recorder is not None:
                recorder.record_window(
                    link_label(*link), self._phase, self._iteration,
                    self._base_round, sent_window, delivered_window,
                )
        network.advance_rounds(rounds)
