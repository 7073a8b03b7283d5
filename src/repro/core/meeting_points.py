"""The per-link meeting-points mechanism (paper §3.1(ii), §4.2, Appendix A).

Every consistency-check phase, the two endpoints of a link exchange three
short hashes: one of their meeting-points counter ``k`` and two of transcript
prefixes truncated at the current *meeting points* MP1 and MP2.  The meeting
points are the multiples of ``k̃ = 2^⌈log₂ k⌉`` nearest below the transcript
length, so as the search continues (k grows) the candidate rollback points
move back geometrically.  When a party has seen enough evidence that one of
its meeting points is a common prefix, it truncates its transcript to that
point; when the full-transcript hashes match at ``k = 1`` the link is
consistent and the party reports status ``"simulate"``.

The implementation follows Haeupler's meeting-points protocol (which the
paper adapts as its Algorithm 7 — the appendix text is not fully available in
our source, see DESIGN.md):

* ``k`` counts consecutive consistency phases spent in the current search;
* ``E`` counts phases in which the two parties appear to disagree about ``k``
  itself (evidence of channel noise);
* ``mpc1`` / ``mpc2`` count, within the current scale, how often MP1 / MP2
  hash-matched one of the other side's meeting points;
* at the end of a scale (``k = k̃``) the party either truncates to a
  sufficiently supported meeting point, or — if errors dominate — resets the
  search.

A single exchange costs ``3τ`` bits per direction, τ being the hash output
length, so a consistency phase over the whole network costs Θ(τ·m) bits, as
required for the constant-rate accounting.

The wire message is built by one batched
:meth:`~repro.hashing.seeds.SeedSource.seeds_for_iteration` call per
iteration, the three prefix digests computed in one
:meth:`~repro.hashing.inner_product.InnerProductHash.digest_many` pass over
the shared seed, and digests kept as packed integers end to end.
:func:`per_call_message` keeps the original per-call derivation — one
``seed_for`` per hash, one ``digest`` per value — as the reference oracle
that ``tests/test_hashing_equivalence.py`` compares the session with over
random transcripts, seeds and corrupted replies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.transcript import LinkTranscript
from repro.hashing.inner_product import FINGERPRINT_BITS, InnerProductHash
from repro.hashing.seeds import SeedLayout, SeedSource, seed_layout

STATUS_SIMULATE = "simulate"
STATUS_MEETING_POINTS = "meeting points"

#: Width of the encoding of the counter ``k`` fed to the hash.
_COUNTER_BITS = 32
#: Maximum raw-serialisation width (bits) before falling back to fingerprints.
_RAW_INPUT_CAP_BITS = 4096


@dataclass
class MeetingPointsOutcome:
    """What one consistency-check exchange decided for one endpoint."""

    status: str
    truncate_to: Optional[int] = None
    k_agreed: bool = False
    full_match: bool = False
    vote: Optional[str] = None
    reset: bool = False


@dataclass
class MeetingPointsSession:
    """Per-(party, link) state of the meeting-points mechanism."""

    hasher: InnerProductHash
    seed_source: SeedSource
    hash_input_mode: str = "fingerprint"

    k: int = 0
    error_count: int = 0
    mpc1: int = 0
    mpc2: int = 0
    status: str = STATUS_SIMULATE

    #: Diagnostics accumulated over the whole run.
    truncations: int = 0
    resets: int = 0
    #: How many hash messages this session built (``repro.obs``; a plain
    #: increment, flushed into the metrics registry by the engine).
    builds: int = 0

    #: Optional flight recorder (``repro.obs.recorder``) plus the directed
    #: link this session guards, attached by the engine when forensics are
    #: on.  The session emits ``meeting_point`` transition events — search
    #: recoveries, divergence onsets, resets, votes, truncations — and never
    #: reads the recorder, so decisions are bit-identical with it attached
    #: or not.
    recorder: Optional[object] = field(default=None, repr=False, compare=False)
    link: str = field(default="", repr=False, compare=False)

    # transient, per-exchange fields
    _mp1: int = 0
    _mp2: int = 0
    _k_tilde: int = 1
    _own_counter_hash: int = -1
    _own_full_hash: int = -1
    _own_mp1_hash: int = -1
    _own_mp2_hash: int = -1
    #: Interned per-input-width seed layouts.
    _layouts: Dict[int, SeedLayout] = field(default_factory=dict, repr=False)

    # -- message construction ----------------------------------------------------

    @property
    def message_bits(self) -> int:
        """Bits per direction per consistency phase (four hashes).

        The message carries hashes of (a) the meeting-points counter ``k``,
        (b) the full transcript — the "are we consistent?" check the paper
        describes as happening every consistency phase, (c) the MP1 prefix and
        (d) the MP2 prefix.
        """
        return 4 * self.hasher.output_bits

    def build_message_packed(self, iteration: int, transcript: LinkTranscript) -> int:
        """Advance ``k`` and produce this phase's outgoing hash message as one
        integer (bit ``i`` of the result is wire bit ``i``)."""
        self.k += 1
        self._k_tilde = 1 << (self.k - 1).bit_length()
        length = transcript.num_chunks
        self._mp1 = self._k_tilde * (length // self._k_tilde)
        self._mp2 = max(self._mp1 - self._k_tilde, 0)
        self.builds += 1
        return self._build_message(iteration, transcript, length)

    def _build_message(self, iteration: int, transcript: LinkTranscript, length: int) -> int:
        """One seed derivation, one multi-value digest pass."""
        hasher = self.hasher
        tau = hasher.output_bits
        values: List[int] = []
        widths: List[int] = []
        for num_chunks in (length, self._mp1, self._mp2):
            value, input_bits = _prefix_hash_input(transcript, num_chunks, self.hash_input_mode)
            values.append(value)
            widths.append(input_bits)
        counter_value = self.k & ((1 << _COUNTER_BITS) - 1)

        if widths[0] == widths[1] == widths[2]:
            counter_seed, prefix_seed, _ = self.seed_source.seeds_for_iteration(
                iteration, self._layout_for(widths[0])
            )
            counter_digest = hasher.digest(counter_value, _COUNTER_BITS, counter_seed)
            full_digest, mp1_digest, mp2_digest = hasher.digest_many(
                values, widths[0], prefix_seed
            )
        else:
            # Mixed raw/fingerprint widths (only reachable in "raw" mode on
            # tiny instances): fall back to per-call seeds for this exchange.
            counter_seed = self.seed_source.seed_for(
                iteration, "mp_counter", hasher.seed_bits_required(_COUNTER_BITS)
            )
            counter_digest = hasher.digest(counter_value, _COUNTER_BITS, counter_seed)
            full_digest, mp1_digest, mp2_digest = (
                hasher.digest(
                    value,
                    input_bits,
                    self.seed_source.seed_for(
                        iteration, "mp_prefix", hasher.seed_bits_required(input_bits)
                    ),
                )
                for value, input_bits in zip(values, widths)
            )

        self._own_counter_hash = counter_digest
        self._own_full_hash = full_digest
        self._own_mp1_hash = mp1_digest
        self._own_mp2_hash = mp2_digest
        return (
            counter_digest
            | (full_digest << tau)
            | (mp1_digest << (2 * tau))
            | (mp2_digest << (3 * tau))
        )

    def _layout_for(self, prefix_input_bits: int) -> SeedLayout:
        layout = self._layouts.get(prefix_input_bits)
        if layout is None:
            layout = seed_layout(
                mp_counter=self.hasher.seed_bits_required(_COUNTER_BITS),
                mp_prefix=self.hasher.seed_bits_required(prefix_input_bits),
            )
            self._layouts[prefix_input_bits] = layout
        return layout

    # -- reply processing ---------------------------------------------------------

    def process_reply_packed(
        self,
        iteration: int,
        transcript: LinkTranscript,
        bits: int,
        present: int,
    ) -> MeetingPointsOutcome:
        """Digest the other side's hashes and decide status / truncation.

        ``(bits, present)`` are the delivered planes of the 4τ-slot reply
        window (:func:`~repro.utils.bitstring.pack_symbols` convention).  A
        hash group is usable only when *all* of its ``present`` bits are set:
        one missing symbol voids the whole hash.
        """
        tau = self.hasher.output_bits
        mask = (1 << tau) - 1
        groups: List[Optional[int]] = []
        for index in range(4):
            start = index * tau
            group_mask = mask << start
            if present & group_mask != group_mask:
                groups.append(None)
            else:
                groups.append((bits >> start) & mask)
        return self._decide(iteration, groups[0], groups[1], groups[2], groups[3])

    def _decide(
        self,
        iteration: int,
        their_counter: Optional[int],
        their_full: Optional[int],
        their_mp1: Optional[int],
        their_mp2: Optional[int],
    ) -> MeetingPointsOutcome:
        """The shared decision logic: compare digests, update the search state."""
        outcome = MeetingPointsOutcome(status=STATUS_MEETING_POINTS)
        outcome.k_agreed = their_counter is not None and their_counter == self._own_counter_hash
        recorder = self.recorder
        was_simulating = self.status == STATUS_SIMULATE

        # The "are we consistent?" check happens every consistency phase: if the
        # full-transcript hashes agree the link looks clean, the search state is
        # discarded and the party goes back to simulating — even if the two
        # endpoints had drifted apart in their meeting-points counters (which
        # happens when noise corrupted one direction of a previous exchange).
        if their_full is not None and their_full == self._own_full_hash:
            outcome.status = STATUS_SIMULATE
            outcome.full_match = True
            if recorder is not None and self.k > 1:
                # A real search (k > 1) just recovered; steady-state matches
                # at k = 1 are not transitions and stay out of the ring.
                recorder.emit(
                    "meeting_point", event="recovered", link=self.link,
                    iteration=iteration, k=self.k,
                )
            self._reset_counters()
            self.status = STATUS_SIMULATE
            return outcome
        if recorder is not None and was_simulating:
            recorder.emit(
                "meeting_point", event="diverged", link=self.link,
                iteration=iteration, k=self.k,
            )

        if not outcome.k_agreed:
            # The two endpoints disagree about how long they have been
            # searching (channel noise, or one of them reset while the other
            # did not).  Restart the local search: within two phases both
            # sides are back at k = 1 simultaneously, which prevents the
            # counters from drifting apart indefinitely.  Each such restart
            # is caused by (and therefore charged to) a corrupted exchange.
            self.error_count += 1
            self.resets += 1
            if recorder is not None:
                recorder.emit(
                    "meeting_point", event="reset", link=self.link,
                    iteration=iteration, k=self.k,
                )
            self._reset_counters()
            self.status = STATUS_MEETING_POINTS
            outcome.reset = True
            return outcome

        if self.k > 1:
            if self._own_mp1_hash in (their_mp1, their_mp2):
                self.mpc1 += 1
                outcome.vote = "mp1"
            elif self._own_mp2_hash in (their_mp1, their_mp2):
                self.mpc2 += 1
                outcome.vote = "mp2"

        # End-of-scale transition: truncate to a sufficiently supported
        # meeting point, then start a fresh (shorter) search.
        if self.k > 1 and self.k == self._k_tilde:
            if self.mpc1 >= 0.5 * self._k_tilde:
                outcome.truncate_to = self._mp1
            elif self.mpc2 >= 0.5 * self._k_tilde:
                outcome.truncate_to = self._mp2
            self.mpc1 = 0
            self.mpc2 = 0

        if recorder is not None and outcome.vote is not None:
            recorder.emit(
                "meeting_point", event="vote", vote=outcome.vote, link=self.link,
                iteration=iteration, k=self.k,
            )

        if outcome.truncate_to is not None:
            self.truncations += 1
            if recorder is not None:
                recorder.emit(
                    "meeting_point", event="truncate", link=self.link,
                    iteration=iteration, k=self.k, truncate_to=outcome.truncate_to,
                )
            self._reset_counters()

        self.status = STATUS_MEETING_POINTS
        outcome.status = STATUS_MEETING_POINTS
        return outcome

    # -- internals ----------------------------------------------------------------

    def _reset_counters(self) -> None:
        self.k = 0
        self.error_count = 0
        self.mpc1 = 0
        self.mpc2 = 0



def _prefix_hash_input(
    transcript: LinkTranscript, num_chunks: int, hash_input_mode: str
) -> Tuple[int, int]:
    """The packed hash input and its width for one transcript prefix.

    Both values come from the transcript's per-prefix cache: the packed raw
    form is ``int.from_bytes(serialized, "little")`` and the fingerprint is a
    BLAKE2b compression, computed once per (transcript state, prefix length)
    instead of per exchange.
    """
    if (
        hash_input_mode == "raw"
        and transcript.prefix_byte_length(num_chunks) * 8 <= _RAW_INPUT_CAP_BITS
    ):
        return transcript.prefix_raw(num_chunks), _RAW_INPUT_CAP_BITS
    return transcript.prefix_fingerprint(num_chunks), FINGERPRINT_BITS


def per_call_message(
    hasher: InnerProductHash,
    seed_source: SeedSource,
    hash_input_mode: str,
    iteration: int,
    transcript: LinkTranscript,
    k: int,
) -> int:
    """Reference oracle for :meth:`MeetingPointsSession.build_message_packed`.

    The original per-call derivation: the meeting points recomputed from
    ``k`` (the session's counter *after* it advanced) and the transcript
    length, then one ``seed_for`` and one ``digest`` per hash.  The session's
    batched path must produce the same wire integer.  The engine never calls
    this; the equivalence suite and the hashing speed gate do.
    """
    k_tilde = 1 << (k - 1).bit_length()
    length = transcript.num_chunks
    mp1 = k_tilde * (length // k_tilde)
    mp2 = max(mp1 - k_tilde, 0)
    tau = hasher.output_bits
    counter_seed = seed_source.seed_for(
        iteration, "mp_counter", hasher.seed_bits_required(_COUNTER_BITS)
    )
    message = hasher.digest(k & ((1 << _COUNTER_BITS) - 1), _COUNTER_BITS, counter_seed)
    for position, num_chunks in enumerate((length, mp1, mp2), start=1):
        value, input_bits = _prefix_hash_input(transcript, num_chunks, hash_input_mode)
        seed = seed_source.seed_for(iteration, "mp_prefix", hasher.seed_bits_required(input_bits))
        message |= hasher.digest(value, input_bits, seed) << (position * tau)
    return message
