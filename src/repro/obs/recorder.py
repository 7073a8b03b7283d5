"""The protocol flight recorder: bounded, opt-in, fingerprint-invisible.

A :class:`FlightRecorder` captures *protocol events* — the mechanisms the
paper's analysis names — while a trial runs:

* ``corruption`` — one event per (round, link) slot the adversary changed,
  classified as substitution / deletion / insertion (the transport emits
  these on every transmission path: per-slot, batched window, packed
  window, whole phase);
* ``hash_collision`` — the meeting-points digest matched but the underlying
  transcripts diverge (the engine's ground-truth check);
* ``meeting_point`` — per-link meeting-point decisions: full matches,
  ``k``-disagreement resets, end-of-scale truncations, rewind votes;
* ``rewind`` — transcript truncations, on the sender and receiver side;
* ``potential`` — the per-iteration Φ snapshot (G*, H*, B*, Φ) computed via
  ``repro.analysis.potential``.

Events go into a **ring buffer** (``capacity`` events, default 4096): a
pathological trial cannot grow memory without bound — the oldest events fall
off and ``events_dropped`` counts them.  When a trial finishes, the recorder
folds the ring into a per-trial **dump**: failing trials keep the full event
timeline, successful trials keep only a per-kind event count summary (cheap).
``drain()`` hands the accumulated dumps over for persistence — the harness
stores them on the trial-set record (``forensics``) and the distributed
worker ships them back on the ``result`` wire frame for the coordinator to
``adopt()``, so coordinator-side forensics cover remote workers.

Everything in a dump is JSON-pure from the moment it is recorded (links are
``"u->v"`` strings, symbols are ``0 / 1 / null``) so a dump that crossed the
distributed wire is byte-identical to one recorded in process.  No
timestamps, no ids, no :mod:`random` draws: the recorder is bit-identity
neutral (it only ever *reads* protocol state) and its output is a pure
function of the trial spec, whatever backend executed it.

Like the rest of ``repro.obs`` this module is stdlib-only and imports
nothing from the rest of ``repro``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

#: Default ring capacity (events per trial kept in memory).
DEFAULT_CAPACITY = 4096

#: Event kinds a recorder emits; ``event_counts`` keys are drawn from these.
EVENT_KINDS = (
    "corruption",
    "hash_collision",
    "meeting_point",
    "rewind",
    "potential",
)


def link_label(sender: Any, receiver: Any) -> str:
    """Canonical JSON-pure label for a directed link."""
    return f"{sender}->{receiver}"


def classify_slot(sent: Optional[int], received: Optional[int]) -> Optional[str]:
    """Classify one delivered slot against what was sent.

    Returns ``None`` for clean delivery, else ``"insertion"`` (silence turned
    into a symbol), ``"deletion"`` (a symbol turned into silence) or
    ``"substitution"`` — mirroring the transport's own accounting.
    """
    if sent == received:
        return None
    if sent is None:
        return "insertion"
    if received is None:
        return "deletion"
    return "substitution"


class FlightRecorder:
    """Bounded per-trial protocol event recorder.

    One recorder instance serves a whole trial *sequence* (a chunk, a cell, a
    sweep): :meth:`begin_trial` resets the ring for the next trial and
    :meth:`finish_trial` folds it into a dump.  Event emission is
    single-threaded by construction (one trial runs on one thread); only the
    dump list — which the distributed coordinator appends to from driver
    threads via :meth:`adopt` — is lock-guarded.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events_total = 0
        self.events_dropped = 0
        self._events: deque = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        self._trial: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()
        self._dumps: List[Dict[str, Any]] = []

    # -- event emission (hot path; call sites guard on ``recorder is None``) --

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one protocol event into the current trial's ring."""
        event = {"kind": kind}
        event.update(fields)
        if len(self._events) == self.capacity:
            self.events_dropped += 1
        self._events.append(event)
        self.events_total += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1

    def record_window(
        self,
        link: str,
        phase: str,
        iteration: Optional[int],
        base_round: int,
        sent: Iterable[Optional[int]],
        delivered: Iterable[Optional[int]],
    ) -> None:
        """Walk one delivered window and emit a ``corruption`` event per
        changed slot (round = ``base_round`` + offset, matching the
        transport's own per-slot accounting on every transmission path)."""
        for offset, (sent_symbol, received) in enumerate(zip(sent, delivered)):
            corruption = classify_slot(sent_symbol, received)
            if corruption is not None:
                self.emit(
                    "corruption",
                    round=base_round + offset,
                    link=link,
                    corruption=corruption,
                    phase=phase,
                    iteration=iteration,
                    sent=sent_symbol,
                    received=received,
                )

    # -- trial lifecycle ----------------------------------------------------

    def begin_trial(self, **fields: Any) -> None:
        """Start a fresh trial scope (identified by JSON-pure ``fields``)."""
        self._events.clear()
        self._counts = {}
        self._trial = dict(fields)

    def finish_trial(self, *, success: bool, **summary: Any) -> Dict[str, Any]:
        """Close the current trial scope and fold the ring into a dump.

        Failing trials keep the full event timeline; successful trials keep
        only the per-kind counts.  The dump is appended to the drain queue
        and also returned.
        """
        trial = dict(self._trial or {})
        trial["success"] = success
        trial.update(summary)
        dump = {
            "trial": trial,
            "event_counts": dict(self._counts),
            "events_recorded": sum(self._counts.values()),
            "events_kept": len(self._events),
            "events": [] if success else list(self._events),
        }
        self._events.clear()
        self._counts = {}
        self._trial = None
        with self._lock:
            self._dumps.append(dump)
        return dump

    # -- collection ---------------------------------------------------------

    def adopt(self, dumps: Iterable[Dict[str, Any]]) -> int:
        """Merge finished dumps from another recorder (a remote worker's);
        returns how many were adopted."""
        adopted = 0
        with self._lock:
            for dump in dumps:
                if not isinstance(dump, dict):
                    continue
                self._dumps.append(dump)
                adopted += 1
        return adopted

    def drain(self) -> List[Dict[str, Any]]:
        """All finished trial dumps so far, cleared from the recorder."""
        with self._lock:
            dumps, self._dumps = self._dumps, []
        return dumps
