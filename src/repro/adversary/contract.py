"""Conformance checking for the adversary contracts.

Two layers of guarantees hold the transport's transmission paths together:

* every adversary's ``corrupt_window_packed`` — the one kernel the transport
  calls — must deliver the same planes (and leave the same state: RNG stream
  consumption, budget accounting) as the per-slot fallback
  :meth:`~repro.adversary.base.Adversary.corrupt_window`, which replays
  ``corrupt`` slot by slot; the packed transport path is only legal because
  the corruption mask it applies is the one the per-slot path would have
  produced;
* a :attr:`~repro.adversary.base.Adversary.slot_addressed` adversary must
  additionally satisfy the slot-addressed laws — purity, slot
  decomposability, path agreement (see
  :meth:`~repro.adversary.base.Adversary.corruption_schedule`) — which is
  what makes the transport's whole-phase ``exchange_phase`` unit legal.

:func:`check_contract` probes both layers on deterministic fuzz windows and
raises :class:`ContractViolation` on the first broken law.  It is exported as
``repro.adversary.check_contract`` so third-party adversaries get the same
tool the stock ones are tested with (``tests/test_adversaries.py`` applies it
to every stock adversary).

The probe is behavioural, not static: it deep-copies the adversary per pass
(so a stateful adversary's streams/budgets cannot leak between passes),
replays the same window sequence through both paths, and compares delivered
planes *and* a structural snapshot of all mutable state after every window.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.adversary.base import Adversary, NoiseBudget
from repro.network.channel import Symbol, WindowContext
from repro.utils.bitstring import pack_symbols, unpack_symbols
from repro.utils.rng import make_rng

#: Default directed links the probe windows run over.  They intentionally
#: include both directions of one edge (echo/spoofing adversaries key on
#: that) and a third unrelated link (targeted adversaries must pass it
#: through untouched).
_DEFAULT_LINKS: Tuple[Tuple[int, int], ...] = ((0, 1), (1, 0), (1, 2), (2, 1))

_DEFAULT_PHASES: Tuple[str, ...] = (
    "meeting_points",
    "flag_passing",
    "simulation",
    "rewind",
)


class ContractViolation(AssertionError):
    """An adversary broke one of the contract laws it declared."""

    def __init__(self, law: str, message: str) -> None:
        super().__init__(f"[{law}] {message}")
        self.law = law


@dataclass(frozen=True)
class ContractReport:
    """What :func:`check_contract` verified for one adversary."""

    adversary: str
    slot_addressed: bool
    windows_probed: int
    laws: Tuple[str, ...]


def _state_snapshot(value: object) -> object:
    """A comparable structural snapshot of an adversary's mutable state.

    Recurses through instance attributes; RNG streams collapse to
    ``getstate()`` and budgets to their counter tuple, so two snapshots are
    equal exactly when the two objects would behave identically from here on.
    """
    if isinstance(value, random.Random):
        return ("rng", value.getstate())
    if isinstance(value, NoiseBudget):
        return (
            "budget",
            value.fraction,
            value.absolute_allowance,
            value.transmissions_seen,
            value.corruptions_spent,
        )
    if isinstance(value, Adversary):
        return (
            type(value).__name__,
            tuple(
                (name, _state_snapshot(attr))
                for name, attr in sorted(vars(value).items(), key=lambda item: item[0])
            ),
        )
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                (key, _state_snapshot(item))
                for key, item in sorted(value.items(), key=lambda kv: repr(kv[0]))
            ),
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return ("seq", tuple(_state_snapshot(item) for item in items))
    return value


def _probe_windows(
    links: Sequence[Tuple[int, int]],
    phases: Sequence[str],
    window_rounds: int,
    windows: int,
    seed: int,
) -> List[Tuple[WindowContext, Tuple[Symbol, ...]]]:
    """Deterministic fuzz windows: mixed symbols/silence over growing rounds."""
    rng = make_rng(seed)
    probes: List[Tuple[WindowContext, Tuple[Symbol, ...]]] = []
    for index in range(windows):
        link = links[index % len(links)]
        phase = phases[index % len(phases)]
        base_round = index * window_rounds
        if index == 0:
            symbols: Tuple[Symbol, ...] = (None,) * window_rounds  # all silence
        elif index == 1:
            symbols = tuple(rng.choice((0, 1)) for _ in range(window_rounds))  # all traffic
        else:
            symbols = tuple(rng.choice((0, 1, None)) for _ in range(window_rounds))
        ctx = WindowContext(link=link, phase=phase, iteration=index % 3, base_round=base_round)
        probes.append((ctx, symbols))
    return probes


def _check_packed_equivalence(
    adv: Adversary,
    probes: Sequence[Tuple[WindowContext, Tuple[Symbol, ...]]],
) -> None:
    """corrupt_window_packed must apply the same corruption mask as the
    per-slot fallback: same delivered planes, same state afterwards."""
    packed = copy.deepcopy(adv)
    reference = copy.deepcopy(adv)
    packed.reset()
    reference.reset()
    for ctx, symbols in probes:
        bits, present = pack_symbols(symbols)
        got = tuple(packed.corrupt_window_packed(ctx, bits, present, len(symbols)))
        expected_symbols = Adversary.corrupt_window(reference, ctx, symbols)
        expected = pack_symbols(expected_symbols)
        if got != expected:
            raise ContractViolation(
                "packed-equivalence",
                f"{type(adv).__name__}.corrupt_window_packed delivers planes "
                f"{got!r} on {ctx!r} but the per-slot fallback delivers "
                f"{expected_symbols!r} (= planes {expected!r})",
            )
        delivered_bits, delivered_present = got
        if delivered_bits & ~delivered_present:
            raise ContractViolation(
                "packed-equivalence",
                f"{type(adv).__name__}.corrupt_window_packed broke the plane "
                f"invariant on {ctx!r}: bits {delivered_bits:#x} outside the "
                f"present mask {delivered_present:#x}",
            )
        if _state_snapshot(packed) != _state_snapshot(reference):
            raise ContractViolation(
                "packed-equivalence",
                f"{type(adv).__name__}.corrupt_window_packed left different state "
                f"than the per-slot fallback after {ctx!r} (RNG streams or budget "
                "counters diverged)",
            )


def _check_slot_addressed(
    adv: Adversary,
    probes: Sequence[Tuple[WindowContext, Tuple[Symbol, ...]]],
) -> None:
    """Purity, slot decomposability and path agreement of corruption_schedule."""
    subject = copy.deepcopy(adv)
    subject.reset()
    independent = copy.deepcopy(subject)
    for ctx, symbols in probes:
        before = _state_snapshot(subject)
        first = list(subject.corruption_schedule(ctx, symbols))
        second = list(subject.corruption_schedule(ctx, symbols))
        if first != second:
            raise ContractViolation(
                "purity",
                f"{type(adv).__name__}.corruption_schedule is not deterministic on "
                f"{ctx!r}: {first!r} then {second!r}",
            )
        if _state_snapshot(subject) != before:
            raise ContractViolation(
                "purity",
                f"{type(adv).__name__}.corruption_schedule mutated state on {ctx!r} "
                "(a slot-addressed adversary must not touch RNG streams, budgets or "
                "any other mutable state)",
            )
        # An independent probe object (never having seen the other windows)
        # must produce the same schedule: no hidden cross-window coupling.
        if list(independent.corruption_schedule(ctx, symbols)) != first:
            raise ContractViolation(
                "purity",
                f"{type(adv).__name__}.corruption_schedule on {ctx!r} differs "
                "between two independently constructed probes",
            )
        slot_contexts = [
            WindowContext(
                link=ctx.link,
                phase=ctx.phase,
                iteration=ctx.iteration,
                base_round=ctx.base_round + offset,
            )
            for offset in range(len(symbols))
        ]
        for offset, symbol in enumerate(symbols):
            slot_ctx = slot_contexts[offset]
            single = subject.corruption_schedule(slot_ctx, (symbol,))
            if single[0] != first[offset]:
                raise ContractViolation(
                    "slot-decomposability",
                    f"{type(adv).__name__}: slot {offset} of the window schedule on "
                    f"{ctx!r} is {first[offset]!r} but the single-slot evaluation at "
                    f"round {slot_ctx.base_round} gives {single[0]!r}",
                )
        for offset, symbol in enumerate(symbols):
            if not adv.may_insert and symbol is None:
                continue  # the per-slot transport never consults corrupt here
            slot_ctx = slot_contexts[offset]
            direct = subject.corrupt(slot_ctx.slot(0), symbol)
            if direct != first[offset]:
                raise ContractViolation(
                    "path-agreement",
                    f"{type(adv).__name__}.corrupt at round {slot_ctx.base_round} "
                    f"on {ctx.link} delivers {direct!r} but corruption_schedule "
                    f"delivers {first[offset]!r}",
                )
        bits, present = pack_symbols(symbols)
        window_path = unpack_symbols(
            *subject.corrupt_window_packed(ctx, bits, present, len(symbols)), len(symbols)
        )
        if window_path != first:
            raise ContractViolation(
                "path-agreement",
                f"{type(adv).__name__}.corrupt_window_packed on {ctx!r} delivers "
                f"{window_path!r} but corruption_schedule delivers {first!r}",
            )


def check_contract(
    adv: Adversary,
    *,
    links: Optional[Sequence[Tuple[int, int]]] = None,
    phases: Optional[Sequence[str]] = None,
    window_rounds: int = 12,
    windows: int = 8,
    seed: int = 2024,
) -> ContractReport:
    """Probe ``adv`` against every contract it declares.

    Always checks packed-vs-per-slot equivalence (``corrupt_window_packed``
    delivering the corruption mask of the per-slot fallback, plane invariant
    included).  When
    ``adv.slot_addressed`` is ``True``, additionally probes the slot-addressed
    laws (purity, slot decomposability, path agreement); when ``False``,
    verifies that :meth:`~repro.adversary.base.Adversary.corruption_schedule`
    refuses to run.  The probe windows are deterministic in ``seed`` and span
    absolute rounds ``[0, windows * window_rounds)`` — configure adversaries
    whose behaviour is round- or link-keyed (bursts, patterns, targets) to
    overlap that region and the default ``links`` so the interesting branches
    are exercised.

    Returns a :class:`ContractReport`; raises :class:`ContractViolation` on
    the first broken law.  The adversary object is never mutated (all probes
    run on deep copies).
    """
    probe_links = tuple(links) if links is not None else _DEFAULT_LINKS
    probe_phases = tuple(phases) if phases is not None else _DEFAULT_PHASES
    probes = _probe_windows(probe_links, probe_phases, window_rounds, windows, seed)
    laws: List[str] = ["packed-equivalence"]
    _check_packed_equivalence(adv, probes)
    if adv.slot_addressed:
        _check_slot_addressed(adv, probes)
        laws += ["purity", "slot-decomposability", "path-agreement"]
    else:
        ctx, symbols = probes[0]
        try:
            copy.deepcopy(adv).corruption_schedule(ctx, symbols)
        except RuntimeError:
            pass
        else:
            raise ContractViolation(
                "truthful-flag",
                f"{type(adv).__name__} reports slot_addressed=False but "
                "corruption_schedule did not refuse to run",
            )
        laws.append("truthful-flag")
    return ContractReport(
        adversary=adv.name,
        slot_addressed=adv.slot_addressed,
        windows_probed=len(probes),
        laws=tuple(laws),
    )
