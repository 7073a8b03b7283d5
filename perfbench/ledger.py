"""Outside-in layer ledger: times every call into each layer's public entry points.

The ledger wraps functions and methods of the installed ``repro`` package from
the benchmark's side (nothing under ``src/`` is edited).  Each wrapped call is
one span; a layer's *self time* (``busy_s``) is the span's duration minus the
time its nested wrapped calls took, so the layers add up to the traced trial
wall clock without double counting.  Next to the times it records work counts
that are exact functions of the inputs, so two traced runs of one seed must
agree count for count.

Two traps the wrapping handles:

* a function imported by name into another module (``run_randomness_exchange``
  in ``repro.core.engine``, ``execute_trials`` in ``repro.experiments.harness``)
  must be replaced in every module that bound it, not only where it is defined;
* methods overridden per subclass (adversary kernels, seed sources) are wrapped
  on every class that defines them, not only on the base class — wrapping only
  ``Adversary.corrupt_window`` would miss ``RandomNoiseAdversary.corrupt_window``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.adversary.base import Adversary
from repro.coding.block_code import BinaryBlockCode
from repro.coding.reed_solomon import DecodingError
from repro.core.engine import InteractiveCodingSimulator
from repro.core.meeting_points import MeetingPointsSession
from repro.core.transcript import LinkTranscript
from repro.hashing.inner_product import InnerProductHash
from repro.hashing.seeds import SeedSource
from repro.hashing.small_bias import SmallBiasGenerator
from repro.network.transport import NoisyNetwork, PhaseExchange
from repro.protocols.base import Protocol
from repro.runtime.cache import ResultCache

# Import every module that defines adversary or protocol subclasses, so the
# subclass walk below sees all of them.
import repro.adversary.oblivious  # noqa: F401
import repro.adversary.strategies  # noqa: F401
import repro.protocols  # noqa: F401

from common import LAYERS

#: Work counts recorded next to the per-layer ``calls``.
COUNTS = (
    "coding.codeword_bits",
    "coding.decode_errors",
    "core.randomness_exchange.links",
    "core.randomness_exchange.agreed_links",
    "hashing.small_bias.bits_served",
    "hashing.inner_product.digests",
    "network.transport.dispatches",
    "network.transport.slots",
    "adversary.window_slots",
    "adversary.fallback_slots",
    "runtime.cache_probes",
    "core.engine.iterations",
    "core.engine.rounds",
)

_TRANSCRIPT_METHODS = (
    "append",
    "truncate_to",
    "truncate_last",
    "serialize_prefix",
    "prefix_byte_length",
    "prefix_fingerprint",
    "prefix_raw",
    "matches_prefix",
    "common_prefix_chunks",
    "received_map",
)

# Frame layout on the ledger's call stack: [nested seconds, layer, tag].
_NESTED, _LAYER, _TAG = 0, 1, 2


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _subclasses(root: type) -> Iterator[type]:
    seen = set()
    pending = [root]
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        yield klass
        pending.extend(klass.__subclasses__())


class Ledger:
    """Per-layer self time, call counts and work counts for one process."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.seeds: set = set()
        self._stack: List[list] = []

    def reset(self) -> None:
        self.busy.clear()
        self.calls.clear()
        self.counts.clear()
        self.seeds.clear()

    def snapshot(self) -> Dict[str, object]:
        """Busy seconds per layer plus every integer count (all keys present)."""
        counts = {f"{layer}.calls": self.calls.get(layer, 0) for layer in LAYERS}
        counts.update({name: self.counts.get(name, 0) for name in COUNTS})
        counts["hashing.small_bias.distinct_seeds"] = len(self.seeds)
        return {"busy": {layer: self.busy.get(layer, 0.0) for layer in LAYERS}, "counts": counts}

    # -- wrapping -------------------------------------------------------------

    def _wrap(
        self,
        layer: str,
        fn: Callable,
        tag: Optional[str] = None,
        observe: Optional[Callable] = None,
        error: Optional[Tuple[type, str]] = None,
    ) -> Callable:
        stack = self._stack
        busy = self.busy
        calls = self.calls
        clock = time.perf_counter
        caught, error_count = error if error is not None else ((), "")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, layer, tag]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except caught:
                self.counts[error_count] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                busy[layer] += elapsed - frame[_NESTED]
                calls[layer] += 1
                if parent is not None:
                    parent[_NESTED] += elapsed
            if observe is not None:
                observe(args, kwargs, result, parent)
            return result

        return timed

    def _wrap_function(self, layer: str, module_name: str, name: str, **options) -> None:
        """Wrap a module-level function in every ``repro`` module that bound it."""
        original = getattr(sys.modules[module_name], name)
        wrapped = self._wrap(layer, original, **options)
        for loaded_name, module in list(sys.modules.items()):
            if loaded_name.split(".")[0] == "repro" and getattr(module, name, None) is original:
                setattr(module, name, wrapped)

    def _wrap_methods(self, layer: str, root: type, names, options=None) -> None:
        """Wrap ``names`` on ``root`` and on every subclass that defines its own."""
        options = options or {}
        for klass in _subclasses(root):
            for name in names:
                original = klass.__dict__.get(name)
                if inspect.isfunction(original):
                    per_method = options.get(name, {})
                    if callable(per_method):
                        per_method = per_method(klass)
                    setattr(klass, name, self._wrap(layer, original, **per_method))

    def install(self) -> None:
        """Patch every entry point; call once, after importing ``repro``."""
        counts = self.counts

        def count(name: str, amount: Callable[..., int]):
            def observe(args, kwargs, result, parent):
                counts[name] += amount(args, kwargs, result)
            return {"observe": observe}

        def top_level(layer: str, name_amounts):
            """Count only calls that did not come from inside ``layer`` itself."""
            def observe(args, kwargs, result, parent):
                if parent is None or parent[_LAYER] != layer:
                    for name, amount in name_amounts:
                        counts[name] += amount(args, kwargs, result)
            return {"observe": observe}

        # coding: block encode/decode of the exchanged seeds.
        self._wrap_methods("coding", BinaryBlockCode, ("encode", "decode"), {
            "encode": count("coding.codeword_bits", lambda a, k, r: len(r)),
            "decode": {"error": (DecodingError, "coding.decode_errors")},
        })

        # core.randomness_exchange: bound by name into repro.core.engine.
        def exchange_observe(args, kwargs, result, parent):
            counts["core.randomness_exchange.links"] += len(result.agreed)
            counts["core.randomness_exchange.agreed_links"] += sum(result.agreed.values())

        self._wrap_function(
            "core.randomness_exchange", "repro.core.randomness_exchange",
            "run_randomness_exchange", observe=exchange_observe,
        )

        # hashing.small_bias: construction and the packed stream reads.
        seeds = self.seeds

        def generator_built(args, kwargs, result, parent):
            generator = args[0]
            seeds.add((generator.x, generator.y, generator.field_degree))

        self._wrap_methods("hashing.small_bias", SmallBiasGenerator,
                           ("__init__", "packed_slots", "packed_bits"), {
            "__init__": {"observe": generator_built},
            "packed_bits": count("hashing.small_bias.bits_served",
                                 lambda a, k, r: _arg(a, k, 2, "count")),
        })

        self._wrap_methods("hashing.seeds", SeedSource, ("seeds_for_iteration", "seed_for"))

        self._wrap_methods("hashing.inner_product", InnerProductHash, ("digest", "digest_many"), {
            "digest": top_level("hashing.inner_product",
                                [("hashing.inner_product.digests", lambda a, k, r: 1)]),
            "digest_many": top_level("hashing.inner_product",
                                     [("hashing.inner_product.digests", lambda a, k, r: len(r))]),
        })

        self._wrap_methods("core.meeting_points", MeetingPointsSession, (
            "build_message", "build_message_packed", "process_reply", "process_reply_packed",
        ))

        self._wrap_methods("core.transcript", LinkTranscript, _TRANSCRIPT_METHODS)

        # network.transport: dispatches and slots of calls from outside the layer.
        def window_slots(a, k, r):
            return _arg(a, k, 2, "window_rounds") * len(_arg(a, k, 1, "messages"))

        def dispatch(slots):
            return top_level("network.transport", [
                ("network.transport.dispatches", lambda a, k, r: 1),
                ("network.transport.slots", slots),
            ])

        self._wrap_methods("network.transport", NoisyNetwork, (
            "exchange_window", "exchange_window_packed", "exchange_window_per_slot",
            "exchange_phase", "transmit", "advance_rounds",
        ), {
            "exchange_window": dispatch(window_slots),
            "exchange_window_packed": dispatch(window_slots),
            "exchange_window_per_slot": dispatch(window_slots),
            "exchange_phase": dispatch(lambda a, k, r: 0),
            "transmit": dispatch(lambda a, k, r: 1),
        })
        self._wrap_methods("network.transport", PhaseExchange,
                           ("__init__", "send", "delivered", "delivered_map", "commit"), {
            "send": top_level("network.transport",
                              [("network.transport.slots", lambda a, k, r: 1)]),
        })

        # adversary: every subclass's own kernels.  Slots are counted where the
        # transport hands them over; fallback slots are the per-slot corrupt()
        # calls issued by the base-class corrupt_window fallback.
        def adversary_slots(amount):
            return top_level("adversary", [("adversary.window_slots", amount)])

        def corrupt_observe(args, kwargs, result, parent):
            if parent is None or parent[_LAYER] != "adversary":
                counts["adversary.window_slots"] += 1
            elif parent[_TAG] == "fallback":
                counts["adversary.fallback_slots"] += 1

        self._wrap_methods("adversary", Adversary, (
            "corrupt", "corrupt_window", "corrupt_window_packed", "corruption_schedule",
            "notify_delivery",
        ), {
            "corrupt": {"observe": corrupt_observe},
            "corrupt_window": lambda klass: dict(
                adversary_slots(lambda a, k, r: len(_arg(a, k, 2, "symbols"))),
                tag="fallback" if klass is Adversary else None,
            ),
            "corrupt_window_packed": adversary_slots(lambda a, k, r: _arg(a, k, 4, "count")),
            "corruption_schedule": adversary_slots(lambda a, k, r: len(_arg(a, k, 2, "symbols"))),
        })

        self._wrap_methods("protocols", Protocol, ("run_noiseless",))

        self._wrap_function("baselines", "repro.baselines.uncoded", "run_uncoded")
        self._wrap_function("baselines", "repro.baselines.repetition", "run_repetition")

        # runtime: the trial harness around the engine.
        self._wrap_function("runtime", "repro.experiments.harness", "run_trials")
        self._wrap_function("runtime", "repro.runtime.executor", "execute_trials")
        self._wrap_function("runtime", "repro.runtime.spec", "fingerprint_trial")
        self._wrap_methods("runtime", ResultCache, ("get", "put"), {
            "get": count("runtime.cache_probes", lambda a, k, r: 1),
        })

        # core.engine: whatever the simulator does that no layer above claims.
        def engine_run(args, kwargs, result, parent):
            counts["core.engine.iterations"] += result.iterations_run
            counts["core.engine.rounds"] += args[0].network.current_round

        self._wrap_methods("core.engine", InteractiveCodingSimulator, ("__init__", "run"), {
            "run": {"observe": engine_run},
        })
