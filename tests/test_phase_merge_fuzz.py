"""Differential fuzzing of whole-phase round merging.

The engine collapses the flag-passing, simulation and rewind phases into one
:meth:`~repro.network.transport.NoisyNetwork.exchange_phase` dispatch per
phase whenever the adversary honours the slot-addressed contract
(:attr:`~repro.adversary.base.Adversary.slot_addressed`).  The merged
schedule is advertised as **bit-identical**: not "statistically equivalent", but the same
``SimulationResult``, the same :class:`~repro.network.channel.ChannelStats`
counters, the same round clock and the same adversary end state (RNG stream
positions, budget counters) as the per-round lockstep schedule.

This suite pins that claim differentially: hypothesis draws a workload
(scheme x topology x stock adversary x seed x observability mode), runs it
twice — once as the reference (the adversary wrapped in
:class:`_LockstepProxy`, which reports ``slot_addressed=False`` so the engine
takes the per-round schedule, with every window routed through the per-slot
transport oracle) and once on the production path (merged phases, and the
meeting-points exchange through ``exchange_window_packed``'s
``(bits, present)`` plane pairs) — and requires every observable to match
exactly.  One case uses a deliberately non-slot-addressed adversary to pin
the fallback: the engine must not merge (zero merged dispatches) while the
packed transport, which is legal for *every* adversary
(``corrupt_window_packed`` is contract-pinned bit-identical), still runs.

The observability mode covers the flight recorder too: a run under an
ambient :class:`~repro.obs.recorder.FlightRecorder` must stay bit-identical
(results, stats, budgets, RNG positions), and the *recorded* corruption
events must agree across schedules up to emission order (the merged path
emits per link at commit; the lockstep path emits round by round — same
multiset, different interleaving).

Reproducing a failure
---------------------

Hypothesis prints the failing example and a reproduction seed on failure.
Re-run a specific derivation deterministically with::

    PYTHONPATH=src python -m pytest tests/test_phase_merge_fuzz.py \
        --hypothesis-seed=<seed>

(the ``<seed>`` is printed in the failure report), or paste the printed
``@reproduce_failure`` decorator onto the test.  The examples budget is
deliberately small (the suite runs two full simulations per example); crank
``max_examples`` up locally for a deeper soak.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import route_per_slot

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.adversary.contract import _state_snapshot
from repro.adversary.oblivious import AdditiveObliviousAdversary, FixingObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    DeletionAdversary,
    LinkTargetedAdversary,
    RandomNoiseAdversary,
)
from repro.core.engine import InteractiveCodingSimulator
from repro.core.parameters import scheme_by_name
from repro.network.topologies import (
    line_topology,
    random_connected_topology,
    ring_topology,
    star_topology,
)
from repro.obs.context import use_obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.protocols.random_protocol import RandomProtocol
from repro.utils.rng import make_rng

_FUZZ = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_SCHEMES = ("algorithm_crs", "algorithm_a", "algorithm_b")

_TOPOLOGIES = {
    "line4": lambda seed: line_topology(4),
    "ring5": lambda seed: ring_topology(5),
    "star5": lambda seed: star_topology(5),
    "random5": lambda seed: random_connected_topology(5, 0.4, seed=seed),
}


def _oblivious_pattern(graph, seed, values, density=0.02, horizon=600):
    """A deterministic sparse (round, link) -> value pattern over the run."""
    rng = make_rng(seed)
    pattern = {}
    for round_index in range(horizon):
        for sender, receiver in graph.directed_edges():
            if rng.random() < density:
                pattern[(round_index, sender, receiver)] = rng.choice(values)
    return pattern


#: name -> builder(graph, seed) for every adversary family under fuzz.  All
#: but the last are slot-addressed; "stateful-fallback" pins that the engine
#: never merges for adversaries that truthfully report slot_addressed=False.
_ADVERSARIES = {
    "noiseless": lambda graph, seed: NoiselessAdversary(),
    "additive": lambda graph, seed: AdditiveObliviousAdversary(
        pattern=_oblivious_pattern(graph, seed, (1, 2))
    ),
    "fixing": lambda graph, seed: FixingObliviousAdversary(
        pattern=_oblivious_pattern(graph, seed, (0, 1, None))
    ),
    "random-noise-slot": lambda graph, seed: RandomNoiseAdversary(
        corruption_probability=0.01,
        insertion_probability=0.002,
        seed=seed,
        slot_addressed=True,
    ),
    "deletion-slot": lambda graph, seed: DeletionAdversary(
        deletion_probability=0.01, seed=seed, slot_addressed=True
    ),
    "link-targeted-slot": lambda graph, seed: LinkTargetedAdversary(
        target=graph.edges[seed % len(graph.edges)],
        corruption_probability=0.05,
        max_corruptions=None,
        seed=seed,
        slot_addressed=True,
    ),
    "burst-slot": lambda graph, seed: BurstAdversary(
        start_round=5 + seed % 20, end_round=40 + seed % 60, max_corruptions=None, seed=seed,
        slot_addressed=True,
    ),
    "composite-slot": lambda graph, seed: CompositeAdversary(
        components=(
            BurstAdversary(
                start_round=10, end_round=30, max_corruptions=None, seed=seed, slot_addressed=True
            ),
            RandomNoiseAdversary(
                corruption_probability=0.005,
                insertion_probability=0.001,
                seed=seed + 1,
                slot_addressed=True,
            ),
        )
    ),
    "stateful-fallback": lambda graph, seed: RandomNoiseAdversary(
        corruption_probability=0.01, insertion_probability=0.002, seed=seed
    ),
}


class _LockstepProxy(Adversary):
    """Wraps an adversary and reports ``slot_addressed=False``.

    The engine then runs the per-round lockstep schedule against the very
    same adversary object: every corruption entry point and the delivery hook
    delegate to it, and every other attribute (``budget``, ``may_insert``,
    ...) reads through.
    """

    slot_addressed = False

    def __init__(self, inner: Adversary) -> None:
        self.inner = inner
        self.name = inner.name
        self.oblivious = inner.oblivious
        self.may_insert = inner.may_insert

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def corrupt(self, ctx, sent):
        return self.inner.corrupt(ctx, sent)

    def corrupt_window(self, ctx, symbols):
        return self.inner.corrupt_window(ctx, symbols)

    def corrupt_window_packed(self, ctx, bits, present, count):
        return self.inner.corrupt_window_packed(ctx, bits, present, count)

    def notify_delivery(self, ctx, sent, received):
        self.inner.notify_delivery(ctx, sent, received)

    def reset(self):
        self.inner.reset()


def _workload(topology_name, seed):
    graph = _TOPOLOGIES[topology_name](seed)
    inputs = {party: (seed * 31 + party * 7) % 1024 for party in graph.nodes}
    protocol = RandomProtocol(graph, inputs, num_rounds=8, density=0.5, seed=seed + 1)
    return graph, protocol


#: Observability modes a fuzz case may run under; "recorder" puts an ambient
#: FlightRecorder around construction *and* run (the engine and network
#: capture it at construction time).
_OBS_MODES = ("dark", "metrics", "recorder")


def _run(scheme_name, topology_name, adversary_name, seed, merge, obs_mode="dark"):
    """One full simulation; returns (simulator, result, recorder-or-None).

    ``merge=True`` runs the production path; the reference runs of this suite
    pass ``False``: the adversary behind a :class:`_LockstepProxy` (per-round
    schedule) and every window through the per-slot transport oracle."""
    graph, protocol = _workload(topology_name, seed)
    adversary = _ADVERSARIES[adversary_name](graph, seed)
    if not merge:
        adversary = _LockstepProxy(adversary)
    # A ring big enough to never drop: event-multiset comparison between the
    # two schedules needs the complete record (retention under overflow is
    # emission-order-dependent, which is exactly what differs).
    recorder = FlightRecorder(capacity=1_000_000) if obs_mode == "recorder" else None
    if obs_mode == "dark":
        scope = nullcontext()
    else:
        scope = use_obs(
            metrics=MetricsRegistry() if obs_mode == "metrics" else None,
            recorder=recorder,
        )
    with scope:
        simulator = InteractiveCodingSimulator(
            protocol, scheme=scheme_by_name(scheme_name), adversary=adversary, seed=seed
        )
        if not merge:
            route_per_slot(simulator.network)
        result = simulator.run()
    return simulator, result, recorder


def _result_fingerprint(result):
    return (
        result.success,
        result.outputs,
        result.reference_outputs,
        result.metrics,
        result.channel_summary,
        result.iterations_run,
        result.iterations_budget,
        result.num_real_chunks,
        result.final_link_agreement,
        result.randomness_exchange_agreed,
    )


def _assert_bit_identical(reference_run, merged_run):
    reference_sim, reference = reference_run[:2]
    merged_sim, merged = merged_run[:2]
    assert _result_fingerprint(merged) == _result_fingerprint(reference)
    assert vars(merged_sim.network.stats) == vars(reference_sim.network.stats)
    assert merged_sim.network.current_round == reference_sim.network.current_round
    # RNG stream positions and budget counters: the merged schedule must
    # consume the adversary's state exactly like lockstep did.
    assert _state_snapshot(merged_sim.adversary) == _state_snapshot(reference_sim.adversary.inner)
    assert reference_sim.network.merged_dispatches == 0


def _events_by_kind(recorder):
    """The recorder's ring split into (corruption events, everything else)."""
    corruption, rest = [], []
    for event in recorder._events:
        (corruption if event["kind"] == "corruption" else rest).append(event)
    return corruption, rest


def _event_key(event):
    return json.dumps(event, sort_keys=True, default=str)


def _assert_same_recording(reference_recorder, merged_recorder):
    """Both schedules must record the same protocol events.

    Corruption events are compared as multisets (the merged transport emits
    per link at phase commit, the lockstep transport round by round — same
    slots, different interleaving).  Engine- and session-emitted events
    (meeting points, rewinds, hash collisions, Φ) follow the same
    runtime-iteration order under both schedules, so they must match in
    sequence, not just as sets.
    """
    assert reference_recorder.events_dropped == 0
    assert merged_recorder.events_dropped == 0
    ref_corruption, ref_rest = _events_by_kind(reference_recorder)
    merged_corruption, merged_rest = _events_by_kind(merged_recorder)
    assert sorted(map(_event_key, merged_corruption)) == sorted(map(_event_key, ref_corruption))
    assert list(map(_event_key, merged_rest)) == list(map(_event_key, ref_rest))


class TestPhaseMergeDifferential:
    @_FUZZ
    @given(
        scheme_name=st.sampled_from(_SCHEMES),
        topology_name=st.sampled_from(sorted(_TOPOLOGIES)),
        adversary_name=st.sampled_from(sorted(_ADVERSARIES)),
        seed=st.integers(0, 10_000),
        obs_mode=st.sampled_from(_OBS_MODES),
    )
    def test_merged_schedule_is_bit_identical(
        self, scheme_name, topology_name, adversary_name, seed, obs_mode
    ):
        reference_run = _run(scheme_name, topology_name, adversary_name, seed, False, obs_mode)
        merged_run = _run(scheme_name, topology_name, adversary_name, seed, True, obs_mode)
        _assert_bit_identical(reference_run, merged_run)
        if obs_mode == "recorder":
            _assert_same_recording(reference_run[2], merged_run[2])
        merged_sim = merged_run[0]
        assert reference_run[0].network.packed_dispatches == 0
        # The packed meeting-points exchange runs for every adversary —
        # corrupt_window_packed is contract-pinned bit-identical.
        assert merged_sim.network.packed_dispatches > 0
        if adversary_name == "stateful-fallback":
            # slot_addressed is truthfully False: the engine must not merge.
            assert not merged_sim.adversary.slot_addressed
            assert merged_sim.network.merged_dispatches == 0
        else:
            assert merged_sim.adversary.slot_addressed
            assert merged_sim.network.merged_dispatches > 0

    @_FUZZ
    @given(
        adversary_name=st.sampled_from(sorted(set(_ADVERSARIES) - {"stateful-fallback"})),
        seed=st.integers(0, 10_000),
        obs_mode=st.sampled_from(tuple(mode for mode in _OBS_MODES if mode != "dark")),
    )
    def test_merged_schedule_is_obs_invariant(self, adversary_name, seed, obs_mode):
        """Observability (metrics or recorder) must not perturb the merged
        schedule (and vice versa)."""
        dark_run = _run("algorithm_crs", "ring5", adversary_name, seed, True, "dark")
        observed_run = _run("algorithm_crs", "ring5", adversary_name, seed, True, obs_mode)
        assert _result_fingerprint(observed_run[1]) == _result_fingerprint(dark_run[1])
        assert vars(observed_run[0].network.stats) == vars(dark_run[0].network.stats)
        assert observed_run[0].network.merged_dispatches == dark_run[0].network.merged_dispatches


class TestMergedDispatchObservability:
    def test_merged_dispatch_counter_is_flushed(self):
        registry = MetricsRegistry()
        with use_obs(metrics=registry):
            simulator, _, _ = _run("algorithm_crs", "line4", "noiseless", 3, True, "dark")
        counters = registry.snapshot()["counters"]
        assert counters["transport.merged_dispatches"] == simulator.network.merged_dispatches
        assert counters["transport.merged_dispatches"] > 0

    def test_reference_schedule_never_merges(self):
        registry = MetricsRegistry()
        with use_obs(metrics=registry):
            _run("algorithm_crs", "line4", "noiseless", 3, False, "dark")
        counters = registry.snapshot()["counters"]
        assert "transport.merged_dispatches" not in counters

    def test_recorder_sees_corruptions_on_merged_schedule(self):
        """The merged transport must feed the flight recorder per slot: one
        corruption event per changed slot, agreeing with the channel stats."""
        simulator, _, recorder = _run(
            "algorithm_crs", "ring5", "random-noise-slot", 7, True, "recorder"
        )
        corruption, _ = _events_by_kind(recorder)
        assert len(corruption) == simulator.network.stats.corruptions > 0
        by_kind = {"substitution": 0, "deletion": 0, "insertion": 0}
        for event in corruption:
            by_kind[event["corruption"]] += 1
        stats = simulator.network.stats
        assert by_kind == {
            "substitution": stats.substitutions,
            "deletion": stats.deletions,
            "insertion": stats.insertions,
        }
