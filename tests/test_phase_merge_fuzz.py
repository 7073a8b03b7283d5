"""Differential fuzzing of the engine's production path against the oracle.

The engine runs every phase with one schedule and one wire format: the
meeting-points exchange as one window, the flag-passing, simulation and
rewind phases round by round, all through ``exchange_window_packed``'s
``(bits, present)`` plane pairs.  That path is advertised as
**bit-identical** to the per-slot reference: not "statistically equivalent",
but the same ``SimulationResult``, the same
:class:`~repro.network.channel.ChannelStats` counters, the same round clock
and the same adversary end state (RNG stream positions, budget counters).

This suite pins that claim differentially: hypothesis draws a workload
(scheme x topology x stock adversary x seed x observability mode) and runs it
twice, each time with a freshly built adversary of the same family — once as
the reference (every window routed through the per-slot transport oracle by
:func:`oracles.route_per_slot`, i.e. one ``transmit`` / ``corrupt`` per slot)
and once on the production path — and requires every observable to match
exactly.  The families cover the pattern adversaries that report
``slot_addressed=True`` (noiseless, additive, fixing) and the sequential
stochastic ones (random noise with a fraction budget, deletion, link-targeted,
capped burst, a composite of the last two kinds, and a plain random-noise
"stateful-fallback").  The engine never opens a whole-phase
:class:`~repro.network.transport.PhaseExchange` for any of them.

The observability mode covers the flight recorder too: a run under an
ambient :class:`~repro.obs.recorder.FlightRecorder` must stay bit-identical
(results, stats, budgets, RNG positions), and the *recorded* corruption
events must agree across the two paths up to emission order (the packed
transport emits per link per window; the per-slot oracle slot by slot — same
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

from repro.adversary.base import NoiseBudget, NoiselessAdversary
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


#: name -> builder(graph, seed) for every adversary family under fuzz.  The
#: first three report slot_addressed=True; the rest are sequential (stateful).
_ADVERSARIES = {
    "noiseless": lambda graph, seed: NoiselessAdversary(),
    "additive": lambda graph, seed: AdditiveObliviousAdversary(
        pattern=_oblivious_pattern(graph, seed, (1, 2))
    ),
    "fixing": lambda graph, seed: FixingObliviousAdversary(
        pattern=_oblivious_pattern(graph, seed, (0, 1, None))
    ),
    "random-noise": lambda graph, seed: RandomNoiseAdversary(
        corruption_probability=0.01,
        insertion_probability=0.002,
        seed=seed,
        budget=NoiseBudget(fraction=0.005),
    ),
    "deletion": lambda graph, seed: DeletionAdversary(deletion_probability=0.01, seed=seed),
    "link-targeted": lambda graph, seed: LinkTargetedAdversary(
        target=graph.edges[seed % len(graph.edges)],
        fraction=0.05,
        corruption_probability=0.05,
        seed=seed,
    ),
    "burst": lambda graph, seed: BurstAdversary(
        start_round=5 + seed % 20, end_round=40 + seed % 60, max_corruptions=8, seed=seed
    ),
    "composite": lambda graph, seed: CompositeAdversary(
        components=(
            BurstAdversary(start_round=10, end_round=30, max_corruptions=6, seed=seed),
            RandomNoiseAdversary(
                corruption_probability=0.005,
                insertion_probability=0.001,
                seed=seed + 1,
            ),
        )
    ),
    "stateful-fallback": lambda graph, seed: RandomNoiseAdversary(
        corruption_probability=0.01, insertion_probability=0.002, seed=seed
    ),
}


def _workload(topology_name, seed):
    graph = _TOPOLOGIES[topology_name](seed)
    inputs = {party: (seed * 31 + party * 7) % 1024 for party in graph.nodes}
    protocol = RandomProtocol(graph, inputs, num_rounds=8, density=0.5, seed=seed + 1)
    return graph, protocol


#: Observability modes a fuzz case may run under; "recorder" puts an ambient
#: FlightRecorder around construction *and* run (the engine and network
#: capture it at construction time).
_OBS_MODES = ("dark", "metrics", "recorder")


def _run(scheme_name, topology_name, adversary_name, seed, oracle, obs_mode="dark"):
    """One full simulation; returns (simulator, result, recorder-or-None).

    ``oracle=False`` runs the production path; the reference runs of this
    suite pass ``True``, routing every window through the per-slot transport
    oracle.  Each call builds its own adversary, so the two runs share no
    state."""
    graph, protocol = _workload(topology_name, seed)
    adversary = _ADVERSARIES[adversary_name](graph, seed)
    # A ring big enough to never drop: event-multiset comparison between the
    # two paths needs the complete record (retention under overflow is
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
        _count_transmits(simulator.network)
        if oracle:
            route_per_slot(simulator.network)
        result = simulator.run()
    return simulator, result, recorder


def _count_transmits(network):
    """Count ``network.transmit`` calls in ``network.transmit_calls``.

    ``transmit`` is the per-slot oracle's only way onto the wire and no
    production path calls it, so the count proves which path a run took."""
    network.transmit_calls = 0
    transmit = network.transmit

    def counted(*args, **kwargs):
        network.transmit_calls += 1
        return transmit(*args, **kwargs)

    network.transmit = counted


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


def _assert_bit_identical(reference_run, production_run):
    reference_sim, reference = reference_run[:2]
    production_sim, production = production_run[:2]
    assert _result_fingerprint(production) == _result_fingerprint(reference)
    assert vars(production_sim.network.stats) == vars(reference_sim.network.stats)
    assert production_sim.network.current_round == reference_sim.network.current_round
    # RNG stream positions and budget counters: the production path must
    # consume the adversary's state exactly like the per-slot oracle did.
    assert _state_snapshot(production_sim.adversary) == _state_snapshot(reference_sim.adversary)
    assert reference_sim.network.merged_dispatches == 0
    assert production_sim.network.merged_dispatches == 0


def _events_by_kind(recorder):
    """The recorder's ring split into (corruption events, everything else)."""
    corruption, rest = [], []
    for event in recorder._events:
        (corruption if event["kind"] == "corruption" else rest).append(event)
    return corruption, rest


def _event_key(event):
    return json.dumps(event, sort_keys=True, default=str)


def _assert_same_recording(reference_recorder, production_recorder):
    """Both paths must record the same protocol events.

    Corruption events are compared as multisets (the packed transport emits
    per link per window, the per-slot oracle slot by slot — same slots,
    different interleaving).  Engine- and session-emitted events (meeting
    points, rewinds, hash collisions, Φ) follow the same runtime-iteration
    order on both paths, so they must match in sequence, not just as sets.
    """
    assert reference_recorder.events_dropped == 0
    assert production_recorder.events_dropped == 0
    ref_corruption, ref_rest = _events_by_kind(reference_recorder)
    production_corruption, production_rest = _events_by_kind(production_recorder)
    assert sorted(map(_event_key, production_corruption)) == sorted(
        map(_event_key, ref_corruption)
    )
    assert list(map(_event_key, production_rest)) == list(map(_event_key, ref_rest))


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
        """Production path vs per-slot oracle, same adversary family."""
        reference_run = _run(scheme_name, topology_name, adversary_name, seed, True, obs_mode)
        production_run = _run(scheme_name, topology_name, adversary_name, seed, False, obs_mode)
        _assert_bit_identical(reference_run, production_run)
        if obs_mode == "recorder":
            _assert_same_recording(reference_run[2], production_run[2])
        # The oracle went slot by slot; production never left the packed
        # path (corrupt_window_packed is contract-pinned bit-identical).
        assert reference_run[0].network.transmit_calls > 0
        assert production_run[0].network.transmit_calls == 0

    @_FUZZ
    @given(
        adversary_name=st.sampled_from(sorted(_ADVERSARIES)),
        seed=st.integers(0, 10_000),
        obs_mode=st.sampled_from(tuple(mode for mode in _OBS_MODES if mode != "dark")),
    )
    def test_merged_schedule_is_obs_invariant(self, adversary_name, seed, obs_mode):
        """Observability (metrics or recorder) must not perturb the
        production path (and vice versa)."""
        dark_run = _run("algorithm_crs", "ring5", adversary_name, seed, False, "dark")
        observed_run = _run("algorithm_crs", "ring5", adversary_name, seed, False, obs_mode)
        assert _result_fingerprint(observed_run[1]) == _result_fingerprint(dark_run[1])
        assert vars(observed_run[0].network.stats) == vars(dark_run[0].network.stats)
        assert observed_run[0].network.merged_dispatches == dark_run[0].network.merged_dispatches


class TestMergedDispatchObservability:
    def test_reference_schedule_never_merges(self):
        """Neither path opens a whole-phase dispatch, not even for adversaries
        that report ``slot_addressed=True``, and no merged counter is flushed."""
        for adversary_name in ("noiseless", "additive"):
            for oracle in (True, False):
                registry = MetricsRegistry()
                with use_obs(metrics=registry):
                    simulator, _, _ = _run(
                        "algorithm_crs", "line4", adversary_name, 3, oracle, "dark"
                    )
                assert simulator.adversary.slot_addressed
                assert simulator.network.merged_dispatches == 0
                counters = registry.snapshot()["counters"]
                assert "transport.merged_dispatches" not in counters

    def test_recorder_sees_corruptions_on_merged_schedule(self):
        """The production transport must feed the flight recorder per slot:
        one corruption event per changed slot, agreeing with the channel
        stats."""
        simulator, _, recorder = _run(
            "algorithm_crs", "ring5", "random-noise", 7, False, "recorder"
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
