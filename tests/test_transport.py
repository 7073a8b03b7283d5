"""Unit tests for the synchronous noisy transport.

The second half of this file is the property-style equivalence suite of the
packed window path: random graphs, random window sequences and many seeds
run through both ``exchange_window_packed`` (one kernel call per link and
window) and ``exchange_window_per_slot`` (the single-slot reference) for
every stock adversary, asserting identical deliveries, identical
``ChannelStats``, identical clock, and identical adversary-internal state
(budgets, cursors, RNG streams).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.base import Adversary, NoiseBudget, NoiselessAdversary
from repro.adversary.oblivious import AdditiveObliviousAdversary, FixingObliviousAdversary
from repro.adversary.strategies import (
    BurstAdversary,
    CompositeAdversary,
    DeletionAdversary,
    EchoSpoofingAdversary,
    LinkTargetedAdversary,
    PhaseTargetedAdaptiveAdversary,
    RandomNoiseAdversary,
    RotatingLinkAdaptiveAdversary,
)
from repro.network.topologies import line_topology, random_connected_topology
from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import pack_symbols, unpack_symbols
from repro.utils.rng import make_rng


class TestTransmit:
    def test_clean_delivery(self):
        network = NoisyNetwork(line_topology(3))
        assert network.transmit(0, 1, 1, phase="simulation") == 1
        assert network.stats.transmissions == 1

    def test_silence_costs_nothing(self):
        network = NoisyNetwork(line_topology(3))
        assert network.transmit(0, 1, None, phase="simulation") is None
        assert network.stats.transmissions == 0

    def test_rejects_non_links(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError):
            network.transmit(0, 2, 1, phase="simulation")

    def test_rejects_bad_symbols(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError):
            network.transmit(0, 1, 7, phase="simulation")

    def test_round_counter(self):
        network = NoisyNetwork(line_topology(3))
        network.advance_rounds(5)
        assert network.current_round == 5
        with pytest.raises(ValueError):
            network.advance_rounds(-1)


class TestExchangeWindow:
    def test_window_delivers_all_directed_links(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph)
        received = network.exchange_window_packed(
            {(0, 1): (0b01, 0b11)}, window_rounds=2, phase="simulation"
        )
        assert set(received) == set(graph.directed_edges())
        assert received[(0, 1)] == (0b01, 0b11)  # the symbols [1, 0]
        assert received[(1, 0)] == (0, 0)
        assert network.current_round == 2

    def test_window_rejects_overlong_messages(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError, match="beyond the 2-round window"):
            network.exchange_window_packed(
                {(0, 1): (0b111, 0b111)}, window_rounds=2, phase="simulation"
            )
        with pytest.raises(ValueError, match="but the window only has 2 rounds"):
            network.exchange_window_per_slot(
                {(0, 1): [1, 1, 1]}, window_rounds=2, phase="simulation"
            )

    def test_window_counts_communication(self):
        network = NoisyNetwork(line_topology(3))
        network.exchange_window_packed(
            {(0, 1): (0b11, 0b11), (2, 1): (0, 0b1)}, window_rounds=3, phase="simulation"
        )
        assert network.communication() == 3

    def test_deletions_recorded(self):
        adversary = DeletionAdversary(deletion_probability=1.0, seed=0)
        network = NoisyNetwork(line_topology(3), adversary=adversary)
        received = network.exchange_window_packed({(0, 1): (1, 1)}, window_rounds=1, phase="simulation")
        assert received[(0, 1)] == (0, 0)
        assert network.stats.deletions == 1
        assert network.noise_fraction() == 1.0

    def test_insertions_possible_on_idle_links(self):
        adversary = RandomNoiseAdversary(corruption_probability=0.0, insertion_probability=1.0, seed=1)
        network = NoisyNetwork(line_topology(3), adversary=adversary)
        received = network.exchange_window_packed({}, window_rounds=1, phase="simulation")
        # every directed link received an inserted symbol
        assert all(present == 1 for _bits, present in received.values())
        assert network.stats.insertions == len(received)
        # insertions do not count as transmissions
        assert network.stats.transmissions == 0

    def test_non_inserting_adversary_skips_idle_slots(self):
        network = NoisyNetwork(line_topology(3), adversary=NoiselessAdversary())
        received = network.exchange_window_packed({}, window_rounds=4, phase="simulation")
        assert all(planes == (0, 0) for planes in received.values())
        assert network.stats.transmissions == 0

    def test_rejects_unknown_link_keys(self):
        """Messages keyed on non-edges used to be silently dropped; now they raise."""
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError, match="unknown link"):
            network.exchange_window_packed({(0, 2): (1, 1)}, window_rounds=1, phase="simulation")
        # nothing was transmitted and the clock did not move
        assert network.stats.transmissions == 0
        assert network.current_round == 0

    def test_rejects_unknown_link_keys_per_slot_path(self):
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError, match="unknown link"):
            network.exchange_window_per_slot({(2, 0): [1]}, window_rounds=1, phase="simulation")

    def test_rejects_invalid_symbols_in_messages(self):
        """A plane pair can only encode 0, 1 and silence: a bit outside the
        present mask is the one malformed message, and the per-slot path
        rejects non-symbols."""
        network = NoisyNetwork(line_topology(3))
        with pytest.raises(ValueError, match="sets bits outside its present mask"):
            network.exchange_window_packed({(0, 1): (0b10, 0b01)}, window_rounds=2, phase="simulation")
        with pytest.raises(ValueError, match="invalid channel symbol"):
            network.exchange_window_per_slot({(0, 1): [7]}, window_rounds=1, phase="simulation")
        assert network.current_round == 0

    def test_rejects_notify_override_on_inherited_native_corrupt_window(self):
        """Subclassing a stock adversary's native packed kernel past a notify
        hook would silently skip notifications on the packed path — the
        network refuses the pairing at construction time."""

        class WatchingRandomNoise(RandomNoiseAdversary):
            def notify_delivery(self, ctx, sent, received):
                pass  # pretend to record traffic

        with pytest.raises(ValueError, match="overrides notify_delivery"):
            NoisyNetwork(
                line_topology(3),
                adversary=WatchingRandomNoise(corruption_probability=0.1, seed=0),
            )

        class RepairedWatchingRandomNoise(WatchingRandomNoise):
            corrupt_window_packed = Adversary.corrupt_window_packed  # restore the fallback

        NoisyNetwork(
            line_topology(3),
            adversary=RepairedWatchingRandomNoise(corruption_probability=0.1, seed=0),
        )

    def test_rejects_notify_override_past_a_list_kernel_behind_the_packed_fallback(self):
        """A third-party list-valued ``corrupt_window`` is what the base packed
        fallback runs, so inheriting it past a notify hook is the same hazard."""

        class ListKernelAdversary(Adversary):
            may_insert = False

            def corrupt(self, ctx, sent):
                return sent

            def corrupt_window(self, ctx, symbols):
                return list(symbols)  # never notifies

        class WatchingListKernel(ListKernelAdversary):
            def notify_delivery(self, ctx, sent, received):
                pass

        with pytest.raises(ValueError) as excinfo:
            NoisyNetwork(line_topology(3), adversary=WatchingListKernel())
        assert str(excinfo.value) == (
            "WatchingListKernel overrides notify_delivery but inherits corrupt_window "
            "from ListKernelAdversary, whose window kernel never notifies: override "
            "corrupt_window too, or restore the per-slot fallback with "
            "`corrupt_window = Adversary.corrupt_window`"
        )

        class RepairedWatchingListKernel(WatchingListKernel):
            corrupt_window = Adversary.corrupt_window

        class ListKernelAboveNotify(Adversary):
            may_insert = False

            def corrupt(self, ctx, sent):
                return sent

            def notify_delivery(self, ctx, sent, received):
                pass

            def corrupt_window(self, ctx, symbols):
                return list(symbols)  # written alongside the notify hook

        NoisyNetwork(line_topology(3), adversary=RepairedWatchingListKernel())
        NoisyNetwork(line_topology(3), adversary=ListKernelAboveNotify())

    def test_adversary_cannot_mutate_the_sent_record(self):
        """The packed fallback hands the list kernel an immutable tuple, so
        in-place mutation (which would corrupt the accounting's sent record)
        fails loudly."""

        class InPlaceAdversary(NoiselessAdversary):
            corrupt_window_packed = Adversary.corrupt_window_packed

            def corrupt_window(self, ctx, symbols):
                symbols[0] = 1 - symbols[0]  # type: ignore[index]
                return list(symbols)

        network = NoisyNetwork(line_topology(3), adversary=InPlaceAdversary())
        with pytest.raises(TypeError):
            network.exchange_window_packed({(0, 1): (1, 1)}, window_rounds=1, phase="simulation")

    def test_adversary_returning_its_input_still_accounts_correctly(self):
        """A list kernel returning the input tuple unchanged is repacked into
        clean planes."""

        class EchoAdversary(NoiselessAdversary):
            corrupt_window_packed = Adversary.corrupt_window_packed

            def corrupt_window(self, ctx, symbols):
                return symbols

        network = NoisyNetwork(line_topology(3), adversary=EchoAdversary())
        received = network.exchange_window_packed(
            {(0, 1): (0b01, 0b11)}, window_rounds=2, phase="simulation"
        )
        assert received[(0, 1)] == (0b01, 0b11)
        assert network.stats.transmissions == 2
        assert network.stats.corruptions == 0

    def test_per_slot_path_matches_on_simple_window(self):
        packed = NoisyNetwork(line_topology(3))
        per_slot = NoisyNetwork(line_topology(3))
        messages = {(0, 1): [1, 0, None], (1, 2): [1]}
        a = packed.exchange_window_packed(
            {link: pack_symbols(symbols) for link, symbols in messages.items()},
            3,
            phase="simulation",
        )
        b = per_slot.exchange_window_per_slot(messages, 3, phase="simulation")
        assert a == {link: pack_symbols(symbols) for link, symbols in b.items()}
        assert packed.stats == per_slot.stats
        assert packed.current_round == per_slot.current_round


# --------------------------------------------------------------------------
# Property-style equivalence of the batched and per-slot transmission paths.
# --------------------------------------------------------------------------

def _random_graph(rng: random.Random):
    num_nodes = rng.randint(2, 7)
    return random_connected_topology(
        num_nodes, edge_probability=rng.choice([0.0, 0.3, 0.8]), rng=rng
    )


def _random_messages(rng: random.Random, graph, window_rounds: int):
    """A random (possibly sparse, possibly ragged) window workload."""
    messages = {}
    for link in graph.directed_edges():
        roll = rng.random()
        if roll < 0.3:
            continue  # silent link
        length = rng.randint(0, window_rounds)
        messages[link] = [rng.choice([0, 1, None]) for _ in range(length)]
    return messages


def _random_oblivious_pattern(rng: random.Random, graph, values):
    pattern = {}
    links = graph.directed_edges()
    for _ in range(rng.randint(0, 12)):
        key = (rng.randint(0, 40), *rng.choice(links))
        pattern[key] = rng.choice(values)
    return pattern


def _adversary_state(adversary: Adversary):
    """Everything observable about an adversary's mutable state."""
    state = {}
    for name in ("budget", "_budget"):
        budget = getattr(adversary, name, None)
        if isinstance(budget, NoiseBudget):
            state[name] = (budget.transmissions_seen, budget.corruptions_spent)
    for name in ("_spent", "_cursor", "_pending_spoof"):
        if hasattr(adversary, name):
            state[name] = getattr(adversary, name)
    rng = getattr(adversary, "_rng", None)
    if rng is not None:
        state["_rng"] = rng.getstate()
    if isinstance(adversary, CompositeAdversary):
        state["components"] = [_adversary_state(component) for component in adversary.components]
    return state


def _composite_builder(seed: int) -> Adversary:
    return CompositeAdversary(
        components=(
            RandomNoiseAdversary(
                corruption_probability=0.1, insertion_probability=0.05, seed=seed
            ),
            DeletionAdversary(deletion_probability=0.1, seed=seed + 1),
            LinkTargetedAdversary(target=(0, 1), fraction=0.2, seed=seed + 2),
        )
    )


#: One builder per stock adversary configuration; each takes (seed, graph, rng)
#: and must build a fresh, identically-initialised instance on every call.
STOCK_ADVERSARIES = {
    "noiseless": lambda seed, graph, rng: NoiselessAdversary(),
    "additive-oblivious": lambda seed, graph, rng: AdditiveObliviousAdversary(
        pattern=_random_oblivious_pattern(rng, graph, values=(1, 2))
    ),
    "fixing-oblivious": lambda seed, graph, rng: FixingObliviousAdversary(
        pattern=_random_oblivious_pattern(rng, graph, values=(0, 1, None))
    ),
    "random-noise": lambda seed, graph, rng: RandomNoiseAdversary(
        corruption_probability=0.15, seed=seed
    ),
    "random-noise-inserting": lambda seed, graph, rng: RandomNoiseAdversary(
        corruption_probability=0.1, insertion_probability=0.08, seed=seed
    ),
    "random-noise-budgeted": lambda seed, graph, rng: RandomNoiseAdversary(
        corruption_probability=0.5,
        insertion_probability=0.2,
        seed=seed,
        budget=NoiseBudget(fraction=0.1, absolute_allowance=2),
    ),
    "link-targeted": lambda seed, graph, rng: LinkTargetedAdversary(
        target=(0, 1), fraction=0.3, seed=seed
    ),
    "link-targeted-capped": lambda seed, graph, rng: LinkTargetedAdversary(
        target=(0, 1), max_corruptions=3, phases=("simulation",), seed=seed
    ),
    "burst": lambda seed, graph, rng: BurstAdversary(
        start_round=2, end_round=9, max_corruptions=6, seed=seed
    ),
    "deletion": lambda seed, graph, rng: DeletionAdversary(
        deletion_probability=0.2, seed=seed
    ),
    "deletion-budgeted": lambda seed, graph, rng: DeletionAdversary(
        deletion_probability=0.6, seed=seed, budget=NoiseBudget(fraction=0.15)
    ),
    "composite": lambda seed, graph, rng: _composite_builder(seed),
    "adaptive-phase-targeted": lambda seed, graph, rng: PhaseTargetedAdaptiveAdversary(
        fraction=0.2, phases=("meeting_points", "simulation"), seed=seed
    ),
    "adaptive-rotating-link": lambda seed, graph, rng: RotatingLinkAdaptiveAdversary(
        links=tuple(graph.directed_edges()), fraction=0.3, seed=seed
    ),
    "echo-spoofing": lambda seed, graph, rng: EchoSpoofingAdversary(
        target=(0, 1), fraction=0.4, seed=seed
    ),
}

_PHASES = ("randomness_exchange", "meeting_points", "flag_passing", "simulation", "rewind")


def _assert_packed_matches_per_slot(adversary_name, seed_base, sparse_rate):
    """Drive identical sessions through the packed path and the per-slot
    oracle; deliveries, result shape, stats, clock and adversary state must
    match exactly."""
    builder = STOCK_ADVERSARIES[adversary_name]
    for trial in range(8):
        layout_rng = make_rng(seed_base * trial + 7)
        graph = _random_graph(layout_rng)
        # Two adversaries built identically (same seeds, same patterns): one
        # per path.  The pattern-drawing RNG must be forked per build so both
        # instances see the same draws.
        pattern_seed = layout_rng.randint(0, 2**31)
        packed_adversary = builder(trial, graph, make_rng(pattern_seed))
        per_slot_adversary = builder(trial, graph, make_rng(pattern_seed))

        packed = NoisyNetwork(graph, adversary=packed_adversary)
        per_slot = NoisyNetwork(graph, adversary=per_slot_adversary)

        # A short session of consecutive windows with varying widths/phases,
        # driven by one traffic RNG so both paths see identical messages.
        traffic_rng = make_rng(layout_rng.randint(0, 2**31))
        for step in range(5):
            window_rounds = traffic_rng.choice([0, 1, 1, 2, 5, 9])
            phase = traffic_rng.choice(_PHASES)
            sparse = traffic_rng.random() < sparse_rate
            messages = _random_messages(traffic_rng, graph, window_rounds)
            # Ragged windows pad with silence on both paths.
            delivered_packed = packed.exchange_window_packed(
                {link: pack_symbols(symbols) for link, symbols in messages.items()},
                window_rounds, phase, step, sparse=sparse,
            )
            delivered_per_slot = per_slot.exchange_window_per_slot(
                messages, window_rounds, phase, step, sparse=sparse
            )
            assert set(delivered_packed) == set(delivered_per_slot)
            for link, (bits, present) in delivered_packed.items():
                assert bits & ~present == 0, f"{adversary_name}: plane invariant broken"
                assert unpack_symbols(bits, present, window_rounds) == delivered_per_slot[link], (
                    f"{adversary_name}: deliveries diverged (trial {trial}, step {step}, {link})"
                )
        assert packed.stats == per_slot.stats, f"{adversary_name}: stats diverged (trial {trial})"
        assert packed.current_round == per_slot.current_round
        assert _adversary_state(packed_adversary) == _adversary_state(per_slot_adversary), (
            f"{adversary_name}: adversary state diverged (trial {trial})"
        )


@pytest.mark.parametrize("adversary_name", sorted(STOCK_ADVERSARIES))
def test_batched_path_is_bit_identical_to_per_slot_path(adversary_name):
    """The tentpole guarantee: one kernel call per link and window (the packed
    path, dense dispatches) gives the same deliveries, stats and budgets as
    one ``transmit`` per slot."""
    _assert_packed_matches_per_slot(adversary_name, seed_base=1000, sparse_rate=0.0)


@pytest.mark.parametrize("adversary_name", sorted(STOCK_ADVERSARIES))
def test_packed_path_is_bit_identical_to_symbol_path(adversary_name):
    """The same guarantee with sparse dispatches mixed in: the packed path's
    result shape (silent links omitted for non-inserting adversaries) matches
    the per-slot symbol path's too."""
    _assert_packed_matches_per_slot(adversary_name, seed_base=9000, sparse_rate=0.3)


class TestDispatchCounters:
    """The observability counters on the transport are plain int attributes:
    they classify every window (sparse fast path vs dense) without touching
    deliveries, stats, or any RNG stream."""

    def test_windows_are_classified_sparse_or_dense(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph, adversary=NoiselessAdversary())
        # sparse permitted + non-inserting adversary → the sparse fast path
        network.exchange_window_packed({(0, 1): (0b01, 0b11)}, 2, "simulation", sparse=True)
        assert (network.windows_exchanged, network.sparse_dispatches, network.dense_dispatches) == (1, 1, 0)
        network.exchange_window_packed({(0, 1): (0b01, 0b11)}, 2, "simulation")  # sparse not requested
        assert (network.sparse_dispatches, network.dense_dispatches) == (1, 1)
        inserting = NoisyNetwork(
            graph,
            adversary=RandomNoiseAdversary(
                corruption_probability=0.1, insertion_probability=0.1, seed=3
            ),
        )
        # sparse requested but the adversary may insert → dense anyway
        inserting.exchange_window_packed({(0, 1): (0b01, 0b11)}, 2, "simulation", sparse=True)
        assert (inserting.sparse_dispatches, inserting.dense_dispatches) == (0, 1)

    def test_per_slot_path_counts_dense(self):
        graph = line_topology(3)
        network = NoisyNetwork(graph, adversary=NoiselessAdversary())
        network.exchange_window_per_slot({(0, 1): [1]}, 1, "simulation")
        assert (network.windows_exchanged, network.dense_dispatches) == (1, 1)

    def test_deliveries_and_stats_are_bit_identical_under_an_obs_scope(self):
        from repro.obs import MetricsRegistry, Tracer, use_obs

        graph = line_topology(4)
        messages = {(0, 1): (0b101, 0b111), (2, 1): (0b010, 0b111), (3, 2): (0b111, 0b111)}

        def drive(network):
            out = []
            for phase in ("meeting_points", "simulation", "rewind"):
                out.append(network.exchange_window_packed(messages, 3, phase))
            return out

        plain = NoisyNetwork(graph, adversary=RandomNoiseAdversary(corruption_probability=0.2, seed=9))
        observed = NoisyNetwork(graph, adversary=RandomNoiseAdversary(corruption_probability=0.2, seed=9))
        plain_out = drive(plain)
        with use_obs(metrics=MetricsRegistry(), tracer=Tracer()):
            observed_out = drive(observed)
        assert plain_out == observed_out
        assert plain.stats == observed.stats
        assert plain.current_round == observed.current_round
        assert (plain.windows_exchanged, plain.sparse_dispatches, plain.dense_dispatches) == (
            observed.windows_exchanged,
            observed.sparse_dispatches,
            observed.dense_dispatches,
        )


class TestGuardMessageText:
    """The guard paths promise *exact* error text (callers and docs quote it
    verbatim), so these pin the full messages rather than substrings."""

    def test_unknown_link_rejection_text(self):
        network = NoisyNetwork(line_topology(3))
        expected = "message keyed on unknown link (0, 2): not a directed edge of the network"
        with pytest.raises(ValueError) as excinfo:
            network.exchange_window_packed({(0, 2): (1, 1)}, window_rounds=1, phase="simulation")
        assert str(excinfo.value) == expected
        with pytest.raises(ValueError) as excinfo:
            network.exchange_window_per_slot({(0, 2): [1]}, window_rounds=1, phase="simulation")
        assert str(excinfo.value) == expected

    def test_notify_override_rejection_text(self):
        class WatchingBurst(BurstAdversary):
            def notify_delivery(self, ctx, sent, received):
                pass

        with pytest.raises(ValueError) as excinfo:
            NoisyNetwork(
                line_topology(3),
                adversary=WatchingBurst(start_round=0, end_round=5, max_corruptions=2, seed=0),
            )
        assert str(excinfo.value) == (
            "WatchingBurst overrides notify_delivery but inherits corrupt_window_packed "
            "from BurstAdversary, whose window kernel never notifies: override "
            "corrupt_window_packed too, or restore the per-slot fallback with "
            "`corrupt_window_packed = Adversary.corrupt_window_packed`"
        )


class TestPhaseExchange:
    """Guards and accounting of the whole-phase merged dispatch."""

    def _network(self, adversary=None):
        return NoisyNetwork(line_topology(3), adversary=adversary or NoiselessAdversary())

    def test_rejects_non_slot_addressed_adversary(self):
        network = self._network(RandomNoiseAdversary(corruption_probability=0.1, seed=0))
        with pytest.raises(ValueError) as excinfo:
            network.exchange_phase(4, "simulation")
        assert str(excinfo.value) == (
            "RandomNoiseAdversary is not slot-addressed: exchange_phase requires "
            "the corruption_schedule contract (slot_addressed=True)"
        )

    def test_send_rejects_unknown_link(self):
        phase = self._network().exchange_phase(2, "simulation")
        with pytest.raises(ValueError) as excinfo:
            phase.send((0, 2), 0, 1)
        assert str(excinfo.value) == (
            "message keyed on unknown link (0, 2): not a directed edge of the network"
        )

    def test_send_rejects_invalid_symbol(self):
        phase = self._network().exchange_phase(2, "simulation")
        with pytest.raises(ValueError, match="invalid channel symbol 7"):
            phase.send((0, 1), 0, 7)

    def test_send_rejects_out_of_window_offsets(self):
        phase = self._network().exchange_phase(2, "simulation")
        with pytest.raises(ValueError, match="offset 2 outside the 2-round phase window"):
            phase.send((0, 1), 2, 1)
        with pytest.raises(ValueError, match="offset -1 outside the 2-round phase window"):
            phase.send((0, 1), -1, 1)

    def test_send_rejects_double_sends_on_one_slot(self):
        phase = self._network().exchange_phase(2, "simulation")
        phase.send((0, 1), 0, 1)
        with pytest.raises(
            ValueError, match=r"slot 0 on link \(0, 1\) already carried a symbol this phase"
        ):
            phase.send((0, 1), 0, 0)

    def test_commit_is_single_shot(self):
        network = self._network()
        phase = network.exchange_phase(2, "simulation")
        phase.send((0, 1), 0, 1)
        phase.commit()
        with pytest.raises(RuntimeError, match="phase already committed"):
            phase.commit()
        with pytest.raises(RuntimeError, match="phase already committed"):
            phase.send((0, 1), 1, 1)

    def test_commit_accounts_whole_phase_once(self):
        network = self._network()
        phase = network.exchange_phase(3, "flag_passing")
        assert phase.send((0, 1), 0, 1) == 1
        assert phase.send((1, 2), 2, 0) == 0
        assert phase.delivered((0, 1), 0) == 1
        assert phase.delivered((1, 0), 1) is None  # untouched slot, no insertions
        phase.commit()
        assert network.current_round == 3
        assert network.stats.transmissions == 2
        assert (network.windows_exchanged, network.merged_dispatches) == (1, 1)

    @pytest.mark.parametrize("kind", ["noiseless", "additive", "fixing"])
    def test_matches_per_round_dispatch(self, kind):
        """Deliveries, stats and clock of one phase dispatch equal one
        ``exchange_window_packed`` per round, insertions on idle links included."""
        graph = random_connected_topology(6, 0.5, seed=2)
        rng = make_rng(11)
        rounds = 40
        pattern = {
            (round_index, sender, receiver): rng.choice(
                (1, 2) if kind == "additive" else (0, 1, None)
            )
            for round_index in range(rounds)
            for sender, receiver in graph.directed_edges()
            if rng.random() < 0.1
        }
        plan = [
            {link: rng.choice((0, 1)) for link in graph.directed_edges() if rng.random() < 0.2}
            for _ in range(rounds)
        ]

        def build():
            if kind == "noiseless":
                return NoiselessAdversary()
            if kind == "additive":
                return AdditiveObliviousAdversary(pattern=pattern)
            return FixingObliviousAdversary(pattern=pattern)

        reference = NoisyNetwork(graph, adversary=build())
        expected = []
        for sends in plan:
            window = reference.exchange_window_packed(
                {link: (symbol, 1) for link, symbol in sends.items()}, 1, "simulation", 0
            )
            expected.append({link: bits for link, (bits, present) in window.items() if present})

        network = NoisyNetwork(graph, adversary=build())
        phase = network.exchange_phase(rounds, "simulation", 0)
        for offset, sends in enumerate(plan):
            for link, symbol in sends.items():
                phase.send(link, offset, symbol)
            assert phase.delivered_map(offset) == expected[offset]
        phase.commit()
        assert vars(network.stats) == vars(reference.stats)
        assert network.current_round == reference.current_round
