"""The noise-resilient simulator — the paper's Algorithm 1.

``InteractiveCodingSimulator`` takes a noiseless protocol Π (with a fixed
speaking order), a network adversary, and a :class:`SchemeParameters` preset
(Algorithm 1/A/B/C), and executes the noise-resilient simulation over the
noisy network:

    for every iteration:
        (i)   consistency check  — one meeting-points exchange per link
        (ii)  flag passing       — convergecast/broadcast of continue/idle flags
        (iii) simulation         — one chunk of Π per link (or idle ⊥)
        (iv)  rewind             — length-based single-chunk rewind requests

All inter-party communication goes through :class:`NoisyNetwork`, so the
adversary sees (and may corrupt) every symbol, and the communication /
corruption accounting used by the theorems is collected in one place.

Engineering notes (full discussion in DESIGN.md):

* The iteration budget defaults to a small multiple of |Π| instead of the
  paper's ``100·|Π|`` — the analysis constants are loose.  With
  ``early_stop=True`` (default) the run also ends as soon as every link's
  facing transcripts agree on all real chunks; this is an observer-level
  shortcut that can only shorten runs (success is always re-validated by
  comparing final party outputs with the noiseless reference execution).
* Parties never read each other's state: every decision a party makes uses
  only its own transcripts, its hash seeds and what it received on the wire.
  Ground-truth quantities (potential, hash-collision counts, success) are
  computed by the surrounding harness for reporting only.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.adversary.base import Adversary, NoiselessAdversary
from repro.analysis.metrics import RunMetrics
from repro.analysis.potential import PotentialTrace, compute_snapshot
from repro.core.chunking import ChunkedProtocol
from repro.core.meeting_points import (
    _RAW_INPUT_CAP_BITS,
    STATUS_MEETING_POINTS,
    STATUS_SIMULATE,
    MeetingPointsSession,
)
from repro.core.parameters import SchemeParameters, crs_oblivious_scheme
from repro.core.randomness_exchange import run_randomness_exchange
from repro.core.results import SimulationResult
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import FINGERPRINT_BITS, InnerProductHash
from repro.hashing.seeds import CrsSeedSource, SeedSource
from repro.network.channel import Symbol
from repro.network.graph import Graph, edge_key
from repro.network.spanning_tree import SpanningTree
from repro.network.transport import NoisyNetwork
from repro.obs import Tracer, get_obs, link_label
from repro.protocols.base import PartyLogic, Protocol
from repro.utils.bitstring import symbol_to_bit
from repro.utils.rng import fork, fork_seed


@dataclass
class PartyRuntime:
    """The complete local state of one party during the simulation."""

    party: int
    logic: PartyLogic
    transcripts: Dict[int, LinkTranscript]
    sessions: Dict[int, MeetingPointsSession]
    link_status: Dict[int, str]
    status_flag: int = 1
    net_correct: int = 1

    def neighbors(self) -> List[int]:
        return sorted(self.transcripts)

    def min_chunk(self) -> int:
        return min(len(self.transcripts[v]) for v in self.transcripts)

    def build_received_map(self) -> Dict[Tuple[int, int], int]:
        """Everything this party has received so far, for protocol replay."""
        merged: Dict[Tuple[int, int], int] = {}
        for transcript in self.transcripts.values():
            merged.update(transcript.received_map())
        return merged


class InteractiveCodingSimulator:
    """Run Algorithm 1 (with the chosen scheme preset) over a noisy network."""

    def __init__(
        self,
        protocol: Protocol,
        scheme: Optional[SchemeParameters] = None,
        adversary: Optional[Adversary] = None,
        seed: int = 0,
    ) -> None:
        self.protocol = protocol
        self.graph: Graph = protocol.graph
        self.scheme = scheme if scheme is not None else crs_oblivious_scheme()
        self.adversary = adversary if adversary is not None else NoiselessAdversary()
        self.seed = seed

        #: The ambient observability context, captured once (a plain
        #: attribute, so trial fingerprints never see it).  With the
        #: default disabled context the per-run cost is one attribute read and
        #: one branch per phase.
        self._obs = get_obs()

        self.scale_k = self.scheme.scale_k(self.graph)
        self.chunked = ChunkedProtocol(
            protocol,
            chunk_budget=self.scheme.chunk_budget(self.graph),
            padding_chunks=self.scheme.padding_chunks,
        )
        self.hasher = InnerProductHash(self.scheme.hash_output_bits(self.graph))
        self.tree = SpanningTree(self.graph, root=0)
        self.network = NoisyNetwork(self.graph, adversary=self.adversary)
        self.runtimes: Dict[int, PartyRuntime] = {}
        self.iterations_budget = self.scheme.iterations(self.chunked.num_real_chunks)
        self._counters: Dict[str, int] = {
            "rewinds_sent": 0,
            "mp_truncations": 0,
            "hash_mismatches": 0,
            "hash_collisions": 0,
        }
        self._randomness_agreed: Dict[Tuple[int, int], bool] = {}

    # ------------------------------------------------------------------ run --

    def run(self) -> SimulationResult:
        """Execute the whole simulation and return a :class:`SimulationResult`."""
        reference = self.protocol.run_noiseless()
        self.adversary.reset()
        self._initialize_state()

        trace = PotentialTrace() if self.scheme.trace_potential else None
        tracer = self._obs.tracer
        recorder = self._obs.recorder
        phase_rounds: Optional[Dict[str, int]] = {} if self._obs.metrics is not None else None
        iterations_run = 0
        for iteration in range(self.iterations_budget):
            iterations_run = iteration + 1
            self._run_iteration(iteration, tracer, phase_rounds)
            if trace is not None or recorder is not None:
                snapshot = compute_snapshot(
                    self.graph, self._all_transcripts(), iteration, self.scale_k
                )
                if trace is not None:
                    trace.record(snapshot)
                if recorder is not None:
                    # Ground-truth Φ trajectory (reporting only, like the
                    # potential trace itself: the parties never see it).
                    recorder.emit("potential", **snapshot.as_dict())
            if self.scheme.early_stop and self._simulation_complete():
                break

        outputs = self._extract_outputs()
        metrics = self._build_metrics(reference_cc=self.protocol.communication_complexity(),
                                      outputs=outputs,
                                      reference_outputs=reference.outputs,
                                      iterations_run=iterations_run)
        if self._obs.metrics is not None:
            self._flush_obs(phase_rounds or {}, iterations_run)
        return SimulationResult(
            scheme=self.scheme,
            success=metrics.success,
            outputs=outputs,
            reference_outputs=reference.outputs,
            metrics=metrics,
            channel_summary=self.network.stats.snapshot(),
            iterations_run=iterations_run,
            iterations_budget=self.iterations_budget,
            num_real_chunks=self.chunked.num_real_chunks,
            final_link_agreement={
                edge: self._transcript(edge[0], edge[1]).common_prefix_chunks(self._transcript(edge[1], edge[0]))
                for edge in self.graph.edges
            },
            potential_trace=trace,
            randomness_exchange_agreed=dict(self._randomness_agreed),
        )

    # ------------------------------------------------------------ iteration --

    def _run_iteration(
        self,
        iteration: int,
        tracer: Optional[Tracer],
        phase_rounds: Optional[Dict[str, int]],
    ) -> None:
        """One iteration of Algorithm 1: phases (i)-(iv).

        Every phase runs through :meth:`_observed_phase`, the one place that
        opens spans and counts phase rounds.  Spans and counters never touch
        the schedule, the adversary or any RNG, so results are bit-identical
        with observation on or off.
        """
        scope = tracer.span("iteration", iteration=iteration) if tracer is not None else nullcontext()
        with scope:
            self._observed_phase("meeting_points", iteration, self._meeting_points_phase, tracer, phase_rounds)
            self._compute_status_flags()
            self._observed_phase("flag_passing", iteration, self._flag_passing_phase, tracer, phase_rounds)
            self._observed_phase("simulation", iteration, self._simulation_phase, tracer, phase_rounds)
            if self.scheme.enable_rewind_phase:
                self._observed_phase("rewind", iteration, self._rewind_phase, tracer, phase_rounds)

    def _observed_phase(
        self,
        name: str,
        iteration: int,
        step: Callable[[int], None],
        tracer: Optional[Tracer],
        phase_rounds: Optional[Dict[str, int]],
    ) -> None:
        before = self.network.current_round
        if tracer is not None:
            with tracer.span("phase", phase=name, iteration=iteration):
                step(iteration)
        else:
            step(iteration)
        if phase_rounds is not None:
            phase_rounds[name] = phase_rounds.get(name, 0) + (self.network.current_round - before)

    def _flush_obs(self, phase_rounds: Dict[str, int], iterations_run: int) -> None:
        """Flush every per-trial counter into the ambient metrics registry.

        One bulk :meth:`~repro.obs.metrics.MetricsRegistry.inc_many` per trial
        (a single lock acquisition), fed from the plain integer counters the
        hot paths maintained: engine diagnostics, transport dispatch shapes,
        :class:`~repro.network.channel.ChannelStats` totals, hashing-session
        builds and seed-source derivations, and the adversary's budget
        consumption when it has one.
        """
        network = self.network
        stats = network.stats
        counters: Dict[str, float] = {
            "engine.trials": 1,
            "engine.iterations_run": iterations_run,
            "engine.rounds_total": network.current_round,
            "engine.rewinds_sent": self._counters["rewinds_sent"],
            "engine.meeting_point_truncations": self._counters["mp_truncations"],
            "engine.hash_mismatches": self._counters["hash_mismatches"],
            "engine.hash_collisions": self._counters["hash_collisions"],
            "transport.windows_exchanged": network.windows_exchanged,
            "transport.sparse_dispatches": network.sparse_dispatches,
            "transport.dense_dispatches": network.dense_dispatches,
            "transport.merged_dispatches": network.merged_dispatches,
            "transport.packed_dispatches": network.packed_dispatches,
            "transport.idle_rounds_collapsed": network.idle_rounds_collapsed,
            "transport.transmissions": stats.transmissions,
            "transport.delivered_symbols": stats.delivered_symbols,
            "transport.substitutions": stats.substitutions,
            "transport.deletions": stats.deletions,
            "transport.insertions": stats.insertions,
        }
        for phase, count in phase_rounds.items():
            counters[f"engine.rounds.{phase}"] = count
        for phase, count in stats.transmissions_by_phase.items():
            counters[f"transport.transmissions.{phase}"] = count
        for phase, count in stats.corruptions_by_phase.items():
            counters[f"transport.corruptions.{phase}"] = count
        builds = truncations = resets = derivations = 0
        for runtime in self.runtimes.values():
            for session in runtime.sessions.values():
                builds += session.builds
                truncations += session.truncations
                resets += session.resets
                derivations += getattr(session.seed_source, "derivations", 0)
        counters["hashing.packed_builds"] = builds
        counters["hashing.session_truncations"] = truncations
        counters["hashing.session_resets"] = resets
        counters["hashing.seed_derivations"] = derivations
        budget = getattr(self.adversary, "budget", None)
        if budget is not None:
            counters["adversary.transmissions_seen"] = getattr(budget, "transmissions_seen", 0)
            counters["adversary.corruptions_spent"] = getattr(budget, "corruptions_spent", 0)
        self._obs.metrics.inc_many(counters)

    # ------------------------------------------------------ initialisation --

    def _initialize_state(self) -> None:
        """InitializeState(): transcripts, meeting-points state and hash seeds."""
        seed_sources = self._setup_seed_sources()
        recorder = self._obs.recorder
        self.runtimes = {}
        for party in self.graph.nodes:
            transcripts = {v: LinkTranscript(party, v) for v in self.graph.neighbors(party)}
            sessions = {
                v: MeetingPointsSession(
                    hasher=self.hasher,
                    seed_source=seed_sources[(party, v)],
                    hash_input_mode=self.scheme.hash_input_mode,
                    recorder=recorder,
                    link=link_label(party, v),
                )
                for v in self.graph.neighbors(party)
            }
            self.runtimes[party] = PartyRuntime(
                party=party,
                logic=self.protocol.create_party(party),
                transcripts=transcripts,
                sessions=sessions,
                link_status={v: STATUS_SIMULATE for v in self.graph.neighbors(party)},
            )

    def _setup_seed_sources(self) -> Dict[Tuple[int, int], SeedSource]:
        if self.scheme.use_crs:
            master = fork_seed(self.seed, "common-random-string")
            # Size the per-purpose slot capacity to the largest seed any hash
            # purpose can request: the inner-product seed for a full-width
            # input (raw inputs are capped at _RAW_INPUT_CAP_BITS, fingerprint
            # inputs at FINGERPRINT_BITS).  Capacity determines the slot
            # offsets, so this is part of the documented 1.0 CRS stream break.
            max_input_bits = (
                _RAW_INPUT_CAP_BITS
                if self.scheme.hash_input_mode == "raw"
                else FINGERPRINT_BITS
            )
            capacity = self.hasher.seed_bits_required(max_input_bits)
            sources: Dict[Tuple[int, int], SeedSource] = {}
            for u, v in self.graph.edges:
                # One shared source per undirected edge: both endpoints read
                # the same CRS, so they expand the same δ-biased stream once.
                source = CrsSeedSource(
                    master_seed=master,
                    link=edge_key(u, v),
                    field_degree=self.scheme.small_bias_field_degree,
                    slot_capacity_bits=capacity,
                )
                sources[(u, v)] = source
                sources[(v, u)] = source
            self._randomness_agreed = {edge: True for edge in self.graph.edges}
            return sources
        exchange_rng = fork(self.seed, "randomness-exchange")
        report = run_randomness_exchange(
            self.graph,
            self.network,
            exchange_rng,
            field_degree=self.scheme.small_bias_field_degree,
        )
        self._randomness_agreed = dict(report.agreed)
        return report.seed_sources

    # ------------------------------------------------- phase (i): meeting points --

    def _meeting_points_phase(self, iteration: int) -> None:
        """Phase (i): one dense 4τ-slot window per directed link.

        Each session's four concatenated hashes travel as one packed integer
        (every slot present) through
        :meth:`~repro.network.transport.NoisyNetwork.exchange_window_packed`,
        which runs one ``corrupt_window_packed`` kernel per directed link; the
        reply planes feed
        :meth:`~repro.core.meeting_points.MeetingPointsSession.process_reply_packed`
        directly — no per-slot symbol lists anywhere.
        """
        window = 4 * self.hasher.output_bits
        full = (1 << window) - 1
        messages: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for runtime in self.runtimes.values():
            for neighbor in runtime.neighbors():
                session = runtime.sessions[neighbor]
                messages[(runtime.party, neighbor)] = (
                    session.build_message_packed(iteration, runtime.transcripts[neighbor]),
                    full,
                )
        delivered = self.network.exchange_window_packed(
            messages, window, "meeting_points", iteration
        )
        for runtime in self.runtimes.values():
            for neighbor in runtime.neighbors():
                session = runtime.sessions[neighbor]
                transcript = runtime.transcripts[neighbor]
                bits, present = delivered[(neighbor, runtime.party)]
                outcome = session.process_reply_packed(iteration, transcript, bits, present)
                self._apply_mp_outcome(iteration, runtime, neighbor, transcript, outcome)

    def _apply_mp_outcome(
        self,
        iteration: int,
        runtime: PartyRuntime,
        neighbor: int,
        transcript: LinkTranscript,
        outcome,
    ) -> None:
        """Shared per-link bookkeeping of one meeting-points outcome."""
        runtime.link_status[neighbor] = outcome.status
        if outcome.truncate_to is not None:
            transcript.truncate_to(outcome.truncate_to)
            self._counters["mp_truncations"] += 1
        if outcome.status == STATUS_MEETING_POINTS:
            self._counters["hash_mismatches"] += 1
        if outcome.full_match:
            # Ground-truth hash-collision detection (reporting only).
            other = self.runtimes[neighbor].transcripts[runtime.party]
            if not transcript.matches_prefix(other, max(len(transcript), len(other))):
                self._counters["hash_collisions"] += 1
                recorder = self._obs.recorder
                if recorder is not None:
                    recorder.emit(
                        "hash_collision",
                        iteration=iteration,
                        link=link_label(runtime.party, neighbor),
                        transcript_length=len(transcript),
                        other_length=len(other),
                    )

    # -------------------------------------------------- status flags (lines 6-13) --

    def _compute_status_flags(self) -> None:
        for runtime in self.runtimes.values():
            min_chunk = runtime.min_chunk()
            in_meeting_points = any(
                status == STATUS_MEETING_POINTS for status in runtime.link_status.values()
            )
            uneven = any(len(runtime.transcripts[v]) > min_chunk for v in runtime.neighbors())
            runtime.status_flag = 0 if (in_meeting_points or uneven) else 1

    # ------------------------------------------------- phase (ii): flag passing --

    def _use_merged_phases(self) -> bool:
        """Whether the adversary's contract permits whole-phase merging.

        A slot-addressed adversary
        (:attr:`~repro.adversary.base.Adversary.slot_addressed`) lets the
        flag-passing, simulation and rewind phases each run as one
        :meth:`~repro.network.transport.NoisyNetwork.exchange_phase` dispatch;
        stateful adversaries truthfully report ``False`` and get the lockstep
        phases.  Both schedules are bit-identical in deliveries, statistics
        and round accounting (pinned by ``tests/test_phase_merge_fuzz.py``).
        """
        return self.adversary.slot_addressed

    def _flag_passing_phase(self, iteration: int) -> None:
        if not self.scheme.enable_flag_passing:
            for runtime in self.runtimes.values():
                runtime.net_correct = runtime.status_flag
            return
        if self._use_merged_phases():
            self._flag_passing_phase_merged(iteration)
            return

        depth = self.tree.depth
        up_value: Dict[int, int] = {
            party: runtime.status_flag for party, runtime in self.runtimes.items()
        }

        # Convergecast: deepest levels first; each node sends its aggregated flag
        # to its parent one round after all its children have spoken.  The
        # levels are genuinely sequential — each level's message is the AND of
        # what the previous (deeper) level *delivered* — so each level is one
        # width-1 window; sparse dispatch keeps the cost proportional to the
        # level's population instead of the whole link set.
        for level in range(depth, 1, -1):
            messages: Dict[Tuple[int, int], List[int]] = {}
            for node in self.graph.nodes:
                if self.tree.level[node] == level:
                    parent = self.tree.parent[node]
                    messages[(node, parent)] = [up_value[node]]
            delivered = self.network.exchange_window(
                messages, 1, "flag_passing", iteration, sparse=True
            )
            for node in self.graph.nodes:
                if self.tree.level[node] == level:
                    parent = self.tree.parent[node]
                    received = self._delivered_symbol(delivered, (node, parent))
                    up_value[parent] &= 1 if received == 1 else 0

        down_value: Dict[int, int] = {self.tree.root: up_value[self.tree.root]}

        # Broadcast: root first, then level by level.
        for level in range(1, depth):
            messages = {}
            for node in self.graph.nodes:
                if self.tree.level[node] == level and node in down_value:
                    for child in self.tree.children[node]:
                        messages[(node, child)] = [down_value[node]]
            delivered = self.network.exchange_window(
                messages, 1, "flag_passing", iteration, sparse=True
            )
            for node in self.graph.nodes:
                if self.tree.level[node] == level + 1:
                    parent = self.tree.parent[node]
                    received = self._delivered_symbol(delivered, (parent, node))
                    bit = 1 if received == 1 else 0
                    down_value[node] = bit & self.runtimes[node].status_flag

        for party, runtime in self.runtimes.items():
            if party == self.tree.root:
                runtime.net_correct = down_value[self.tree.root]
            else:
                runtime.net_correct = down_value.get(party, 0)

    def _flag_passing_phase_merged(self, iteration: int) -> None:
        """Phase (ii) under the slot-addressed contract: one merged dispatch.

        The convergecast/broadcast schedule is the lockstep body's, level for
        level, but each level's single round becomes one offset of a
        whole-phase :class:`~repro.network.transport.PhaseExchange`: every
        flag is evaluated against the adversary's pure schedule the moment it
        is computed (the levels stay data-dependent — each sends the AND of
        what the previous level *delivered*), and the transport accounts the
        whole phase in one pass at commit.
        """
        depth = self.tree.depth
        rounds = 2 * (depth - 1) if depth > 1 else 0
        phase = self.network.exchange_phase(rounds, "flag_passing", iteration)
        up_value: Dict[int, int] = {
            party: runtime.status_flag for party, runtime in self.runtimes.items()
        }
        offset = 0
        for level in range(depth, 1, -1):
            for node in self.graph.nodes:
                if self.tree.level[node] == level:
                    parent = self.tree.parent[node]
                    received = phase.send((node, parent), offset, up_value[node])
                    up_value[parent] &= 1 if received == 1 else 0
            offset += 1

        down_value: Dict[int, int] = {self.tree.root: up_value[self.tree.root]}
        for level in range(1, depth):
            for node in self.graph.nodes:
                if self.tree.level[node] == level and node in down_value:
                    for child in self.tree.children[node]:
                        received = phase.send((node, child), offset, down_value[node])
                        bit = 1 if received == 1 else 0
                        down_value[child] = bit & self.runtimes[child].status_flag
            offset += 1
        phase.commit()

        for party, runtime in self.runtimes.items():
            if party == self.tree.root:
                runtime.net_correct = down_value[self.tree.root]
            else:
                runtime.net_correct = down_value.get(party, 0)

    # ------------------------------------------------- phase (iii): simulation --

    def _simulation_phase(self, iteration: int) -> None:
        if self._use_merged_phases():
            self._simulation_phase_merged(iteration)
            return
        # Round 0: parties that should not simulate send ⊥ (encoded as a 1) to
        # every neighbour; everyone listens.
        bot_messages: Dict[Tuple[int, int], List[int]] = {}
        for runtime in self.runtimes.values():
            if runtime.net_correct == 0:
                for neighbor in runtime.neighbors():
                    bot_messages[(runtime.party, neighbor)] = [1]
        delivered = self.network.exchange_window(
            bot_messages, 1, "simulation", iteration, sparse=True
        )
        bot_from: Dict[int, Set[int]] = {party: set() for party in self.graph.nodes}
        for (sender, receiver), symbols in delivered.items():
            if symbols and symbols[0] == 1:
                bot_from[receiver].add(sender)

        # Which links each party simulates this phase, and at which chunk index.
        active: Dict[int, Dict[int, int]] = {}
        for runtime in self.runtimes.values():
            if runtime.net_correct != 1:
                active[runtime.party] = {}
                continue
            active[runtime.party] = {
                neighbor: len(runtime.transcripts[neighbor]) + 1
                for neighbor in runtime.neighbors()
                if neighbor not in bot_from[runtime.party]
            }

        # Per-party working state for the chunk being simulated.
        workspaces: Dict[int, Dict[str, object]] = {}
        for party, links in active.items():
            if not links:
                continue
            workspaces[party] = {
                "received_map": self.runtimes[party].build_received_map(),
                "sent": {neighbor: {} for neighbor in links},
                "recv": {neighbor: {} for neighbor in links},
            }

        window = self.chunked.max_chunk_rounds()
        if not workspaces and not self.adversary.may_insert:
            # No party simulates anything this phase and the adversary cannot
            # insert: every one of the window's rounds is provably silent, so
            # the whole span collapses into one clock advancement (the
            # round-by-round schedule would advance the same clock one round
            # at a time and never touch the adversary).
            self.network.advance_rounds(window)
            self.network.idle_rounds_collapsed += window
            return
        for offset in range(window):
            messages: Dict[Tuple[int, int], List[int]] = {}
            for party, links in active.items():
                if not links:
                    continue
                workspace = workspaces[party]
                for neighbor, chunk_index in links.items():
                    chunk = self.chunked.chunk(chunk_index)
                    if offset >= chunk.num_rounds:
                        continue
                    round_index = chunk.round_indices[offset]
                    for sender, receiver in self.chunked.chunk_round_links(chunk_index)[offset]:
                        if sender == party and receiver == neighbor:
                            bit = self.runtimes[party].logic.send_bit(
                                round_index, neighbor, workspace["received_map"]
                            )
                            messages[(party, neighbor)] = [bit]
                            workspace["sent"][neighbor][round_index] = bit
            if not messages and not self.adversary.may_insert:
                # Nothing scheduled anywhere this round; skip the exchange but
                # keep the clock honest.
                self.network.advance_rounds(1)
                self.network.idle_rounds_collapsed += 1
                continue
            delivered = self.network.exchange_window(
                messages, 1, "simulation", iteration, sparse=True
            )
            for party, links in active.items():
                if not links:
                    continue
                workspace = workspaces[party]
                for neighbor, chunk_index in links.items():
                    chunk = self.chunked.chunk(chunk_index)
                    if offset >= chunk.num_rounds:
                        continue
                    round_index = chunk.round_indices[offset]
                    for sender, receiver in self.chunked.chunk_round_links(chunk_index)[offset]:
                        if sender == neighbor and receiver == party:
                            symbol = self._delivered_symbol(delivered, (neighbor, party))
                            workspace["recv"][neighbor][round_index] = symbol
                            workspace["received_map"][(round_index, neighbor)] = symbol_to_bit(symbol)

        # Append the freshly simulated chunk records.
        for party, links in active.items():
            if not links:
                continue
            workspace = workspaces[party]
            runtime = self.runtimes[party]
            for neighbor, chunk_index in links.items():
                view: List[Symbol] = []
                for slot in self.chunked.link_slots(chunk_index, party, neighbor):
                    if slot.sender == party:
                        view.append(workspace["sent"][neighbor].get(slot.round_index))
                    else:
                        view.append(workspace["recv"][neighbor].get(slot.round_index))
                record = ChunkRecord(
                    chunk_index=chunk_index,
                    link_view=tuple(view),
                    received_by_round=tuple(sorted(workspace["recv"][neighbor].items())),
                )
                runtime.transcripts[neighbor].append(record)

    def _simulation_phase_merged(self, iteration: int) -> None:
        """Phase (iii) under the slot-addressed contract: one merged dispatch.

        Offset 0 is the ⊥ round, offsets ``1 + r`` the chunk rounds.  Sends
        and reads go through the phase handle, so inserted symbols on links
        nobody sent on surface exactly as in the dense lockstep schedule, and
        rounds where nothing is scheduled (and nothing can be inserted) skip
        their read pass just like the lockstep clock-skip does.
        """
        window = self.chunked.max_chunk_rounds()
        may_insert = self.adversary.may_insert
        phase = self.network.exchange_phase(1 + window, "simulation", iteration)

        # Round 0: parties that should not simulate send ⊥ (encoded as a 1).
        for runtime in self.runtimes.values():
            if runtime.net_correct == 0:
                for neighbor in runtime.neighbors():
                    phase.send((runtime.party, neighbor), 0, 1)
        bot_from: Dict[int, Set[int]] = {party: set() for party in self.graph.nodes}
        for (sender, receiver), symbol in phase.delivered_map(0).items():
            if symbol == 1:
                bot_from[receiver].add(sender)

        active: Dict[int, Dict[int, int]] = {}
        for runtime in self.runtimes.values():
            if runtime.net_correct != 1:
                active[runtime.party] = {}
                continue
            active[runtime.party] = {
                neighbor: len(runtime.transcripts[neighbor]) + 1
                for neighbor in runtime.neighbors()
                if neighbor not in bot_from[runtime.party]
            }

        workspaces: Dict[int, Dict[str, object]] = {}
        for party, links in active.items():
            if not links:
                continue
            workspaces[party] = {
                "received_map": self.runtimes[party].build_received_map(),
                "sent": {neighbor: {} for neighbor in links},
                "recv": {neighbor: {} for neighbor in links},
            }

        for offset in range(window):
            sent_any = False
            for party, links in active.items():
                if not links:
                    continue
                workspace = workspaces[party]
                for neighbor, chunk_index in links.items():
                    chunk = self.chunked.chunk(chunk_index)
                    if offset >= chunk.num_rounds:
                        continue
                    round_index = chunk.round_indices[offset]
                    for sender, receiver in self.chunked.chunk_round_links(chunk_index)[offset]:
                        if sender == party and receiver == neighbor:
                            bit = self.runtimes[party].logic.send_bit(
                                round_index, neighbor, workspace["received_map"]
                            )
                            phase.send((party, neighbor), 1 + offset, bit)
                            workspace["sent"][neighbor][round_index] = bit
                            sent_any = True
            if not sent_any and not may_insert:
                # Nothing scheduled anywhere this round and nothing insertable:
                # the lockstep schedule skips the exchange (and its read pass).
                continue
            for party, links in active.items():
                if not links:
                    continue
                workspace = workspaces[party]
                for neighbor, chunk_index in links.items():
                    chunk = self.chunked.chunk(chunk_index)
                    if offset >= chunk.num_rounds:
                        continue
                    round_index = chunk.round_indices[offset]
                    for sender, receiver in self.chunked.chunk_round_links(chunk_index)[offset]:
                        if sender == neighbor and receiver == party:
                            symbol = phase.delivered((neighbor, party), 1 + offset)
                            workspace["recv"][neighbor][round_index] = symbol
                            workspace["received_map"][(round_index, neighbor)] = symbol_to_bit(symbol)
        phase.commit()

        for party, links in active.items():
            if not links:
                continue
            workspace = workspaces[party]
            runtime = self.runtimes[party]
            for neighbor, chunk_index in links.items():
                view: List[Symbol] = []
                for slot in self.chunked.link_slots(chunk_index, party, neighbor):
                    if slot.sender == party:
                        view.append(workspace["sent"][neighbor].get(slot.round_index))
                    else:
                        view.append(workspace["recv"][neighbor].get(slot.round_index))
                record = ChunkRecord(
                    chunk_index=chunk_index,
                    link_view=tuple(view),
                    received_by_round=tuple(sorted(workspace["recv"][neighbor].items())),
                )
                runtime.transcripts[neighbor].append(record)

    # --------------------------------------------------- phase (iv): rewind --

    def _rewind_phase(self, iteration: int) -> None:
        if self._use_merged_phases():
            self._rewind_phase_merged(iteration)
            return
        already: Dict[int, Dict[int, bool]] = {
            party: {neighbor: False for neighbor in runtime.neighbors()}
            for party, runtime in self.runtimes.items()
        }
        rounds = self.scheme.rewind_round_count(self.graph)
        recorder = self._obs.recorder
        for round_index in range(rounds):
            messages: Dict[Tuple[int, int], List[int]] = {}
            for runtime in self.runtimes.values():
                party = runtime.party
                min_chunk = runtime.min_chunk()
                for neighbor in runtime.neighbors():
                    if runtime.link_status[neighbor] == STATUS_MEETING_POINTS:
                        continue
                    if already[party][neighbor]:
                        continue
                    if len(runtime.transcripts[neighbor]) > min_chunk:
                        messages[(party, neighbor)] = [1]
                        runtime.transcripts[neighbor].truncate_last(1)
                        already[party][neighbor] = True
                        self._counters["rewinds_sent"] += 1
                        if recorder is not None:
                            recorder.emit(
                                "rewind",
                                iteration=iteration,
                                link=link_label(party, neighbor),
                                role="sender",
                                depth=len(runtime.transcripts[neighbor]),
                            )
            if not messages and not self.adversary.may_insert:
                # Quiescent tail: with nothing sent and nothing insertable,
                # nothing was delivered, so the state feeding the next round's
                # message computation (transcripts, `already` flags) is
                # unchanged — every remaining round is provably identical to
                # this one.  Advance the clock over the whole tail in one call
                # instead of one empty round at a time.
                self.network.advance_rounds(rounds - round_index)
                self.network.idle_rounds_collapsed += rounds - round_index
                return
            delivered = self.network.exchange_window(
                messages, 1, "rewind", iteration, sparse=True
            )
            for runtime in self.runtimes.values():
                party = runtime.party
                for neighbor in runtime.neighbors():
                    if self._delivered_symbol(delivered, (neighbor, party)) != 1:
                        continue
                    if runtime.link_status[neighbor] == STATUS_MEETING_POINTS:
                        continue
                    if already[party][neighbor]:
                        continue
                    runtime.transcripts[neighbor].truncate_last(1)
                    already[party][neighbor] = True
                    if recorder is not None:
                        recorder.emit(
                            "rewind",
                            iteration=iteration,
                            link=link_label(party, neighbor),
                            role="receiver",
                            depth=len(runtime.transcripts[neighbor]),
                        )

    def _rewind_phase_merged(self, iteration: int) -> None:
        """Phase (iv) under the slot-addressed contract: one merged dispatch.

        The rounds stay data-dependent — each round's rewind requests depend
        on the transcripts as truncated by the previous round's deliveries —
        but every slot is evaluated through the phase handle the moment it is
        sent.  A round with nothing sent under a non-inserting adversary
        proves the rest of the phase quiescent (nothing delivered, state
        unchanged), so the loop stops early; commit still advances the full
        phase clock, like the lockstep quiescent-tail collapse.
        """
        already: Dict[int, Dict[int, bool]] = {
            party: {neighbor: False for neighbor in runtime.neighbors()}
            for party, runtime in self.runtimes.items()
        }
        rounds = self.scheme.rewind_round_count(self.graph)
        may_insert = self.adversary.may_insert
        recorder = self._obs.recorder
        phase = self.network.exchange_phase(rounds, "rewind", iteration)
        for round_index in range(rounds):
            sent_any = False
            for runtime in self.runtimes.values():
                party = runtime.party
                min_chunk = runtime.min_chunk()
                for neighbor in runtime.neighbors():
                    if runtime.link_status[neighbor] == STATUS_MEETING_POINTS:
                        continue
                    if already[party][neighbor]:
                        continue
                    if len(runtime.transcripts[neighbor]) > min_chunk:
                        phase.send((party, neighbor), round_index, 1)
                        runtime.transcripts[neighbor].truncate_last(1)
                        already[party][neighbor] = True
                        self._counters["rewinds_sent"] += 1
                        sent_any = True
                        if recorder is not None:
                            recorder.emit(
                                "rewind",
                                iteration=iteration,
                                link=link_label(party, neighbor),
                                role="sender",
                                depth=len(runtime.transcripts[neighbor]),
                            )
            if not sent_any and not may_insert:
                break
            for runtime in self.runtimes.values():
                party = runtime.party
                for neighbor in runtime.neighbors():
                    if phase.delivered((neighbor, party), round_index) != 1:
                        continue
                    if runtime.link_status[neighbor] == STATUS_MEETING_POINTS:
                        continue
                    if already[party][neighbor]:
                        continue
                    runtime.transcripts[neighbor].truncate_last(1)
                    already[party][neighbor] = True
                    if recorder is not None:
                        recorder.emit(
                            "rewind",
                            iteration=iteration,
                            link=link_label(party, neighbor),
                            role="receiver",
                            depth=len(runtime.transcripts[neighbor]),
                        )
        phase.commit()

    # --------------------------------------------------------- bookkeeping --

    @staticmethod
    def _delivered_symbol(
        delivered: Dict[Tuple[int, int], List[Symbol]], link: Tuple[int, int]
    ) -> Symbol:
        """First delivered symbol on ``link``; a link a sparse exchange omitted
        from the result carried pure silence."""
        window = delivered.get(link)
        return window[0] if window is not None else None

    def _transcript(self, owner: int, neighbor: int) -> LinkTranscript:
        return self.runtimes[owner].transcripts[neighbor]

    def _all_transcripts(self) -> Dict[Tuple[int, int], LinkTranscript]:
        out: Dict[Tuple[int, int], LinkTranscript] = {}
        for runtime in self.runtimes.values():
            for neighbor, transcript in runtime.transcripts.items():
                out[(runtime.party, neighbor)] = transcript
        return out

    def _simulation_complete(self) -> bool:
        """True when every link's facing transcripts agree on all real chunks."""
        target = self.chunked.num_real_chunks
        for u, v in self.graph.edges:
            mine = self._transcript(u, v)
            theirs = self._transcript(v, u)
            if len(mine) < target or len(theirs) < target:
                return False
            if not mine.matches_prefix(theirs, target):
                return False
        return True

    def _extract_outputs(self) -> Dict[int, object]:
        outputs: Dict[int, object] = {}
        max_chunk = self.chunked.num_real_chunks
        for party, runtime in self.runtimes.items():
            received: Dict[Tuple[int, int], int] = {}
            for transcript in runtime.transcripts.values():
                received.update(transcript.received_map(max_chunk_index=max_chunk))
            outputs[party] = runtime.logic.compute_output(received)
        return outputs

    def _build_metrics(
        self,
        reference_cc: int,
        outputs: Dict[int, object],
        reference_outputs: Dict[int, object],
        iterations_run: int,
    ) -> RunMetrics:
        stats = self.network.stats
        success = all(outputs.get(party) == value for party, value in reference_outputs.items())
        return RunMetrics(
            scheme=self.scheme.name,
            success=success,
            protocol_communication=reference_cc,
            simulation_communication=stats.transmissions,
            corruptions=stats.corruptions,
            noise_fraction=stats.noise_fraction(),
            iterations_run=iterations_run,
            iterations_budget=self.iterations_budget,
            communication_by_phase=dict(stats.transmissions_by_phase),
            corruptions_by_phase=dict(stats.corruptions_by_phase),
            meeting_point_truncations=self._counters["mp_truncations"],
            rewinds_sent=self._counters["rewinds_sent"],
            hash_mismatches_detected=self._counters["hash_mismatches"],
            hash_collisions_observed=self._counters["hash_collisions"],
            randomness_exchange_failures=sum(
                1 for agreed in self._randomness_agreed.values() if not agreed
            ),
        )


def simulate(
    protocol: Protocol,
    scheme: Optional[SchemeParameters] = None,
    adversary: Optional[Adversary] = None,
    seed: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build a simulator and run it once."""
    return InteractiveCodingSimulator(protocol, scheme=scheme, adversary=adversary, seed=seed).run()
