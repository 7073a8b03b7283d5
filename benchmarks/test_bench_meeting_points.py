"""Experiment ``meeting_points_convergence``: cost of the per-link correction.

Paper claim (§4.2 / Appendix A): the meeting-points mechanism lets two
parties whose transcripts diverge by B chunks reconverge within O(B) hash
exchanges, truncating at most O(B) chunks beyond the common prefix.

Shape we assert: for synthetic divergences B ∈ {1, 2, 4} the number of
exchanges needed grows roughly linearly (well within a 8·B + 8 envelope) and
the truncation overshoot stays bounded.

This file also gates the meeting-points **hashing fast path**: a
representative iteration workload (two lockstep sessions on one
exchanged-seed link, the hot shape of Algorithms A/B) must run at least 2×
faster through the production session (``seeds_for_iteration`` +
``digest_many`` + table-driven δ-biased expansion) than through the per-call
oracle :func:`~repro.core.meeting_points.per_call_message` over a per-bit
δ-biased expansion, while producing the same wire messages; the equivalence
suite in ``tests/test_hashing_equivalence.py`` pins the two much harder.
"""

from __future__ import annotations

import time

import pytest

from repro.core.meeting_points import STATUS_SIMULATE, MeetingPointsSession, per_call_message
from repro.core.transcript import ChunkRecord, LinkTranscript
from repro.hashing.inner_product import InnerProductHash
from repro.hashing.seeds import CrsSeedSource, ExchangedSeedSource
from repro.hashing.small_bias import SmallBiasGenerator


def _transcript(owner, neighbor, payloads):
    transcript = LinkTranscript(owner, neighbor)
    for index, payload in enumerate(payloads, start=1):
        transcript.append(ChunkRecord(chunk_index=index, link_view=payload))
    return transcript


def _converge(divergence: int, common_length: int = 8, master_seed: int = 5):
    common = [(1, 0)] * common_length
    transcript_u = _transcript(0, 1, common + [(0, 0)] * divergence)
    transcript_v = _transcript(1, 0, common + [(1, 1)] * divergence)
    hasher = InnerProductHash(12)
    session_u = MeetingPointsSession(hasher=hasher, seed_source=CrsSeedSource(master_seed, (0, 1)))
    session_v = MeetingPointsSession(hasher=hasher, seed_source=CrsSeedSource(master_seed, (0, 1)))
    full = (1 << session_u.message_bits) - 1
    for iteration in range(200):
        message_u = session_u.build_message_packed(iteration, transcript_u)
        message_v = session_v.build_message_packed(iteration, transcript_v)
        outcome_u = session_u.process_reply_packed(iteration, transcript_u, message_v, full)
        outcome_v = session_v.process_reply_packed(iteration, transcript_v, message_u, full)
        if outcome_u.truncate_to is not None:
            transcript_u.truncate_to(outcome_u.truncate_to)
        if outcome_v.truncate_to is not None:
            transcript_v.truncate_to(outcome_v.truncate_to)
        if outcome_u.status == STATUS_SIMULATE and outcome_v.status == STATUS_SIMULATE:
            return iteration + 1, common_length - len(transcript_u)
    raise AssertionError("meeting points did not converge")


@pytest.mark.parametrize("divergence", [1, 2, 4])
def test_convergence_cost_scales_with_divergence(benchmark, run_once, divergence):
    phases, overshoot = run_once(benchmark, _converge, divergence)
    benchmark.extra_info["phases"] = phases
    benchmark.extra_info["overshoot_chunks"] = overshoot
    assert phases <= 8 * divergence + 8
    assert overshoot <= 2 * divergence + 2


# ----------------------------------------------------- hashing fast-path gate --

# A full 2·64-bit AGHP seed (x, y both non-degenerate), as a real randomness
# exchange over a degree-64 field would produce.
_LINK_SEED = 0xC082_2AE2_C145_1FD2_8B5B_1402_5E93_30CC
_WORKLOAD_ITERATIONS = 12
_WORKLOAD_TAU = 12


def _source(source_kind: str, per_bit: bool):
    """One endpoint's seed source; ``per_bit`` swaps in the per-bit δ-biased
    expansion (the expansion oracle) for the exchanged seed."""
    if source_kind == "crs":
        return CrsSeedSource(master_seed=5, link=(0, 1))
    source = ExchangedSeedSource(link_seed=_LINK_SEED)
    if per_bit:
        source._generator = SmallBiasGenerator(
            seed_bits=_LINK_SEED, field_degree=source.field_degree, table_stepping=False
        )
    return source


def _workload_transcripts():
    return (
        _transcript(0, 1, [(1, 0)] * 8 + [(0, 0)] * 3),
        _transcript(1, 0, [(1, 0)] * 8 + [(1, 1)] * 3),
    )


def _session_workload(source_kind: str):
    """Wall clock, wire messages and counters of a representative per-link
    iteration workload on the production sessions.

    Two sessions on one link exchange meeting-points messages over
    permanently diverged transcripts, so every iteration derives fresh seeds
    and hashes four values per endpoint — exactly the per-iteration hash
    traffic of the engine's consistency phase.
    """
    hasher = InnerProductHash(_WORKLOAD_TAU)
    session_u = MeetingPointsSession(hasher=hasher, seed_source=_source(source_kind, False))
    session_v = MeetingPointsSession(hasher=hasher, seed_source=_source(source_kind, False))
    transcript_u, transcript_v = _workload_transcripts()
    full = (1 << session_u.message_bits) - 1
    messages = []
    counters = []

    start = time.perf_counter()
    for iteration in range(_WORKLOAD_ITERATIONS):
        message_u = session_u.build_message_packed(iteration, transcript_u)
        message_v = session_v.build_message_packed(iteration, transcript_v)
        messages.append((message_u, message_v))
        counters.append((session_u.k, session_v.k))
        session_u.process_reply_packed(iteration, transcript_u, message_v, full)
        session_v.process_reply_packed(iteration, transcript_v, message_u, full)
    return time.perf_counter() - start, messages, counters


def _oracle_workload(source_kind: str, counters):
    """The same iterations' messages through the per-call oracle: per-call
    seed derivation, per-value digests and (exchanged seed) per-bit δ-biased
    expansion — the pre-fast-path implementation."""
    hasher = InnerProductHash(_WORKLOAD_TAU)
    sources = (_source(source_kind, True), _source(source_kind, True))
    transcripts = _workload_transcripts()
    messages = []

    start = time.perf_counter()
    for iteration, ks in enumerate(counters):
        messages.append(tuple(
            per_call_message(hasher, source, "fingerprint", iteration, transcript, k)
            for source, transcript, k in zip(sources, transcripts, ks)
        ))
    return time.perf_counter() - start, messages


def test_batched_hashing_is_at_least_twice_as_fast(benchmark, run_once):
    """The fast-path gate: ≥2× on the exchanged-seed iteration workload."""

    def measure(source_kind: str):
        # Best of two runs per path: a scheduling spike on a shared CI runner
        # must hit both attempts to move the measurement.
        fast_runs = [_session_workload(source_kind) for _ in range(2)]
        _, messages, counters = fast_runs[0]
        reference_runs = [_oracle_workload(source_kind, counters) for _ in range(2)]
        # Same wire messages before the timings are comparable at all.
        assert all(run[1] == messages for run in fast_runs + reference_runs)
        return min(run[0] for run in reference_runs), min(run[0] for run in fast_runs)

    def compare():
        reference_seconds, fast_seconds = measure("exchanged")
        crs_reference_seconds, crs_fast_seconds = measure("crs")
        return reference_seconds, fast_seconds, crs_reference_seconds, crs_fast_seconds

    reference_seconds, fast_seconds, crs_reference, crs_fast = run_once(benchmark, compare)
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["fast_seconds"] = round(fast_seconds, 6)
    benchmark.extra_info["speedup"] = round(reference_seconds / fast_seconds, 2)
    # The CRS workload is reported but not gated: its seed derivation is
    # dominated by the (bit-identity-frozen) per-purpose RNG seeding, so the
    # batched path only trims the digest/unpack churn around it.
    benchmark.extra_info["crs_speedup"] = round(crs_reference / crs_fast, 2)
    assert reference_seconds >= 2 * fast_seconds, (
        f"batched hashing path only {reference_seconds / fast_seconds:.2f}x faster "
        f"(reference {reference_seconds * 1e3:.1f} ms, fast {fast_seconds * 1e3:.1f} ms)"
    )
