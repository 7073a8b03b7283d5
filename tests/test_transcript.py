"""Tests for pairwise transcripts and chunk records."""

from __future__ import annotations

import pytest

from repro.core.chunking import ChunkedProtocol
from repro.core.transcript import ChunkRecord, LinkTranscript


def _record(index, view, received=()):
    return ChunkRecord(chunk_index=index, link_view=tuple(view), received_by_round=tuple(received))


class TestChunkRecord:
    def test_serialize_contains_chunk_number_and_symbols(self):
        record = _record(3, (1, 0, None))
        assert record.serialize() == "[3:10*]"

    def test_matches(self):
        assert _record(1, (1, 0)).matches(_record(1, (1, 0)))
        assert not _record(1, (1, 0)).matches(_record(2, (1, 0)))
        assert not _record(1, (1, 0)).matches(_record(1, (1, 1)))
        assert not _record(1, (1, None)).matches(_record(1, (1, 0)))


class TestLinkTranscript:
    def test_append_and_length(self):
        transcript = LinkTranscript(0, 1)
        assert len(transcript) == 0
        transcript.append(_record(1, (1,)))
        transcript.append(_record(2, (0,)))
        assert transcript.num_chunks == 2

    def test_truncate_to(self):
        transcript = LinkTranscript(0, 1)
        for index in range(1, 5):
            transcript.append(_record(index, (index % 2,)))
        dropped = transcript.truncate_to(2)
        assert dropped == 2
        assert len(transcript) == 2
        assert transcript.truncate_to(10) == 0
        with pytest.raises(ValueError):
            transcript.truncate_to(-1)

    def test_truncate_last(self):
        transcript = LinkTranscript(0, 1)
        transcript.append(_record(1, (1,)))
        transcript.append(_record(2, (0,)))
        assert transcript.truncate_last() == 1
        assert len(transcript) == 1
        assert transcript.truncate_last(5) == 1
        assert len(transcript) == 0

    def test_serialize_prefix(self):
        transcript = LinkTranscript(0, 1)
        transcript.append(_record(1, (1, 1)))
        transcript.append(_record(2, (0,)))
        assert transcript.serialize_prefix(1) == b"[1:11]"
        assert transcript.serialize_prefix() == b"[1:11][2:0]"
        assert transcript.serialize_prefix(99) == transcript.serialize_prefix()

    def test_matches_prefix_and_common_prefix(self):
        mine = LinkTranscript(0, 1)
        theirs = LinkTranscript(1, 0)
        for index in range(1, 4):
            mine.append(_record(index, (1, 0)))
            theirs.append(_record(index, (1, 0)))
        assert mine.matches_prefix(theirs)
        assert mine.common_prefix_chunks(theirs) == 3

        theirs.truncate_last()
        theirs.append(_record(3, (1, 1)))
        assert not mine.matches_prefix(theirs)
        assert mine.matches_prefix(theirs, 2)
        assert mine.common_prefix_chunks(theirs) == 2

    def test_matches_prefix_requires_length(self):
        mine = LinkTranscript(0, 1)
        theirs = LinkTranscript(1, 0)
        mine.append(_record(1, (1,)))
        assert not mine.matches_prefix(theirs, 1)

    def test_received_map_fills_deletions(self):
        transcript = LinkTranscript(0, 1)
        transcript.append(_record(1, (1, None), received=((4, 1), (5, None))))
        received = transcript.received_map()
        assert received == {(4, 1): 1, (5, 1): 0}

    def test_padding_chunks_have_no_link_slots(self, gossip_clique4):
        """Why ``received_map`` needs no chunk bound.

        The simulation appends chunk ``len + 1`` to a transcript, so every
        record past ``num_real_chunks`` is a padding chunk (synthesised ones
        past ``len(chunks)`` included); padding has no scheduled slot on any
        link, so such a record contributes no reception.
        """
        chunked = ChunkedProtocol(gossip_clique4, chunk_budget=24, padding_chunks=2)
        assert len(chunked.chunks) == chunked.num_real_chunks + 2
        for index in range(chunked.num_real_chunks + 1, len(chunked.chunks) + 4):
            assert chunked.chunk(index).is_padding
            assert chunked.chunk_bits(index) == 0
            for u, v in chunked.graph.edges:
                assert chunked.link_slots(index, u, v) == ()

    def test_facing_transcripts_differ_after_corruption(self):
        """A substitution on the wire shows up as a link-view mismatch."""
        sender_view = LinkTranscript(0, 1)
        receiver_view = LinkTranscript(1, 0)
        sender_view.append(_record(1, (1, 0)))      # what 0 sent
        receiver_view.append(_record(1, (1, 1)))    # what 1 received (second bit flipped)
        assert sender_view.common_prefix_chunks(receiver_view) == 0
