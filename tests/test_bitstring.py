"""Unit tests for repro.utils.bitstring."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitstring import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    hamming_distance,
    int_to_bits,
    longest_common_prefix_length,
    pack_symbols,
    parity,
    symbol_to_bit,
    symbols_to_bits,
    unpack_symbols,
    xor_bits,
)

symbol_windows = st.lists(st.sampled_from([0, 1, None]), max_size=96)


class TestBitsIntConversion:
    def test_bits_to_int_basic(self):
        assert bits_to_int([1, 0, 1]) == 5
        assert bits_to_int([]) == 0
        assert bits_to_int([0, 0, 0, 1]) == 8

    def test_int_to_bits_basic(self):
        assert int_to_bits(5, 4) == [1, 0, 1, 0]
        assert int_to_bits(0, 3) == [0, 0, 0]
        assert int_to_bits(7, 3) == [1, 1, 1]

    def test_bits_to_int_rejects_non_bits(self):
        with pytest.raises(ValueError):
            bits_to_int([0, 2, 1])

    def test_int_to_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_roundtrip(self, bits):
        assert int_to_bits(bits_to_int(bits), len(bits)) == bits

    @given(st.integers(0, 2**48 - 1))
    def test_roundtrip_int(self, value):
        assert bits_to_int(int_to_bits(value, 48)) == value


class TestByteConversion:
    def test_bytes_to_bits_length(self):
        assert len(bytes_to_bits(b"ab")) == 16

    def test_roundtrip_bytes(self):
        data = b"hello world"
        assert bits_to_bytes(bytes_to_bits(data)) == data

    @given(st.binary(max_size=64))
    def test_roundtrip_random(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data


class TestParityAndDistance:
    def test_parity(self):
        assert parity(0) == 0
        assert parity(0b1011) == 1
        assert parity(0b11) == 0

    def test_hamming_distance(self):
        assert hamming_distance([0, 1, 1], [0, 0, 1]) == 1
        assert hamming_distance([], []) == 0

    def test_hamming_distance_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance([0], [0, 1])

    def test_xor_bits(self):
        assert xor_bits([1, 0, 1], [1, 1, 0]) == [0, 1, 1]

    def test_xor_bits_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bits([1], [1, 0])


class TestSymbolsAndPrefix:
    def test_symbols_to_bits_fills_erasures(self):
        assert symbols_to_bits([1, None, 0]) == [1, 0, 0]
        assert symbols_to_bits([None], erasure_fill=1) == [1]

    def test_symbol_to_bit_matches_sequence_helper(self):
        for symbol in (0, 1, None):
            assert [symbol_to_bit(symbol)] == symbols_to_bits([symbol])
        assert symbol_to_bit(None, erasure_fill=1) == 1

    def test_longest_common_prefix(self):
        assert longest_common_prefix_length("abcd", "abxy") == 2
        assert longest_common_prefix_length([1, 2], [1, 2, 3]) == 2
        assert longest_common_prefix_length([], [1]) == 0

    @given(st.lists(st.integers(0, 3)), st.lists(st.integers(0, 3)))
    def test_prefix_is_common(self, a, b):
        k = longest_common_prefix_length(a, b)
        assert a[:k] == b[:k]
        if k < min(len(a), len(b)):
            assert a[k] != b[k]


class TestPackedSymbolPlanes:
    """The packed ``(bits, present)`` plane pair the hot transport path runs on."""

    def test_pack_symbols_doc_example(self):
        assert pack_symbols([1, None, 0, 1]) == (9, 13)
        assert unpack_symbols(9, 13, 4) == [1, None, 0, 1]

    def test_pack_symbols_rejects_non_symbols(self):
        with pytest.raises(ValueError):
            pack_symbols([0, 2])

    def test_unpack_symbols_rejects_invariant_breaks(self):
        with pytest.raises(ValueError):
            unpack_symbols(2, 1, 2)  # bits outside the present plane
        with pytest.raises(ValueError):
            unpack_symbols(0, 4, 2)  # present bit beyond the window
        with pytest.raises(ValueError):
            unpack_symbols(0, 0, -1)

    @given(symbol_windows)
    def test_roundtrip_and_invariant(self, symbols):
        bits, present = pack_symbols(symbols)
        assert bits & ~present == 0
        assert present >> len(symbols) == 0
        assert unpack_symbols(bits, present, len(symbols)) == symbols

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_roundtrip_from_planes(self, a, b):
        present = a | b
        bits = a  # a ⊆ a|b by construction, so the invariant holds
        assert pack_symbols(unpack_symbols(bits, present, 64)) == (bits, present)

    @given(symbol_windows)
    def test_popcount_statistics_match_symbol_counts(self, symbols):
        """The O(1)-popcount accounting of the packed transport path counts
        exactly what a per-slot walk over the symbols would."""
        bits, present = pack_symbols(symbols)
        assert present.bit_count() == sum(1 for s in symbols if s is not None)
        assert bits.bit_count() == sum(1 for s in symbols if s == 1)
        # Substitution mask against a reference delivery plane pair.
        delivered = [None if s is None else 1 - s for s in symbols]
        dbits, dpresent = pack_symbols(delivered)
        assert dpresent == present
        flips = (bits ^ dbits) & present
        assert flips.bit_count() == sum(1 for s in symbols if s is not None)


class TestPackedTranscriptRoundTrip:
    """Packed transcript/digest accessors vs the historical unpacked path.

    ``LinkTranscript.prefix_raw`` / ``prefix_fingerprint`` serve the
    meeting-points hashing from packed integers; both must stay bit-for-bit
    what the pre-packed code computed from ``serialize_prefix`` via
    ``bits_to_int(bytes_to_bits(...))`` / ``fingerprint_bits``.
    """

    @staticmethod
    def _transcript(chunks):
        from repro.core.transcript import ChunkRecord, LinkTranscript

        transcript = LinkTranscript(owner=0, neighbor=1)
        for index, view in enumerate(chunks):
            transcript.append(ChunkRecord(chunk_index=index, link_view=tuple(view)))
        return transcript

    @given(st.lists(st.lists(st.sampled_from([0, 1, None]), max_size=12), max_size=8))
    def test_prefix_raw_matches_unpacked_packing(self, chunks):
        transcript = self._transcript(chunks)
        for prefix in range(len(chunks) + 1):
            serialized = transcript.serialize_prefix(prefix)
            assert transcript.prefix_raw(prefix) == bits_to_int(bytes_to_bits(serialized))
            assert transcript.prefix_raw(prefix) == int.from_bytes(serialized, "little")

    @given(st.lists(st.lists(st.sampled_from([0, 1, None]), max_size=12), min_size=1, max_size=6))
    def test_prefix_fingerprint_matches_direct_digest(self, chunks):
        from repro.hashing.inner_product import fingerprint_bits

        transcript = self._transcript(chunks)
        for prefix in range(len(chunks) + 1):
            expected = fingerprint_bits(transcript.serialize_prefix(prefix))
            assert transcript.prefix_fingerprint(prefix) == expected

    @given(st.lists(st.lists(st.sampled_from([0, 1, None]), max_size=10), min_size=2, max_size=6),
           st.integers(0, 5))
    def test_packed_caches_survive_truncation(self, chunks, keep):
        transcript = self._transcript(chunks)
        full = [transcript.prefix_raw(i) for i in range(len(chunks) + 1)]
        transcript.truncate_to(keep)
        kept = min(keep, len(chunks))
        assert transcript.prefix_raw(kept) == full[kept]
        serialized = transcript.serialize_prefix(kept)
        assert transcript.prefix_raw(kept) == int.from_bytes(serialized, "little")

    @staticmethod
    def _assert_cache_matches_fresh(transcript):
        from repro.core.transcript import LinkTranscript

        fresh = LinkTranscript(owner=0, neighbor=1)
        for record in transcript.records:
            fresh.append(record)
        assert transcript.serialize_prefix() == fresh.serialize_prefix()
        for prefix in range(len(transcript) + 2):
            assert transcript.serialize_prefix(prefix) == fresh.serialize_prefix(prefix)
            assert transcript.prefix_byte_length(prefix) == fresh.prefix_byte_length(prefix)
            assert transcript.prefix_raw(prefix) == fresh.prefix_raw(prefix)
            assert transcript.prefix_fingerprint(prefix) == fresh.prefix_fingerprint(prefix)

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.lists(st.sampled_from([0, 1, None]), max_size=6)),
            st.tuples(st.just("truncate_to"), st.integers(0, 8)),
            st.tuples(st.just("truncate_last"), st.integers(0, 3)),
        ),
        max_size=24,
    ))
    def test_cache_matches_fresh_transcript_under_edits(self, edits):
        """Interleaved appends and truncations never serve a stale prefix.

        Every prefix is read (and so cached) after every edit, then compared
        with a transcript freshly built from the surviving records: a
        truncation that kept a cached value of a dropped prefix would serve
        it again once different chunks are appended at that length.
        """
        from repro.core.transcript import ChunkRecord, LinkTranscript

        transcript = LinkTranscript(owner=0, neighbor=1)
        for edit, argument in edits:
            if edit == "append":
                transcript.append(ChunkRecord(chunk_index=len(transcript) + 1, link_view=tuple(argument)))
            elif edit == "truncate_to":
                transcript.truncate_to(argument)
            else:
                transcript.truncate_last(argument)
            self._assert_cache_matches_fresh(transcript)
