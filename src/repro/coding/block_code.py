"""Binary block code used by the randomness exchange.

Algorithm 5 sends a uniformly random seed ``L`` encoded as ``C(L)`` over a
link, one bit per round.  Because the exchange happens on a fixed schedule,
a deletion is perceived as an erasure and an insertion outside the schedule
is simply ignored, so the code only needs to handle bit substitutions and
bit erasures (paper footnote 9).

``BinaryBlockCode`` realises Theorem 2.1's "constant rate, constant distance,
efficiently encodable/decodable binary code" as a Reed–Solomon code over
GF(256) whose symbols are expanded to bits.  Long messages are split into
independent RS blocks so that any message length is supported.  A bit-level
erasure marks its containing byte as an erased RS symbol; a bit flip becomes
(at most) one RS symbol error.

With the default expansion factor of 3 the binary rate is 1/3 and each block
corrects up to ``k`` byte errors out of ``3k`` byte positions — i.e. a
constant fraction of corrupted bits, which is all the analysis in Section 5
requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.coding.reed_solomon import DecodingError, ReedSolomonCode
from repro.utils.bitstring import Symbol, pack_symbols

__all__ = ["BinaryBlockCode", "DecodingError"]

_BITS_PER_SYMBOL = 8


@dataclass(frozen=True)
class BinaryBlockCode:
    """A constant-rate binary code built from chunked Reed–Solomon blocks.

    Parameters
    ----------
    message_bits:
        Length (in bits) of the messages this instance encodes.
    expansion:
        Codeword-to-message length ratio per block (>= 2); the default of 3
        matches the "rate 1/3" instantiation suggested under Theorem 2.1.
    max_block_symbols:
        Upper bound on RS block length (must be <= 255).
    """

    message_bits: int
    expansion: int = 3
    max_block_symbols: int = 255

    def __post_init__(self) -> None:
        if self.message_bits <= 0:
            raise ValueError("message_bits must be positive")
        if self.expansion < 2:
            raise ValueError("expansion must be at least 2")
        if not 3 <= self.max_block_symbols <= 255:
            raise ValueError("max_block_symbols must lie in [3, 255]")

    # -- layout -----------------------------------------------------------------

    @property
    def message_symbols(self) -> int:
        """Number of GF(256) symbols needed to carry the message bits."""
        return (self.message_bits + _BITS_PER_SYMBOL - 1) // _BITS_PER_SYMBOL

    @property
    def symbols_per_block(self) -> int:
        """Message symbols carried by each RS block (last block may be shorter)."""
        max_k = max(1, self.max_block_symbols // self.expansion)
        return min(self.message_symbols, max_k)

    @cached_property
    def _blocks(self) -> Tuple[ReedSolomonCode, ...]:
        """The RS code of every block, in order."""
        blocks: List[ReedSolomonCode] = []
        remaining = self.message_symbols
        per_block = self.symbols_per_block
        while remaining > 0:
            k = min(per_block, remaining)
            n = min(255, self.expansion * k)
            if n <= k:
                n = k + 1
            blocks.append(ReedSolomonCode(block_length=n, message_length=k))
            remaining -= k
        return tuple(blocks)

    @cached_property
    def codeword_bits(self) -> int:
        """Total number of bits in an encoded message."""
        return sum(code.block_length for code in self._blocks) * _BITS_PER_SYMBOL

    @property
    def rate(self) -> float:
        return self.message_bits / self.codeword_bits

    # -- public API ------------------------------------------------------------------

    def encode_int(self, value: int) -> int:
        """Encode a message packed LSB first (bit ``i`` = message bit ``i``).

        Returns the ``codeword_bits``-bit codeword packed the same way.  The
        message bytes are the RS message symbols (the last one zero-padded).
        """
        if value < 0 or value >> self.message_bits:
            raise ValueError(f"message must fit in {self.message_bits} bits")
        symbols = value.to_bytes(self.message_symbols, "little")
        codeword = bytearray()
        cursor = 0
        for code in self._blocks:
            codeword += code.encode_bytes(symbols[cursor:cursor + code.message_length])
            cursor += code.message_length
        return int.from_bytes(codeword, "little")

    def decode_planes(self, bits: int, present: int) -> int:
        """Decode a received word given as ``(bits, present)`` planes.

        The planes follow the :func:`~repro.utils.bitstring.pack_symbols`
        convention: slot ``i`` received bit ``i`` of ``bits`` iff bit ``i`` of
        ``present`` is set, and was erased otherwise.  Slots beyond the
        codeword are ignored.  Returns the message packed LSB first; raises
        :class:`DecodingError` if any block is beyond the correction radius.
        """
        if bits & ~present:
            raise ValueError("bits plane must be a subset of the present plane")
        total_bits = self.codeword_bits
        full = (1 << total_bits) - 1
        # A byte with any missing bit is an erased RS symbol; missing bits read as 0.
        word = (bits & full).to_bytes(total_bits // _BITS_PER_SYMBOL, "little")
        missing = (~present & full).to_bytes(len(word), "little")

        message = bytearray()
        cursor = 0
        for code in self._blocks:
            end = cursor + code.block_length
            erased = missing[cursor:end]
            erasures = [index for index, byte in enumerate(erased) if byte] if any(erased) else None
            message += code.decode_bytes(word[cursor:end], erasures)
            cursor = end
        return int.from_bytes(message, "little") & ((1 << self.message_bits) - 1)

    def encode(self, bits: Sequence[int]) -> List[int]:
        """Encode ``message_bits`` bits into ``codeword_bits`` bits (list form of :meth:`encode_int`)."""
        if len(bits) != self.message_bits:
            raise ValueError(f"expected {self.message_bits} message bits, got {len(bits)}")
        value = int(bytes(bits[::-1]).translate(_ASCII_BITS), 2)
        return _int_to_bits(self.encode_int(value), self.codeword_bits)

    def decode(self, received: Sequence[Symbol]) -> List[int]:
        """Decode a received bit sequence (entries may be 0, 1 or ``None``).

        List form of :meth:`decode_planes`: ``None`` entries are erasures, a
        word shorter than the codeword is padded with erasures and extra
        symbols are ignored.
        """
        return _int_to_bits(
            self.decode_planes(*pack_symbols(received[: self.codeword_bits])), self.message_bits
        )


#: Maps a bit stored in a byte to the ASCII digit ``int(..., 2)`` reads.
_ASCII_BITS = b"0" + b"1" * 255
#: ``_BYTE_BITS[b]``: the 8 bits of ``b``, LSB first, one per byte.
_BYTE_BITS = tuple(bytes((b >> offset) & 1 for offset in range(_BITS_PER_SYMBOL)) for b in range(256))


def _int_to_bits(value: int, width: int) -> List[int]:
    """The ``width`` low bits of ``value`` as a list, LSB first."""
    symbols = value.to_bytes((width + _BITS_PER_SYMBOL - 1) // _BITS_PER_SYMBOL, "little")
    return list(b"".join(map(_BYTE_BITS.__getitem__, symbols)))[:width]
