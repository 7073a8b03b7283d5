"""Reed–Solomon codes over GF(256) with errors-and-erasures decoding.

The randomness exchange of Algorithm A/B (paper Algorithm 5) sends a short
uniform seed encoded with "a standard error-correcting code with constant
rate and constant distance" (Theorem 2.1).  The paper suggests concatenating
Reed–Solomon with a binary code or using Guruswami–Indyk codes; we implement
the Reed–Solomon component here and a binary wrapper in
:mod:`repro.coding.block_code`.

Encoding is systematic (parity symbols followed by message symbols in the
low-degree-first coefficient layout).  Decoding handles both symbol errors
and declared erasures — the latter matter because a *deletion* on a
synchronous, fully-scheduled exchange is perceived by the receiver as an
erasure (paper §3.2, footnote 9).

Encoding and syndromes are linear maps, so both run on whole byte vectors:
each XORs precomputed per-``(n, k)`` rows (parity rows of the unit messages,
syndrome columns ``alpha^(j * pos)``) scaled with ``bytes.translate`` through
:data:`~repro.coding.gf256.MUL_ROWS`.

The decoder follows the classical pipeline: syndromes → erasure locator →
modified syndromes → Sugiyama (extended Euclidean) solution of the key
equation → Chien search → Forney error values.  It corrects any pattern with
``2 * errors + erasures <= n - k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.coding.gf256 import (
    GENERATOR,
    MUL_ROWS,
    gf_div,
    gf_inv,
    gf_mul,
    gf_pow,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_trim,
)


class DecodingError(Exception):
    """Raised when a received word is not decodable within the code's radius."""


class _CodeTables(NamedTuple):
    generator: Tuple[int, ...]
    #: Row i: the p parity symbols of the unit message e_i.
    parity_rows: Tuple[bytes, ...]
    #: Column pos: alpha^(j * pos) for j = 0..p-1.
    syndrome_columns: Tuple[bytes, ...]


@lru_cache(maxsize=None)
def _code_tables(n: int, k: int) -> _CodeTables:
    """Derived tables of RS(n, k), shared by every instance of that shape."""
    parity = n - k
    generator = [1]
    for i in range(parity):
        generator = poly_mul(generator, [gf_pow(GENERATOR, i), 1])
    # g is monic, so x^p = g_low (mod g); then x^(p+i+1) = x * x^(p+i) (mod g).
    feedback = bytes(generator[:parity])
    remainder = feedback
    parity_rows = []
    for _ in range(k):
        parity_rows.append(remainder)
        top = remainder[-1]
        shifted = int.from_bytes(remainder[:-1], "little") << 8
        remainder = (
            shifted ^ int.from_bytes(feedback.translate(MUL_ROWS[top]), "little")
        ).to_bytes(parity, "little")
    syndrome_columns = tuple(
        bytes(gf_pow(GENERATOR, j * position) for j in range(parity))
        for position in range(n)
    )
    return _CodeTables(tuple(generator), tuple(parity_rows), syndrome_columns)


def _combine(rows: Sequence[bytes], scalars: bytes) -> int:
    """XOR over i of ``scalars[i] * rows[i]``, packed little-endian into an int."""
    acc = 0
    for row, scalar in zip(rows, scalars):
        if scalar:
            acc ^= int.from_bytes(row.translate(MUL_ROWS[scalar]), "little")
    return acc


def _field_symbols(symbols: Sequence[int], what: str) -> bytes:
    """``symbols`` as a byte vector; ``ValueError`` for anything outside GF(256)."""
    try:
        return bytes(symbols)
    except ValueError:
        bad = next(symbol for symbol in symbols if not 0 <= symbol < 256)
        raise ValueError(f"{what} {bad} outside GF(256)") from None


@dataclass(frozen=True)
class ReedSolomonCode:
    """A systematic RS(n, k) code over GF(256).

    Parameters
    ----------
    block_length:
        n, the number of codeword symbols (at most 255).
    message_length:
        k, the number of message symbols (1 <= k < n).
    """

    block_length: int
    message_length: int

    def __post_init__(self) -> None:
        if not 1 <= self.message_length < self.block_length <= 255:
            raise ValueError(
                f"invalid RS parameters n={self.block_length}, k={self.message_length}"
            )

    # -- derived parameters ---------------------------------------------------

    @property
    def parity_length(self) -> int:
        return self.block_length - self.message_length

    @property
    def distance(self) -> int:
        """Minimum distance n - k + 1 (RS codes are MDS)."""
        return self.parity_length + 1

    @property
    def rate(self) -> float:
        return self.message_length / self.block_length

    def generator_polynomial(self) -> List[int]:
        """g(x) = prod_{i=0}^{p-1} (x - alpha^i), low-degree-first."""
        return list(_code_tables(self.block_length, self.message_length).generator)

    # -- encoding ---------------------------------------------------------------

    def encode(self, message: Sequence[int]) -> List[int]:
        """Encode ``k`` message symbols into ``n`` codeword symbols.

        The codeword layout is ``[parity_0..parity_{p-1}, message_0..message_{k-1}]``
        viewed as coefficients of C(x) = M(x) * x^p + R(x).
        """
        return list(self.encode_bytes(_field_symbols(message, "message symbol")))

    def encode_bytes(self, message: bytes) -> bytes:
        """:meth:`encode` on a byte vector of exactly ``k`` symbols.

        R(x) = M(x) * x^p mod g(x) is linear in M, so the parity is the XOR of
        the precomputed parity rows of the unit messages, each scaled by its
        message symbol.
        """
        if len(message) != self.message_length:
            raise ValueError(
                f"expected {self.message_length} message symbols, got {len(message)}"
            )
        tables = _code_tables(self.block_length, self.message_length)
        parity = _combine(tables.parity_rows, message)
        return parity.to_bytes(self.parity_length, "little") + message

    def extract_message(self, codeword: Sequence[int]) -> List[int]:
        """Read the systematic message symbols out of a codeword."""
        if len(codeword) != self.block_length:
            raise ValueError("codeword has the wrong length")
        return list(codeword[self.parity_length:])

    # -- decoding ---------------------------------------------------------------

    def syndromes(self, received: Sequence[int]) -> List[int]:
        """S_j = R(alpha^j) for j = 0..p-1."""
        word = _field_symbols(received, "received symbol")
        if len(word) != self.block_length:
            raise ValueError("received word has the wrong length")
        return list(self._packed_syndromes(word).to_bytes(self.parity_length, "little"))

    def decode(
        self,
        received: Sequence[int],
        erasure_positions: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Correct a received word and return the decoded *message*.

        ``erasure_positions`` are codeword indices known to be unreliable
        (their symbol values are still taken from ``received``; callers
        typically fill them with 0).
        """
        word = _field_symbols(received, "received symbol")
        return list(self.decode_bytes(word, erasure_positions))

    def decode_bytes(
        self, word: bytes, erasure_positions: Optional[Sequence[int]] = None
    ) -> bytes:
        """:meth:`decode` on a byte vector of exactly ``n`` symbols."""
        if len(word) != self.block_length:
            raise ValueError("received word has the wrong length")
        erasures = sorted(set(erasure_positions or ()))
        for position in erasures:
            if not 0 <= position < self.block_length:
                raise ValueError(f"erasure position {position} out of range")
        if len(erasures) > self.parity_length:
            raise DecodingError("more erasures than parity symbols")

        synd = self._packed_syndromes(word)
        if not synd:
            return word[self.parity_length:]

        synd_list = list(synd.to_bytes(self.parity_length, "little"))
        corrected = bytes(self._correct(list(word), synd_list, erasures))
        if self._packed_syndromes(corrected):
            raise DecodingError("residual syndromes after correction")
        return corrected[self.parity_length:]

    def _packed_syndromes(self, word: bytes) -> int:
        """All syndromes packed little-endian into one int (zero iff a codeword)."""
        tables = _code_tables(self.block_length, self.message_length)
        return _combine(tables.syndrome_columns, word)

    # -- internals ---------------------------------------------------------------

    def _erasure_locator(self, erasures: Sequence[int]) -> List[int]:
        """Gamma(x) = prod (1 - X_i x) with X_i = alpha^position."""
        locator = [1]
        for position in erasures:
            locator = poly_mul(locator, [1, gf_pow(GENERATOR, position)])
        return locator

    def _solve_key_equation(self, modified_syndrome: List[int], num_erasures: int) -> tuple:
        """Sugiyama's extended-Euclidean solution of the key equation.

        Returns (error_locator, evaluator) such that
        ``error_locator * modified_syndrome = evaluator (mod x^p)``.
        """
        parity = self.parity_length
        r_prev: List[int] = [0] * parity + [1]  # x^p
        r_curr: List[int] = poly_trim(modified_syndrome)
        v_prev: List[int] = [0]
        v_curr: List[int] = [1]
        # Continue while deg(r_curr) >= (p + rho) / 2.
        while r_curr != [0] and 2 * poly_deg(r_curr) >= parity + num_erasures:
            quotient, remainder = poly_divmod(r_prev, r_curr)
            r_prev, r_curr = r_curr, remainder
            v_prev, v_curr = v_curr, poly_add(v_prev, poly_mul(quotient, v_curr))
        return poly_trim(v_curr), poly_trim(r_curr)

    @staticmethod
    def _formal_derivative(poly: Sequence[int]) -> List[int]:
        """d/dx of a polynomial over a characteristic-2 field."""
        derivative = [poly[k] if k % 2 == 1 else 0 for k in range(1, len(poly))]
        return poly_trim(derivative or [0])

    def _correct(self, word: List[int], synd: List[int], erasures: List[int]) -> List[int]:
        gamma = self._erasure_locator(erasures)
        syndrome_poly = poly_trim(synd)
        modified = poly_mul(syndrome_poly, gamma)
        modified = poly_trim(modified[: self.parity_length])

        if all(c == 0 for c in modified):
            # All discrepancies are explained by the erasures alone.
            error_locator: List[int] = [1]
            evaluator = poly_trim(poly_mul(syndrome_poly, gamma)[: self.parity_length])
        else:
            error_locator, evaluator = self._solve_key_equation(modified, len(erasures))
            if error_locator == [0]:
                raise DecodingError("degenerate error locator")

        errata_locator = poly_mul(error_locator, gamma)
        # Chien search over all codeword positions.
        positions: List[int] = []
        for position in range(self.block_length):
            x_inv = gf_inv(gf_pow(GENERATOR, position))
            if poly_eval(errata_locator, x_inv) == 0:
                positions.append(position)
        if len(positions) != poly_deg(errata_locator):
            raise DecodingError("errata locator does not split over the field")

        # The evaluator must correspond to the full errata locator:
        # Omega(x) = S(x) * Psi(x) mod x^p (scalar factors cancel in Forney).
        omega = poly_trim(poly_mul(syndrome_poly, errata_locator)[: self.parity_length])
        derivative = self._formal_derivative(errata_locator)

        corrected = list(word)
        for position in positions:
            x_i = gf_pow(GENERATOR, position)
            x_inv = gf_inv(x_i)
            denominator = poly_eval(derivative, x_inv)
            if denominator == 0:
                raise DecodingError("Forney denominator vanished")
            magnitude = gf_mul(x_i, gf_div(poly_eval(omega, x_inv), denominator))
            corrected[position] ^= magnitude
        return corrected
