"""Binary extension field GF(2^r) arithmetic on Python integers.

The δ-biased string generator (:mod:`repro.hashing.small_bias`) uses the
Alon–Goldreich–Håstad–Peres "powering" construction, which works over a
binary extension field GF(2^r).  Elements are represented as integers whose
bits are the coefficients of a polynomial over GF(2); multiplication is
carry-less multiplication followed by reduction modulo a fixed irreducible
polynomial.

Only the operations the generator needs are provided: multiplication,
exponentiation and the GF(2) inner product of two elements' coefficient
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Irreducible polynomials (including the leading x^r term) for supported degrees.
IRREDUCIBLE_POLYNOMIALS: Dict[int, int] = {
    8: (1 << 8) | 0b11011,                 # x^8 + x^4 + x^3 + x + 1
    16: (1 << 16) | (1 << 5) | (1 << 3) | (1 << 1) | 1,   # x^16 + x^5 + x^3 + x + 1
    32: (1 << 32) | (1 << 7) | (1 << 3) | (1 << 2) | 1,   # x^32 + x^7 + x^3 + x^2 + 1
    64: (1 << 64) | (1 << 4) | (1 << 3) | (1 << 1) | 1,   # x^64 + x^4 + x^3 + x + 1
    128: (1 << 128) | (1 << 7) | (1 << 2) | (1 << 1) | 1,  # x^128 + x^7 + x^2 + x + 1
}


def carryless_multiply(a: int, b: int) -> int:
    """Multiply two GF(2) polynomials given as integers (no reduction)."""
    result = 0
    while b:
        low = b & -b
        result ^= a * low  # multiplying by a power of two is a shift
        b ^= low
    return result


@dataclass(frozen=True)
class GF2m:
    """The field GF(2^degree) with a fixed irreducible modulus."""

    degree: int

    def __post_init__(self) -> None:
        if self.degree not in IRREDUCIBLE_POLYNOMIALS:
            raise ValueError(
                f"unsupported field degree {self.degree}; "
                f"supported: {sorted(IRREDUCIBLE_POLYNOMIALS)}"
            )

    @property
    def modulus(self) -> int:
        return IRREDUCIBLE_POLYNOMIALS[self.degree]

    @property
    def order(self) -> int:
        return 1 << self.degree

    def reduce(self, value: int) -> int:
        """Reduce a polynomial modulo the field's irreducible polynomial."""
        modulus = self.modulus
        degree = self.degree
        while value.bit_length() > degree:
            shift = value.bit_length() - degree - 1
            value ^= modulus << shift
        return value

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        self._check(a)
        self._check(b)
        return self.reduce(carryless_multiply(a, b))

    def pow(self, base: int, exponent: int) -> int:
        """Field exponentiation by a non-negative integer exponent."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self._check(base)
        result = 1
        acc = base
        while exponent:
            if exponent & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            exponent >>= 1
        return result

    @staticmethod
    def inner_product_bit(a: int, b: int) -> int:
        """GF(2) inner product of the coefficient vectors of two elements."""
        return (a & b).bit_count() & 1

    def _check(self, value: int) -> None:
        if value < 0 or value >= self.order:
            raise ValueError(f"{value} is not an element of GF(2^{self.degree})")

