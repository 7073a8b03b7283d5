"""Arithmetic in GF(256).

The randomness-exchange step of Algorithms A and B protects a short uniform
seed with a standard error-correcting code (paper Theorem 2.1).  We realise
that code as a Reed–Solomon code over GF(256); this module provides the
finite-field arithmetic it needs.

The field is GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1) (the 0x11D polynomial
familiar from CCSDS / QR-code Reed–Solomon).  Multiplication and inversion go
through log/antilog tables built once at import time from the generator
element 2.

For whole-vector work the module also exports :data:`MUL_ROWS`: row ``a`` is
the 256-byte table of ``b -> a * b``, so ``vector.translate(MUL_ROWS[a])``
scales every symbol of a byte vector by ``a`` in one C-level pass.
"""

from __future__ import annotations

from typing import List, Sequence

#: The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256
#: Multiplicative generator used to build the log tables.
GENERATOR = 2


def _build_tables() -> tuple:
    exp = [0] * (2 * FIELD_SIZE)
    log = [0] * FIELD_SIZE
    value = 1
    for power in range(FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & FIELD_SIZE:
            value ^= PRIMITIVE_POLY
    for power in range(FIELD_SIZE - 1, 2 * FIELD_SIZE):
        exp[power] = exp[power - (FIELD_SIZE - 1)]
    return exp, log


_EXP, _LOG = _build_tables()


def _build_mul_rows() -> tuple:
    """Row ``a`` maps ``b`` to ``a * b``: ``exp[log a + log b]`` for ``b != 0``."""
    exp_bytes = bytes(_EXP)
    log_nonzero = bytes(_LOG[1:])
    rows = [bytes(FIELD_SIZE)]
    for a in range(1, FIELD_SIZE):
        log_a = _LOG[a]
        rows.append(b"\0" + log_nonzero.translate(exp_bytes[log_a:log_a + FIELD_SIZE]))
    return tuple(rows)


#: ``MUL_ROWS[a][b] == gf_mul(a, b)``; apply to a byte vector with ``bytes.translate``.
MUL_ROWS = _build_mul_rows()


def gf_add(a: int, b: int) -> int:
    """Addition (= subtraction) in GF(256)."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_pow(a: int, exponent: int) -> int:
    """``a`` raised to an integer power (negative exponents via inversion)."""
    if a == 0:
        if exponent == 0:
            return 1
        if exponent < 0:
            raise ZeroDivisionError("cannot raise 0 to a negative power in GF(256)")
        return 0
    log_a = _LOG[a]
    exponent = exponent % (FIELD_SIZE - 1)
    return _EXP[(log_a * exponent) % (FIELD_SIZE - 1)]


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _EXP[(FIELD_SIZE - 1) - _LOG[a]]


def gf_div(a: int, b: int) -> int:
    """Division in GF(256)."""
    return gf_mul(a, gf_inv(b))


# -- polynomial helpers (coefficients listed lowest degree first) -------------


def poly_trim(poly: Sequence[int]) -> List[int]:
    """Drop trailing zero coefficients (keep at least one coefficient)."""
    out = list(poly)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_add(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Add two polynomials over GF(256)."""
    length = max(len(a), len(b))
    out = [0] * length
    for i, coeff in enumerate(a):
        out[i] ^= coeff
    for i, coeff in enumerate(b):
        out[i] ^= coeff
    return poly_trim(out)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Multiply two polynomials over GF(256)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, coeff_a in enumerate(a):
        if coeff_a == 0:
            continue
        for j, coeff_b in enumerate(b):
            if coeff_b == 0:
                continue
            out[i + j] ^= gf_mul(coeff_a, coeff_b)
    return poly_trim(out)


def poly_scale(poly: Sequence[int], scalar: int) -> List[int]:
    """Multiply every coefficient by a field scalar."""
    return poly_trim([gf_mul(coeff, scalar) for coeff in poly])


def poly_eval(poly: Sequence[int], x: int) -> int:
    """Evaluate a polynomial at ``x`` (Horner's rule, low-degree-first layout)."""
    result = 0
    for coeff in reversed(list(poly)):
        result = gf_mul(result, x) ^ coeff
    return result


def poly_deg(poly: Sequence[int]) -> int:
    """Degree of the polynomial (degree of the zero polynomial is 0 here)."""
    return len(poly_trim(poly)) - 1


def poly_divmod(numerator: Sequence[int], denominator: Sequence[int]) -> tuple:
    """Polynomial division with remainder over GF(256)."""
    num = poly_trim(numerator)
    den = poly_trim(denominator)
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [0] * max(1, len(num) - len(den) + 1)
    remainder = list(num)
    den_deg = len(den) - 1
    den_lead_inv = gf_inv(den[-1])
    for shift in range(len(num) - len(den), -1, -1):
        coeff = gf_mul(remainder[shift + den_deg], den_lead_inv)
        quotient[shift] = coeff
        if coeff == 0:
            continue
        for i, den_coeff in enumerate(den):
            remainder[shift + i] ^= gf_mul(coeff, den_coeff)
    return poly_trim(quotient), poly_trim(remainder)
