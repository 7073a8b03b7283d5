"""Unit and property tests for GF(256) arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.gf256 import (
    MUL_ROWS,
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_pow,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_trim,
)

elements = st.integers(0, 255)
nonzero = st.integers(1, 255)
polys = st.lists(elements, min_size=1, max_size=12)


class TestFieldAxioms:
    @given(elements, elements)
    def test_addition_is_xor_and_commutative(self, a, b):
        assert gf_add(a, b) == (a ^ b) == gf_add(b, a)

    @given(elements)
    def test_additive_inverse_is_self(self, a):
        assert gf_add(a, a) == 0

    @given(elements, elements)
    def test_multiplication_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements, elements, elements)
    def test_multiplication_associative(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b), gf_mul(a, c))

    @given(elements)
    def test_multiplicative_identity(self, a):
        assert gf_mul(a, 1) == a

    @given(nonzero)
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    @given(nonzero, nonzero)
    def test_division(self, a, b):
        assert gf_mul(gf_div(a, b), b) == a

    @given(nonzero, st.integers(0, 600))
    def test_pow_matches_repeated_multiplication(self, a, exponent):
        expected = 1
        for _ in range(exponent % 255):
            expected = gf_mul(expected, a)
        assert gf_pow(a, exponent) == expected

    def test_pow_of_zero(self):
        assert gf_pow(0, 0) == 1
        assert gf_pow(0, 5) == 0

    def test_mul_rows_match_gf_mul_on_every_pair(self):
        assert len(MUL_ROWS) == 256
        for a, row in enumerate(MUL_ROWS):
            assert row == bytes(gf_mul(a, b) for b in range(256))


class TestPolynomials:
    def test_trim(self):
        assert poly_trim([1, 2, 0, 0]) == [1, 2]
        assert poly_trim([0, 0]) == [0]

    def test_degree(self):
        assert poly_deg([5]) == 0
        assert poly_deg([0, 0, 3]) == 2

    @given(polys, polys)
    def test_add_commutative(self, a, b):
        assert poly_add(a, b) == poly_add(b, a)

    @given(polys)
    def test_add_self_is_zero(self, a):
        assert poly_add(a, a) == [0]

    @given(polys, polys, elements)
    def test_mul_matches_evaluation(self, a, b, x):
        product = poly_mul(a, b)
        assert poly_eval(product, x) == gf_mul(poly_eval(a, x), poly_eval(b, x))

    @given(polys, elements, elements)
    def test_scale_matches_evaluation(self, a, scalar, x):
        assert poly_eval(poly_scale(a, scalar), x) == gf_mul(scalar, poly_eval(a, x))

    @given(polys, polys)
    def test_divmod_identity(self, numerator, denominator):
        if poly_trim(denominator) == [0]:
            with pytest.raises(ZeroDivisionError):
                poly_divmod(numerator, denominator)
            return
        quotient, remainder = poly_divmod(numerator, denominator)
        reconstructed = poly_add(poly_mul(quotient, denominator), remainder)
        assert reconstructed == poly_trim(numerator)
        assert poly_deg(remainder) < max(poly_deg(denominator), 1) or poly_trim(remainder) == [0]
