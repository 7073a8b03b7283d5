"""Unit and property tests for the Reed-Solomon code."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf256 import poly_eval, gf_pow, GENERATOR
from repro.coding.reed_solomon import DecodingError, ReedSolomonCode


class TestParameters:
    def test_valid_parameters(self):
        code = ReedSolomonCode(15, 9)
        assert code.parity_length == 6
        assert code.distance == 7
        assert code.rate == pytest.approx(0.6)

    @pytest.mark.parametrize("n,k", [(256, 10), (10, 10), (10, 0), (5, 6)])
    def test_invalid_parameters(self, n, k):
        with pytest.raises(ValueError):
            ReedSolomonCode(n, k)

    def test_generator_polynomial_roots(self):
        code = ReedSolomonCode(12, 8)
        generator = code.generator_polynomial()
        for i in range(code.parity_length):
            assert poly_eval(generator, gf_pow(GENERATOR, i)) == 0


class TestEncoding:
    def test_encode_length_and_systematic_part(self):
        code = ReedSolomonCode(10, 4)
        message = [1, 2, 3, 4]
        codeword = code.encode(message)
        assert len(codeword) == 10
        assert code.extract_message(codeword) == message

    def test_codeword_has_zero_syndromes(self):
        code = ReedSolomonCode(20, 11)
        codeword = code.encode(list(range(11)))
        assert all(s == 0 for s in code.syndromes(codeword))

    def test_encode_rejects_wrong_length(self):
        code = ReedSolomonCode(10, 4)
        with pytest.raises(ValueError):
            code.encode([1, 2, 3])

    def test_encode_rejects_non_field_symbols(self):
        code = ReedSolomonCode(10, 4)
        with pytest.raises(ValueError):
            code.encode([1, 2, 3, 300])


class TestDecoding:
    def test_no_errors(self):
        code = ReedSolomonCode(12, 6)
        message = [7, 0, 255, 3, 9, 100]
        assert code.decode(code.encode(message)) == message

    def test_single_error(self):
        code = ReedSolomonCode(12, 6)
        message = [7, 0, 255, 3, 9, 100]
        word = code.encode(message)
        word[2] ^= 0x55
        assert code.decode(word) == message

    def test_errors_up_to_half_distance(self):
        code = ReedSolomonCode(16, 8)
        message = list(range(8))
        word = code.encode(message)
        for position in (0, 5, 9, 15):
            word[position] ^= 0xAA
        assert code.decode(word) == message

    def test_erasures_up_to_parity(self):
        code = ReedSolomonCode(16, 8)
        message = list(range(8))
        word = code.encode(message)
        erasures = [0, 3, 5, 7, 9, 11, 13, 15]
        for position in erasures:
            word[position] = 0
        assert code.decode(word, erasure_positions=erasures) == message

    def test_mixed_errors_and_erasures(self):
        code = ReedSolomonCode(20, 10)
        message = list(range(10, 20))
        word = code.encode(message)
        erasures = [1, 2, 3, 4]
        for position in erasures:
            word[position] = 99
        word[10] ^= 1
        word[15] ^= 7
        assert code.decode(word, erasure_positions=erasures) == message

    def test_too_many_erasures(self):
        code = ReedSolomonCode(10, 6)
        word = code.encode([0] * 6)
        with pytest.raises(DecodingError):
            code.decode(word, erasure_positions=[0, 1, 2, 3, 4])

    def test_beyond_radius_raises_or_miscorrects(self):
        """Beyond the radius the decoder stays a bounded-distance decoder.

        Either it raises, or the message it returns re-encodes to a codeword
        c' with ``2 * |errors outside erasures| + |erasures| <= n - k``
        against the received word.  Both outcomes must actually occur.
        """
        rng = random.Random(0)
        outcomes = set()
        for trial in range(400):
            n = rng.randrange(4, 40)
            k = rng.randrange(1, n - 1)
            code = ReedSolomonCode(n, k)
            parity = n - k
            word = code.encode([rng.randrange(256) for _ in range(k)])
            num_erasures = rng.randrange(0, parity) if trial % 2 else 0
            # The smallest error count that leaves the radius, or a few more.
            least = (parity - num_erasures) // 2 + 1
            num_errors = min(n - num_erasures, least + rng.randrange(0, 3))
            positions = rng.sample(range(n), num_erasures + num_errors)
            erasures = positions[:num_erasures]
            for position in erasures:
                word[position] = rng.randrange(256)
            for position in positions[num_erasures:]:
                word[position] ^= rng.randrange(1, 256)
            try:
                decoded = code.decode(word, erasure_positions=erasures)
            except DecodingError:
                outcomes.add("raised")
                continue
            outcomes.add("decoded")
            nearest = code.encode(decoded)
            erased = set(erasures)
            errors = sum(
                1 for position in range(n)
                if position not in erased and nearest[position] != word[position]
            )
            assert 2 * errors + len(erasures) <= parity, (n, k, erasures, word, decoded)
        assert outcomes == {"raised", "decoded"}

    @pytest.mark.parametrize("symbol", [300, -1])
    def test_decode_rejects_non_field_symbols(self, symbol):
        code = ReedSolomonCode(10, 4)
        word = code.encode([1, 2, 3, 4])
        word[5] = symbol
        with pytest.raises(ValueError, match="outside GF"):
            code.decode(word)

    def test_wrong_length_rejected(self):
        code = ReedSolomonCode(10, 6)
        with pytest.raises(ValueError):
            code.decode([0] * 9)

    def test_erasure_position_out_of_range(self):
        code = ReedSolomonCode(10, 6)
        with pytest.raises(ValueError):
            code.decode(code.encode([0] * 6), erasure_positions=[10])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 40),
    st.data(),
)
def test_random_error_erasure_patterns_roundtrip(n, data):
    """Any pattern with 2*errors + erasures <= n-k must decode correctly."""
    k = data.draw(st.integers(1, n - 4))
    code = ReedSolomonCode(n, k)
    message = data.draw(st.lists(st.integers(0, 255), min_size=k, max_size=k))
    word = code.encode(message)
    parity = n - k
    num_erasures = data.draw(st.integers(0, parity))
    num_errors = data.draw(st.integers(0, (parity - num_erasures) // 2))
    positions = data.draw(
        st.lists(st.integers(0, n - 1), min_size=num_erasures + num_errors,
                 max_size=num_erasures + num_errors, unique=True)
    )
    erasures = positions[:num_erasures]
    errors = positions[num_erasures:]
    for position in erasures:
        word[position] = data.draw(st.integers(0, 255))
    for position in errors:
        word[position] ^= data.draw(st.integers(1, 255))
    assert code.decode(word, erasure_positions=erasures) == message
