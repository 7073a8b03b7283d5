"""Differential oracle: the table-driven Reed–Solomon code against the polynomial one.

The production code encodes and computes syndromes with precomputed GF(256)
rows (:mod:`repro.coding.reed_solomon`).  The reference here is the textbook
formulation built from the :mod:`repro.coding.gf256` polynomial helpers:

* encode: R(x) = x^p * M(x) mod g(x), codeword = [R, M];
* syndromes: S_j = R(alpha^j) by Horner evaluation.

Every block shape :class:`BinaryBlockCode` produces for 8..2400 message bits
and expansion 2..4 is checked, plus arbitrary ``(n, k)`` drawn by hypothesis.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.block_code import BinaryBlockCode
from repro.coding.gf256 import GENERATOR, gf_pow, poly_divmod, poly_eval, poly_mul
from repro.coding.reed_solomon import ReedSolomonCode
from repro.utils.bitstring import int_to_bits


def reference_generator(parity: int) -> List[int]:
    generator = [1]
    for i in range(parity):
        generator = poly_mul(generator, [gf_pow(GENERATOR, i), 1])
    return generator


def reference_encode(code: ReedSolomonCode, message: Sequence[int]) -> List[int]:
    parity = code.parity_length
    _, remainder = poly_divmod([0] * parity + list(message), reference_generator(parity))
    return (list(remainder) + [0] * parity)[:parity] + list(message)


def reference_syndromes(code: ReedSolomonCode, word: Sequence[int]) -> List[int]:
    return [poly_eval(list(word), gf_pow(GENERATOR, j)) for j in range(code.parity_length)]


BLOCK_SHAPES = sorted({
    (code.block_length, code.message_length)
    for message_bits in range(8, 2401)
    for expansion in (2, 3, 4)
    for code in BinaryBlockCode(message_bits, expansion)._blocks
})

arbitrary_shapes = st.integers(2, 255).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 1))
)
shapes = st.one_of(st.sampled_from(BLOCK_SHAPES), arbitrary_shapes)


def test_every_block_shape_matches_reference():
    rng = random.Random(2024)
    assert len(BLOCK_SHAPES) == 275
    for n, k in BLOCK_SHAPES:
        code = ReedSolomonCode(n, k)
        assert code.generator_polynomial() == reference_generator(n - k)
        message = [rng.randrange(256) for _ in range(k)]
        assert code.encode(message) == reference_encode(code, message), (n, k)
        word = [rng.randrange(256) for _ in range(n)]
        assert code.syndromes(word) == reference_syndromes(code, word), (n, k)


@settings(max_examples=80, deadline=None)
@given(shapes, st.data())
def test_table_path_matches_reference_within_radius(shape, data):
    """Encode and syndromes agree with the reference; decode recovers the message.

    Syndromes are also compared on an arbitrary word, usually beyond the radius.
    """
    n, k = shape
    code = ReedSolomonCode(n, k)
    message = data.draw(st.lists(st.integers(0, 255), min_size=k, max_size=k))
    codeword = code.encode(message)
    assert codeword == reference_encode(code, message)
    assert code.syndromes(codeword) == [0] * (n - k)
    arbitrary = data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n))
    assert code.syndromes(arbitrary) == reference_syndromes(code, arbitrary)

    parity = n - k
    num_erasures = data.draw(st.integers(0, parity))
    num_errors = data.draw(st.integers(0, (parity - num_erasures) // 2))
    positions = data.draw(st.permutations(range(n)))[: num_erasures + num_errors]
    erasures = positions[:num_erasures]
    word = list(codeword)
    for position in erasures:
        word[position] = data.draw(st.integers(0, 255))
    for position in positions[num_erasures:]:
        word[position] ^= data.draw(st.integers(1, 255))
    assert code.syndromes(word) == reference_syndromes(code, word)
    assert code.decode(word, erasure_positions=erasures) == message


#: ``BinaryBlockCode(128).encode`` of GOLDEN_MESSAGE, packed LSB first: the
#: message occupies the top 128 bits (systematic), the RS parity the rest.
GOLDEN_MESSAGE = 0x0123456789ABCDEFFEDCBA9876543210
GOLDEN_CODEWORD = int(
    "0123456789abcdeffedcba9876543210"
    "173363da48ca057c33b186fe4b062842"
    "ec7e15ed8f22f7905ad0ce4b64f373f0",
    16,
)


def test_binary_block_code_golden_codeword():
    code = BinaryBlockCode(128)
    codeword = code.encode(int_to_bits(GOLDEN_MESSAGE, 128))
    assert codeword == int_to_bits(GOLDEN_CODEWORD, 384)
    assert code.decode(codeword) == int_to_bits(GOLDEN_MESSAGE, 128)
