"""δ-biased (small-bias) pseudorandom strings.

Algorithm A/B replace the long common random string with a short seed that
both endpoints of a link expand into a δ-biased string (paper §2.3,
Lemma 2.5, citing Naor–Naor and Alon–Goldreich–Håstad–Peres).  We implement
the AGHP *powering construction*:

    seed = (x, y) with x, y ∈ GF(2^r);   bit_i = ⟨x, y^i⟩

where ⟨·,·⟩ is the GF(2) inner product of coefficient vectors.  The bias of
the first ℓ bits of this generator is at most ℓ / 2^r, so choosing
``r = Θ(log(ℓ/δ))`` gives a δ-biased distribution from a 2r-bit seed —
matching the seed length ``Θ(log(1/δ) + log ℓ)`` of Lemma 2.5.

``SmallBiasGenerator`` supports random access (``bit(i)``) and efficient
sequential block generation (``packed_bits`` / ``packed_slots``), which is
what the seed manager uses to carve per-iteration hash seeds out of the
expanded string.  Sequential generation materialises the expanded string as
one packed integer grown by LFSR jump blocks: ``s_i = ⟨x, y^i⟩`` is a
linear functional of the state orbit of the (linear) map ``· y``, so the
stream satisfies a linear recurrence of order at most ``r``.  The generator
bootstraps ``2r`` bits with the reference loop, recovers the minimal
connection polynomial with a packed Berlekamp–Massey pass, and then extends
the cached stream one block at a time (one shift/XOR per set coefficient of
``x^span mod conn``) — no per-bit Python work at all, and no polynomial
arithmetic beyond one squaring each time the block span doubles.  The
per-bit reference path (:meth:`bits`) keeps the plain field-multiplication
loop, and the equivalence suite pins the two bit-identical.

The expanded stream is a pure function of the seed ``(x, y)`` and the field
degree, so the fast path shares one expansion state per distinct seed across
*all* generator instances in the process (a bounded module-level cache).
Repeated trials over the same CRS — a parameter sweep, a benchmark rerun —
bootstrap and extend each per-link stream once instead of once per
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hashing.gf2m import GF2m


def _poly_mod(value: int, modulus: int, degree: int) -> int:
    """``value mod modulus`` over GF(2)[x]; ``modulus`` is monic of ``degree``."""
    top = value.bit_length() - 1
    while top >= degree:
        value ^= modulus << (top - degree)
        top = value.bit_length() - 1
    return value


def _poly_mulmod(a: int, b: int, modulus: int, degree: int) -> int:
    """``a · b mod modulus`` over GF(2)[x]; ``modulus`` is monic of ``degree``."""
    product = 0
    while a:
        low = a & -a
        product ^= b << (low.bit_length() - 1)
        a ^= low
    return _poly_mod(product, modulus, degree)


#: Span at which stream extension stops squaring its jump.  Past it every
#: extension block is ``span - deg(conn) + 1`` bits computed from the
#: stream's last ``span`` bits: small enough that the XOR operands stay
#: cache-friendly, large enough that an iteration's 3 × 4096-bit slot region
#: needs at most one block.
_EXTENSION_CHUNK_BITS = 1 << 15


class _StreamState:
    """Mutable LFSR expansion state for one ``(x, y, field_degree)`` seed.

    ``stream`` holds the first ``length`` expanded bits packed LSB-first.
    The seed's constants are set once, by the bootstrap (``conn`` is
    ``None`` until then): past its first ``shift`` bits the stream satisfies
    the linear recurrence with characteristic polynomial ``conn``
    (``conn(0) = 1``, degree ``conn_degree``), and ``jump`` is
    ``x^span mod conn`` for the current extension ``span``.  The state is
    shared by every fast-path generator instance with the same seed, so it
    must only ever *grow* — which the expansion code guarantees.
    """

    __slots__ = ("stream", "length", "shift", "conn", "conn_degree", "span", "jump")

    def __init__(self) -> None:
        self.stream = 0
        self.length = 0
        self.shift = 0
        self.conn: Optional[int] = None
        self.conn_degree = 0
        self.span = 0
        self.jump = 0


#: Process-level expansion cache: seeds are pure inputs, so sharing the
#: expanded stream across generator instances is observationally invisible
#: (the equivalence suite pins the output against the per-bit reference
#: either way).  Bounded FIFO so pathological seed churn cannot grow it
#: without limit.
_STREAM_STATES: Dict[Tuple[int, int, int], _StreamState] = {}
_STREAM_STATE_CAPACITY = 512


def _shared_stream_state(x: int, y: int, field_degree: int) -> _StreamState:
    key = (x, y, field_degree)
    state = _STREAM_STATES.get(key)
    if state is None:
        if len(_STREAM_STATES) >= _STREAM_STATE_CAPACITY:
            _STREAM_STATES.pop(next(iter(_STREAM_STATES)))
        state = _STREAM_STATES[key] = _StreamState()
    return state


def _minimal_connection_polynomial(stream: int, count: int) -> Tuple[int, int]:
    """Berlekamp–Massey over GF(2) on the first ``count`` bits of ``stream``.

    Returns ``(C, L)`` with ``C`` packed (bit ``j`` = coefficient of ``x^j``,
    ``C(0) = 1``) such that ``⊕_{j=0}^{L} C_j · s_{i-j} = 0`` for all
    ``i ≥ L``.  Discrepancies are whole-register popcounts over the
    bit-reversed stream instead of per-term Python loops.
    """
    rbits = 0
    for i in range(count):
        if (stream >> i) & 1:
            rbits |= 1 << (count - 1 - i)
    connection, backup = 1, 1
    complexity, gap = 0, 1
    for i in range(count):
        discrepancy = (connection & (rbits >> (count - 1 - i))).bit_count() & 1
        if discrepancy == 0:
            gap += 1
        elif 2 * complexity <= i:
            previous = connection
            connection ^= backup << gap
            complexity = i + 1 - complexity
            backup = previous
            gap = 1
        else:
            connection ^= backup << gap
            gap += 1
    return connection, complexity


def required_field_degree(output_length: int, delta: float) -> int:
    """Smallest supported field degree giving bias <= ``delta`` for ``output_length`` bits."""
    if output_length <= 0:
        raise ValueError("output_length must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    for degree in (8, 16, 32, 64, 128):
        # bias of the first ℓ bits of the powering construction is <= ℓ / 2^r
        if output_length / (2.0 ** degree) <= delta:
            return degree
    raise ValueError("requested bias is too small for the supported field degrees")


def seed_length_bits(field_degree: int) -> int:
    """Number of uniform seed bits consumed by the generator (two field elements)."""
    return 2 * field_degree


@dataclass
class SmallBiasGenerator:
    """AGHP powering-construction generator for a δ-biased bit string."""

    seed_bits: int
    field_degree: int = 64
    #: ``False`` routes sequential generation through the original per-bit
    #: field-multiplication loop instead of the table-driven step — the
    #: reference path the equivalence suite and the hashing benchmark compare
    #: against.
    table_stepping: bool = True

    def __post_init__(self) -> None:
        self.field = GF2m(self.field_degree)
        mask = self.field.order - 1
        self.x = self.seed_bits & mask
        self.y = (self.seed_bits >> self.field_degree) & mask
        # A zero x would make the whole string zero and a zero y would make it
        # constant after the first bit; both still satisfy the bias bound on
        # average over seeds, but we keep them as-is for faithfulness (the
        # probability of drawing them is 2^-r).
        #
        # The fast sequential path caches the expanded string as one packed
        # integer (a :class:`_StreamState`), grown on demand by LFSR jump
        # blocks.  Fast-path instances with the same seed share one
        # process-level state, so a stream is bootstrapped and extended once
        # per seed.
        if self.table_stepping:
            self._state = _shared_stream_state(self.x, self.y, self.field_degree)
        else:
            self._state = _StreamState()

    def _bootstrap_stream(self) -> None:
        """Seed the stream cache: 2r stepped bits + Berlekamp–Massey.

        The AGHP stream is a linear functional of the ``· y`` orbit in
        GF(2^r), so its linear complexity is at most ``r``; 2r terms therefore
        determine the minimal connection polynomial exactly, and the LFSR
        extension reproduces the reference stream bit for bit (pinned by the
        hashing equivalence suite).  The 2r bootstrap terms are stepped with
        small nibble-indexed tables for the (linear) ``· y`` map — exact field
        products, so bit-identical to the :meth:`bits` reference loop at a
        fraction of its cost.
        """
        state = self._state
        field = self.field
        degree = self.field_degree
        basis: List[int] = []
        product = self.y
        for _ in range(degree):
            basis.append(product)
            product = field.reduce(product << 1)
        step_tables: List[List[int]] = []
        for base_bit in range(0, degree, 4):
            table = [0] * 16
            for value in range(1, 16):
                low = value & -value
                table[value] = table[value ^ low] ^ basis[base_bit + low.bit_length() - 1]
            step_tables.append(table)
        count = 2 * degree
        stream = 0
        x = self.x
        power = 1
        for i in range(count):
            if (x & power).bit_count() & 1:
                stream |= 1 << i
            shifted = power
            stepped = 0
            for table in step_tables:
                stepped ^= table[shifted & 0xF]
                shifted >>= 4
            power = stepped
        state.stream = stream
        state.length = count
        connection, complexity = _minimal_connection_polynomial(stream, count)
        # Characteristic form: bit-reverse C over degree L, then strip the
        # x^shift factor (present exactly when the minimal polynomial has a
        # pre-periodic head, e.g. y = 0) so conn is invertible at 0.
        reversed_conn = 0
        for j in range(complexity + 1):
            if (connection >> j) & 1:
                reversed_conn |= 1 << (complexity - j)
        shift = (reversed_conn & -reversed_conn).bit_length() - 1
        conn = reversed_conn >> shift
        conn_degree = complexity - shift
        state.shift = shift
        state.conn = conn
        state.conn_degree = conn_degree
        if conn_degree:
            # The first extension block jumps over the whole bootstrap.
            state.span = count - shift
            state.jump = _poly_mod(1 << state.span, conn, conn_degree)

    def _ensure_stream(self, length: int) -> None:
        """Grow the cached stream to at least ``length`` bits.

        With ``jump = x^span mod conn`` and ``have`` bits past the shift
        head, s_{shift+have+t} = ⊕_{j ∈ jump} s_{shift+have-span+t+j} for
        t ≤ span - deg(conn): one block of fresh bits is one shift/XOR per
        set coefficient over the stream's last ``span`` bits.  While ``span``
        is below :data:`_EXTENSION_CHUNK_BITS` it doubles (``jump`` squared)
        as soon as the stream holds twice as many bits, so the stream grows
        geometrically; after that the span, and with it every block's cost,
        stays fixed.  One squaring per doubling is the only polynomial
        multiplication per seed.
        """
        state = self._state
        if length <= state.length:
            return
        if state.conn is None:
            self._bootstrap_stream()
            if length <= state.length:
                return
        conn_degree = state.conn_degree
        if conn_degree == 0:
            # Eventually-zero stream: every bit past the cached prefix is 0.
            state.length = length
            return
        conn = state.conn
        shift = state.shift
        span = state.span
        jump = state.jump
        stream = state.stream
        stream_len = state.length
        while stream_len < length:
            if span < _EXTENSION_CHUNK_BITS and stream_len - shift >= 2 * span:
                span *= 2
                jump = _poly_mulmod(jump, jump, conn, conn_degree)
            window = (stream >> (stream_len - span)) & ((1 << span) - 1)
            block = 0
            coefficients = jump
            while coefficients:
                low = coefficients & -coefficients
                block ^= window >> (low.bit_length() - 1)
                coefficients ^= low
            fresh = span - conn_degree + 1
            stream |= (block & ((1 << fresh) - 1)) << stream_len
            stream_len += fresh
        state.stream = stream
        state.length = stream_len
        state.span = span
        state.jump = jump

    @classmethod
    def from_bit_list(cls, bits: List[int], field_degree: int = 64) -> "SmallBiasGenerator":
        """Build a generator from an explicit list of seed bits (LSB first)."""
        if len(bits) < seed_length_bits(field_degree):
            raise ValueError(
                f"need {seed_length_bits(field_degree)} seed bits, got {len(bits)}"
            )
        value = 0
        for index, bit in enumerate(bits[: seed_length_bits(field_degree)]):
            if bit:
                value |= 1 << index
        return cls(seed_bits=value, field_degree=field_degree)

    # -- bit access ---------------------------------------------------------------

    def bit(self, index: int) -> int:
        """The ``index``-th bit of the expanded string (random access)."""
        if index < 0:
            raise ValueError("index must be non-negative")
        power = self.field.pow(self.y, index)
        return GF2m.inner_product_bit(self.x, power)

    def bits(self, offset: int, count: int) -> List[int]:
        """``count`` consecutive bits starting at ``offset`` (sequential generation)."""
        if offset < 0 or count < 0:
            raise ValueError("offset and count must be non-negative")
        out: List[int] = []
        power = self.field.pow(self.y, offset)
        for _ in range(count):
            out.append(GF2m.inner_product_bit(self.x, power))
            power = self.field.mul(power, self.y)
        return out

    def packed_bits(self, offset: int, count: int) -> int:
        """Same as :meth:`bits` but packed into an integer (bit 0 = first bit).

        This is the fast sequential path: one whole-register slice out of the
        LFSR-extended stream cache instead of per-bit field multiplications.
        Bit-identical to packing the output of :meth:`bits` (pinned by the
        hashing equivalence suite); with ``table_stepping=False`` it *is* that
        packing loop.
        """
        if offset < 0 or count < 0:
            raise ValueError("offset and count must be non-negative")
        if not self.table_stepping:
            value = 0
            for position, bit in enumerate(self.bits(offset, count)):
                if bit:
                    value |= 1 << position
            return value
        if count == 0:
            return 0
        self._ensure_stream(offset + count)
        return (self._state.stream >> offset) & ((1 << count) - 1)

    def packed_slots(self, offset_lengths: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
        """Read several ``(offset, length)`` slots in one sequential pass.

        Slots must be given in increasing-offset order and must not overlap.
        All slots are served from the shared stream cache, which is extended
        once to cover the furthest slot.  This is what
        :class:`~repro.hashing.seeds.ExchangedSeedSource` (and, since the
        unified expansion contract, :class:`~repro.hashing.seeds.CrsSeedSource`)
        uses to pull a whole iteration's seed slots out of the δ-biased string
        in one read.
        """
        # One validation for both paths, before any slot is read.
        position = 0
        for offset, count in offset_lengths:
            if offset < 0 or count < 0:
                raise ValueError("offset and count must be non-negative")
            if offset < position:
                raise ValueError("slots must be given in increasing-offset order")
            position = offset + count
        if self.table_stepping:
            self._ensure_stream(position)
        return tuple(self.packed_bits(offset, count) for offset, count in offset_lengths)


def empirical_bias(bits: List[int]) -> float:
    """|Pr[parity = 0] - 1/2| of the given sample — used by tests and benchmarks."""
    if not bits:
        raise ValueError("need at least one bit")
    zeros = sum(1 for bit in bits if bit == 0)
    return abs(zeros / len(bits) - 0.5)
