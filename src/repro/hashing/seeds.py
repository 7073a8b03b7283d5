"""Per-link hash-seed management.

Every meeting-points exchange on a link needs fresh hash seeds that both
endpoints agree on.  The paper offers two ways to obtain them:

* a **common random string** (CRS) shared by all parties and unknown to the
  adversary (Algorithm 1 / Theorem 1.1, and Algorithm C), and
* a per-link **randomness exchange** (Algorithm 5): one endpoint samples a
  short uniform seed, sends it through an error-correcting code, and both
  endpoints expand their (hopefully equal) seeds into a long δ-biased string
  (Algorithm A / B).

``SeedSource`` abstracts "give me the seed bits for iteration *i* and purpose
*p* on this link"; the engine instantiates one source per (party, incident
link).  Two endpoints produce identical bits iff they hold identical
underlying randomness, which is exactly the property the analysis needs: a
corrupted randomness exchange desynchronises every subsequent hash comparison
on that link (the ``E \\ E'`` case of Section 5).

Since the 2.0 API break both concrete sources share **one expansion
contract** (:class:`SlotAddressedSeedSource`): seeds are fixed-capacity slots
carved out of a δ-biased string expanded by
:meth:`~repro.hashing.small_bias.SmallBiasGenerator.packed_slots`, with the
slot of ``(iteration, purpose)`` at a deterministic, layout-independent
offset.  :class:`ExchangedSeedSource` expands the seed it received over the
wire; :class:`CrsSeedSource` derives its per-link generator seed from the CRS
and the canonical link label, then expands it exactly the same way.  The
previous ``CrsSeedSource`` (per-purpose ``random.Random`` re-seeding through
``utils.rng.fork``) is retired — a **documented behaviour break**: CRS-scheme
bit streams and trial fingerprints differ from every pre-2.0 version, which
the package major version and the runtime cache/key schema bumps gate.

Two access paths exist:

* the **batched fast path**: :meth:`SeedSource.seeds_for_iteration` — the
  contract's one required method — derives every slot of an interned
  :class:`SeedLayout` in one expansion pass;
* the **per-call reference path**: :meth:`SeedSource.seed_for` derives one
  (iteration, purpose) slot at a time.  The concrete sources keep a per-slot
  override whose bit streams the equivalence suite pins against the batched
  path (``tests/test_hashing_equivalence.py``).
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hashing.small_bias import SmallBiasGenerator

#: Purposes for which per-iteration seeds are drawn, with fixed indices so
#: both endpoints carve identical ranges out of the expanded string.
SEED_PURPOSES: Tuple[str, ...] = ("mp_counter", "mp_prefix", "extra")


@dataclass(frozen=True)
class SeedLayout:
    """How many seed bits each :data:`SEED_PURPOSES` slot needs per iteration.

    A layout is the unit of the batched seed contract: handing the same
    (interned) layout to :meth:`SeedSource.seeds_for_iteration` on both
    endpoints of a link guarantees they carve identical slots.  A length of
    zero marks a purpose the caller does not use; no bits are derived for it.
    """

    lengths: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lengths) != len(SEED_PURPOSES):
            raise ValueError(
                f"layout must give one length per purpose {SEED_PURPOSES}, got {self.lengths}"
            )
        if any(length < 0 for length in self.lengths):
            raise ValueError("seed lengths must be non-negative")


_LAYOUT_CACHE: Dict[Tuple[int, ...], SeedLayout] = {}


def seed_layout(**lengths_by_purpose: int) -> SeedLayout:
    """Build (and intern) a :class:`SeedLayout` from per-purpose bit lengths.

    >>> seed_layout(mp_counter=256, mp_prefix=1024) is seed_layout(mp_prefix=1024, mp_counter=256)
    True
    """
    unknown = set(lengths_by_purpose) - set(SEED_PURPOSES)
    if unknown:
        raise ValueError(f"unknown seed purposes {sorted(unknown)}; known: {SEED_PURPOSES}")
    lengths = tuple(lengths_by_purpose.get(purpose, 0) for purpose in SEED_PURPOSES)
    layout = _LAYOUT_CACHE.get(lengths)
    if layout is None:
        layout = _LAYOUT_CACHE[lengths] = SeedLayout(lengths)
    return layout


class SeedSource(abc.ABC):
    """Produces per-(iteration, purpose) hash seeds for one link.

    The unified expansion contract has one required method:
    :meth:`seeds_for_iteration`.  :meth:`seed_for` has a default
    implementation in terms of it.
    """

    @abc.abstractmethod
    def seeds_for_iteration(self, iteration: int, layout: SeedLayout) -> Tuple[Optional[int], ...]:
        """All of an iteration's seed slots in one call.

        Returns one packed integer per :data:`SEED_PURPOSES` entry (``None``
        for slots the layout leaves empty).  The (callable) default body loops
        over :meth:`seed_for`; the concrete sources override it with a
        single-expansion-pass derivation that is bit-identical.
        """
        return tuple(
            self.seed_for(iteration, purpose, length) if length else None
            for purpose, length in zip(SEED_PURPOSES, layout.lengths)
        )

    def seed_for(self, iteration: int, purpose: str, length_bits: int) -> int:
        """Return ``length_bits`` seed bits (packed) for one slot.

        Default: carve the single requested slot out of
        :meth:`seeds_for_iteration`.  The concrete sources override this with
        the frozen per-slot reference derivation.
        """
        index = self._purpose_index(purpose)
        seeds = self.seeds_for_iteration(iteration, seed_layout(**{purpose: length_bits}))
        value = seeds[index]
        assert value is not None  # non-zero length requested
        return value

    @staticmethod
    def _purpose_index(purpose: str) -> int:
        try:
            return SEED_PURPOSES.index(purpose)
        except ValueError as exc:
            raise ValueError(f"unknown seed purpose {purpose!r}; known: {SEED_PURPOSES}") from exc


class SlotAddressedSeedSource(SeedSource):
    """Shared machinery of the unified expansion contract.

    Concrete subclasses provide (in ``__post_init__``) a
    :class:`SmallBiasGenerator` as ``_generator`` plus the bookkeeping
    attributes; this class implements the deterministic slot addressing —
    ``(iteration * len(SEED_PURPOSES) + purpose_index) * slot_capacity_bits``
    — and the two access paths on top of it.  The addressing depends only on
    (iteration, purpose), never on the layout, so the batched and per-call
    paths read identical bits by construction.
    """

    # Provided by the dataclass subclasses.
    slot_capacity_bits: int
    derivations: int
    _generator: SmallBiasGenerator
    _cache: Dict[Tuple[int, str, int], int]
    _batch_cache: Dict[Tuple[int, SeedLayout], Tuple[Optional[int], ...]]

    def _slot_offset(self, iteration: int, purpose_index: int) -> int:
        return (iteration * len(SEED_PURPOSES) + purpose_index) * self.slot_capacity_bits

    def _check_length(self, length_bits: int) -> None:
        if length_bits > self.slot_capacity_bits:
            raise ValueError(
                f"requested {length_bits} seed bits but each slot only holds "
                f"{self.slot_capacity_bits}; increase slot_capacity_bits"
            )

    def seed_for(self, iteration: int, purpose: str, length_bits: int) -> int:
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        self._check_length(length_bits)
        purpose_index = self._purpose_index(purpose)
        key = (iteration, purpose, length_bits)
        if key not in self._cache:
            offset = self._slot_offset(iteration, purpose_index)
            self._cache[key] = self._generator.packed_bits(offset, length_bits)
            self.derivations += 1
        return self._cache[key]

    def seeds_for_iteration(self, iteration: int, layout: SeedLayout) -> Tuple[Optional[int], ...]:
        if iteration < 0:
            raise ValueError("iteration must be non-negative")
        batch_key = (iteration, layout)
        cached = self._batch_cache.get(batch_key)
        if cached is not None:
            return cached
        slots: List[Tuple[int, int]] = []
        occupied: List[Tuple[int, int]] = []  # (purpose_index, length) of non-empty slots
        for purpose_index, length in enumerate(layout.lengths):
            if not length:
                continue
            self._check_length(length)
            slots.append((self._slot_offset(iteration, purpose_index), length))
            occupied.append((purpose_index, length))
        values = self._generator.packed_slots(slots)
        self.derivations += len(occupied)
        seeds: List[Optional[int]] = [None] * len(SEED_PURPOSES)
        for (purpose_index, length), value in zip(occupied, values):
            seeds[purpose_index] = value
            self._cache[(iteration, SEED_PURPOSES[purpose_index], length)] = value
        result = tuple(seeds)
        self._batch_cache[batch_key] = result
        return result


@dataclass
class CrsSeedSource(SlotAddressedSeedSource):
    """Seeds carved out of a δ-biased string derived from a common random string.

    ``master_seed`` models the CRS; both endpoints of a link construct the
    source with the same master seed and the same canonical link, so they
    derive the identical per-link generator seed (a SHA-256 digest of the
    CRS and the link label) and therefore expand the identical δ-biased
    string.  The adversary never gets access to the object, which models
    obliviousness to the CRS.

    Expansion and slot addressing are exactly those of
    :class:`ExchangedSeedSource` (the unified contract): one
    :meth:`~repro.hashing.small_bias.SmallBiasGenerator.packed_slots` pass
    per iteration.  Because both directions of a link derive the same string,
    the engine shares a single instance per undirected edge.
    """

    master_seed: int
    link: Tuple[int, int]
    field_degree: int = 64
    slot_capacity_bits: int = 4096
    #: Cache-miss slot derivations performed by this source (``repro.obs``).
    derivations: int = 0
    _generator: SmallBiasGenerator = field(init=False)
    _cache: Dict[Tuple[int, str, int], int] = field(default_factory=dict)
    _batch_cache: Dict[Tuple[int, SeedLayout], Tuple[Optional[int], ...]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        label = f"crs|{self.master_seed}|{self.link}|link-seed".encode("utf-8")
        digest = hashlib.sha256(label).digest()
        link_seed = int.from_bytes(digest, "little") & ((1 << (2 * self.field_degree)) - 1)
        self._generator = SmallBiasGenerator(
            seed_bits=link_seed,
            field_degree=self.field_degree,
        )


@dataclass
class ExchangedSeedSource(SlotAddressedSeedSource):
    """Seeds carved out of a δ-biased string expanded from a short link seed.

    ``link_seed`` is the (decoded) short seed this endpoint holds after the
    randomness exchange; if the exchange was corrupted the two endpoints hold
    different seeds and their hash comparisons will keep failing, which is the
    behaviour Section 5 accounts for.

    ``slot_capacity_bits`` is the fixed budget of δ-biased bits reserved per
    (iteration, purpose) slot; the same deterministic layout is used by both
    endpoints, so no coordination is needed.

    The batched path reads all of an iteration's slots in one sequential pass
    over the δ-biased string (:meth:`SmallBiasGenerator.packed_slots`) —
    identical bits to per-slot reads because the slot offsets are the same
    deterministic function of (iteration, purpose) on both paths.
    """

    link_seed: int
    field_degree: int = 64
    slot_capacity_bits: int = 4096
    #: Cache-miss slot derivations performed by this source (``repro.obs``).
    derivations: int = 0
    _generator: SmallBiasGenerator = field(init=False)
    _cache: Dict[Tuple[int, str, int], int] = field(default_factory=dict)
    _batch_cache: Dict[Tuple[int, SeedLayout], Tuple[Optional[int], ...]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self._generator = SmallBiasGenerator(
            seed_bits=self.link_seed,
            field_degree=self.field_degree,
        )

    def share_generator_with(self, other: "ExchangedSeedSource") -> None:
        """Share the expansion machinery (and derived slots) with a sibling.

        The two endpoints of a link whose randomness exchange succeeded hold
        the same ``link_seed`` and therefore expand the same δ-biased string;
        sharing the generator lets them share the lazily-built stream cache,
        and sharing the slot caches means each (iteration, purpose) slot is
        expanded once per link instead of once per endpoint.  Only valid for
        equal seeds (the derived values are identical by construction, so
        aliasing the caches is observationally invisible).
        """
        if (other.link_seed, other.field_degree) != (self.link_seed, self.field_degree):
            raise ValueError("generator sharing requires identical link seeds and field degrees")
        if other.slot_capacity_bits != self.slot_capacity_bits:
            raise ValueError("generator sharing requires identical slot layouts")
        self._generator = other._generator
        self._cache = other._cache
        self._batch_cache = other._batch_cache
