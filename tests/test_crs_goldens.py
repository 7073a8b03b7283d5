"""The 2.0.0 CRS break: version gates, stale-cache rejection and goldens.

The 2.0.0 release changed how CRS seeds are derived, so every CRS-scheme
transcript differs from the 1.x era.  This suite pins the three consequences:
the package major version and the cache/key schemas record the break,
pre-break cache entries are skipped rather than served, and golden values of
the post-break derivation make any further drift a conscious, version-gated
decision.
"""

from __future__ import annotations

from repro.core.engine import simulate
from repro.core.parameters import crs_oblivious_scheme
from repro.experiments.factories import RandomNoiseFactory
from repro.experiments.workloads import gossip_workload
from repro.runtime import ResultCache


def test_major_version_and_schemas_reflect_the_crs_break():
    import repro
    from repro.runtime.cache import CACHE_SCHEMA_VERSION
    from repro.runtime.spec import TRIAL_KEY_SCHEMA
    from repro.runtime.store import STORE_SCHEMA_VERSION

    assert repro.__version__.split(".")[0] == "2"
    assert CACHE_SCHEMA_VERSION == 2
    assert TRIAL_KEY_SCHEMA == 2
    # The run store is history, not reusable results: schema deliberately kept.
    assert STORE_SCHEMA_VERSION == 1


def test_pre_break_cache_entries_are_skipped_not_served(tmp_path):
    """A trials.jsonl written before the CRS break (schema 1) must never serve
    results: loading skips every pre-break line without raising, and compact
    sweeps them from disk."""
    import json

    path = tmp_path / "trials.jsonl"
    stale = {
        "schema": 1,
        "key": "f" * 64,
        "metrics": {"anything": "from the 1.x era"},
    }
    path.write_text(json.dumps(stale) + "\n")
    cache = ResultCache(tmp_path)
    assert len(cache) == 0
    outcome = cache.compact()
    assert outcome == {"kept": 0, "dropped_superseded": 0, "dropped_invalid": 1}
    assert path.read_text() == ""


# ---------------------------------------------------------------------------
# Golden fingerprints of the post-break CRS behaviour
# ---------------------------------------------------------------------------


class TestCrsGoldens:
    """Pinned values of the 2.0.0 CRS derivation.

    These are the *new* goldens after the documented break (CrsSeedSource
    expanding through SmallBiasGenerator.packed_slots with hasher-derived slot
    capacities).  They exist so any future change to CRS seed derivation is a
    conscious, version-gated decision — a drift here means another major
    version, not a bugfix.
    """

    def test_crs_seed_source_golden_values(self):
        from repro.hashing.seeds import CrsSeedSource

        source = CrsSeedSource(master_seed=2024, link=(0, 1))
        seeds = [
            source.seed_for(iteration, purpose, 128)
            for iteration in (0, 1)
            for purpose in ("mp_prefix", "mp_counter")
        ]
        assert [hex(value) for value in seeds] == [
            "0xc44727dcadd16e91f6e993981618ace7",
            "0x18d3dc56747c4b87268a4669f6dfa7f1",
            "0x6bad427d510ab6b774d01919bbcab1e1",
            "0x86160139d45b59057320912005c8ac54",
        ]

    def test_crs_trial_golden_metrics(self):
        """One noisy CRS trial (corruptions, rewinds, truncations and a full
        recovery), pinned end to end."""
        workload = gossip_workload("clique", 4, 4, seed=0)
        scheme = crs_oblivious_scheme()
        factory = RandomNoiseFactory(
            fraction=4 * scheme.nominal_noise_fraction(workload.protocol.graph)
        )
        result = simulate(workload.protocol, scheme=scheme, adversary=factory(2), seed=2)
        metrics = result.metrics.as_dict()
        assert metrics == {
            "scheme": "algorithm_crs",
            "success": True,
            "cc_protocol": 48,
            "cc_simulation": 5664,
            "overhead": 118.0,
            "rate": 0.00847457627118644,
            "noise_fraction": 0.008121468926553672,
            "corruptions": 46,
            "rewinds": 12,
            "truncations": 8,
            "iterations_run": 14,
            "hash_collisions": 0,
        }
