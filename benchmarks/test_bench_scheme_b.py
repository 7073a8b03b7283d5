"""Experiments ``thm1_2`` and ``alg_c``: non-oblivious noise resilience.

Paper claims: Algorithm B (no CRS, Theorem 1.2) tolerates an ε/(m log m)
fraction of *non-oblivious* insertion/deletion noise; Algorithm C (with CRS,
Appendix B) tolerates ε/(m log log m).  Both keep a constant rate.

Shape we assert: against adaptive adversaries operating at each scheme's
nominal level, both algorithms succeed in every trial while the ε/m-budget
Algorithm-A configuration is also run for reference; and Algorithm B's chunk
scale / hash length are strictly larger than Algorithm A's (the mechanism the
paper uses to defeat adaptivity).
"""

from __future__ import annotations

import pytest

from repro.adversary.strategies import PhaseTargetedAdaptiveAdversary
from repro.core.parameters import algorithm_a, algorithm_b, algorithm_c
from repro.experiments.harness import run_trials
from repro.experiments.theorem_validation import scheme_comparison
from repro.experiments.workloads import gossip_workload


def test_scheme_comparison_under_their_nominal_noise(benchmark, run_once):
    rows = run_once(benchmark, scheme_comparison, topology="line", num_nodes=5, phases=10, trials=2)
    benchmark.extra_info["rows"] = rows
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["algorithm_a"]["success_rate"] == 1.0
    assert by_scheme["algorithm_b"]["success_rate"] == 1.0
    assert by_scheme["algorithm_c"]["success_rate"] == 1.0
    assert by_scheme["uncoded"]["success_rate"] < 1.0
    # nominal tolerances are ordered as in Table 1 (on very small networks
    # log m and log log m coincide, so the last comparison is non-strict)
    assert (
        by_scheme["algorithm_a"]["nominal_fraction"]
        > by_scheme["algorithm_c"]["nominal_fraction"]
        >= by_scheme["algorithm_b"]["nominal_fraction"]
    )


@pytest.mark.parametrize("scheme_factory", [algorithm_b, algorithm_c])
def test_adaptive_attack_on_control_traffic(benchmark, run_once, scheme_factory):
    workload = gossip_workload(topology="star", num_nodes=5, phases=20, seed=1)
    scheme = scheme_factory()
    fraction = scheme.nominal_noise_fraction(workload.graph, epsilon=0.01)

    def factory(seed: int):
        return PhaseTargetedAdaptiveAdversary(
            fraction=fraction, phases=("meeting_points", "flag_passing", "simulation"), seed=seed
        )

    trial_set = run_once(
        benchmark, run_trials, workload, scheme, adversary_factory=factory, trials=2, base_seed=3
    )
    benchmark.extra_info["aggregate"] = trial_set.aggregate.as_dict()
    assert trial_set.aggregate.success_rate == 1.0
    # The attack must actually land: a budget that rounds down to zero would
    # make the success assertion vacuous.
    assert all(run.corruptions >= 1 for run in trial_set.runs)


def test_scheme_b_uses_larger_scale_and_hashes(benchmark):
    graph = gossip_workload(topology="clique", num_nodes=6, phases=4).graph

    def measure():
        return algorithm_b().scale_k(graph), algorithm_b().hash_output_bits(graph)

    scale, hash_bits = benchmark(measure)
    assert scale > algorithm_a().scale_k(graph)
    assert hash_bits >= algorithm_a().hash_output_bits(graph)
