"""The benchmark's workloads: fixed, seeded trial lists taken from the paper's experiments.

Each workload is a list of :class:`Trial` objects built from one workload seed
``S``.  A trial is one timed call for one seed of one cell, made exactly as the
experiment module makes it:

* coded cells (Algorithms A/B/C and the CRS scheme) call
  ``run_trials(workload, scheme, factory, seeds=[seed])`` under the ambient
  runtime (the worker installs the CLI defaults: ``SerialBackend`` and an
  empty in-memory ``ResultCache``), with the experiment's own seed schedule
  ``derive_trial_seed(S, t)``;
* the Table 1 baselines call ``run_uncoded`` / ``run_repetition`` with the
  Table 1 baseline schedule ``S + 1000·t + 31``.

Why these three workloads (each is dominated by a different layer):

``table1``
    The paper's headline table.  The adaptive composite adversaries of the
    B and C cells are stateful, so they take the per-slot ``corrupt_window``
    fallback and the lockstep transport path: the adversary layer dominates.
``sweep-clique-setup``
    The Theorem 1.1/1.2 noise sweep on a clique with m = 28 links and only
    6 phases.  Per-link setup (block coding of the exchanged seeds, the
    randomness exchange and the δ-biased bootstrap) is not amortised over a
    long protocol, so the setup layers dominate; the adversary runs its
    window-native kernel.
``rate-crs-long``
    The Theorem 1.1 constant-rate series with CRS schemes on long protocols.
    Coding and the randomness exchange never run; the iteration loop (engine,
    transcripts, meeting points, hashing, transport) dominates.  A change that
    only speeds up setup predicts no change here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List

import repro.baselines.repetition as repetition_module
import repro.baselines.uncoded as uncoded_module
import repro.experiments.harness as harness
from repro.analysis.metrics import RunMetrics
from repro.core.parameters import algorithm_a, algorithm_b, algorithm_c, crs_oblivious_scheme
from repro.experiments.factories import (
    BoundFractionFactory,
    NoiseOrNoiselessFactory,
    RandomNoiseFactory,
)
from repro.experiments.table1 import default_cells
from repro.experiments.workloads import gossip_workload
from repro.runtime import derive_trial_seed

from common import BLOCKS

EPSILON = 0.01

#: Trials per cell in one block.  Sized so one cold pass (one block) takes a
#: few seconds on a 2-core x86 box.
TRIALS_PER_CELL = {"table1": 12, "sweep-clique-setup": 6, "rate-crs-long": 8}


@dataclass(frozen=True)
class Trial:
    """One timed call: ``run()`` returns the trial's :class:`RunMetrics`."""

    cell: str
    #: The noise fraction the cell's adversary is configured for (the
    #: denominator of the adversary budget report).
    target_fraction: float
    run: Callable[[], RunMetrics]


def _coded_trial(workload, scheme, factory, seed: int) -> RunMetrics:
    # Looked up through the module at call time, so the traced run's wrapper
    # around run_trials is the one called.
    return harness.run_trials(workload, scheme, adversary_factory=factory, seeds=[seed]).runs[0]


def _baseline_trial(workload, make_adversary, fraction: float, seed: int, repetitions: int) -> RunMetrics:
    adversary = make_adversary(seed, fraction)
    if repetitions:
        outcome = repetition_module.run_repetition(
            workload.protocol, adversary=adversary, repetitions=repetitions
        )
    else:
        outcome = uncoded_module.run_uncoded(workload.protocol, adversary=adversary)
    return outcome.metrics


def _table1(seed: int, trials: range) -> List[Trial]:
    """``build_table1(base_seed=seed)`` with its default grid, one trial per call."""
    out: List[Trial] = []
    for topology in ("line", "star", "clique"):
        workload = gossip_workload(topology=topology, num_nodes=5, phases=12, seed=seed)
        m = workload.graph.num_edges
        for cell in default_cells(EPSILON):
            label = f"{topology}/{cell.scheme_label}"
            if cell.scheme is not None:
                fraction = cell.scheme.nominal_noise_fraction(workload.graph, epsilon=EPSILON)
                factory = BoundFractionFactory(cell.adversary_factory, fraction)
                for t in trials:
                    run = partial(_coded_trial, workload, cell.scheme, factory, derive_trial_seed(seed, t))
                    out.append(Trial(label, fraction, run))
                continue
            fraction = EPSILON / m
            repetitions = 3 if cell.scheme_label.startswith("repetition") else 0
            for t in trials:
                run = partial(
                    _baseline_trial, workload, cell.adversary_factory, fraction,
                    seed + 1000 * t + 31, repetitions,
                )
                out.append(Trial(label, fraction, run))
    return out


def _sweep(seed: int, trials: range) -> List[Trial]:
    """``noise_sweep`` for A and B on gossip clique n=8, 6 phases."""
    workload = gossip_workload(topology="clique", num_nodes=8, phases=6, seed=seed)
    out: List[Trial] = []
    for scheme in (algorithm_a(), algorithm_b()):
        nominal = scheme.nominal_noise_fraction(workload.graph, epsilon=EPSILON)
        for multiplier in (0.25, 1.0, 4.0, 16.0):
            fraction = nominal * multiplier
            factory = RandomNoiseFactory(fraction=fraction)
            for t in trials:
                run = partial(_coded_trial, workload, scheme, factory, derive_trial_seed(seed, t))
                out.append(Trial(f"{scheme.name}/x{multiplier:g}", fraction, run))
    return out


def _rate(seed: int, trials: range) -> List[Trial]:
    """``rate_vs_protocol_size(noisy=True)`` for the CRS scheme and C, clique n=5."""
    out: List[Trial] = []
    for scheme in (crs_oblivious_scheme(), algorithm_c()):
        for phases in (24, 48, 96):
            workload = gossip_workload(topology="clique", num_nodes=5, phases=phases, seed=seed)
            fraction = scheme.nominal_noise_fraction(workload.graph, epsilon=EPSILON)
            factory = NoiseOrNoiselessFactory(fraction=fraction)
            for t in trials:
                run = partial(_coded_trial, workload, scheme, factory, derive_trial_seed(seed, t))
                out.append(Trial(f"{scheme.name}/p{phases}", fraction, run))
    return out


_BUILDERS = {"table1": _table1, "sweep-clique-setup": _sweep, "rate-crs-long": _rate}


def build_trials(name: str, seed: int, block: int) -> List[Trial]:
    """Block ``block`` of workload ``name``'s trial list for workload seed ``seed``."""
    if not 0 <= block < BLOCKS:
        raise ValueError(f"block must lie in [0, {BLOCKS})")
    per_cell = TRIALS_PER_CELL[name]
    return _BUILDERS[name](seed, range(block * per_cell, (block + 1) * per_cell))
