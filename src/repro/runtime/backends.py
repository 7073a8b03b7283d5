"""Execution backends: where trials actually run.

``ExecutionBackend`` is the single seam between "what to run" (a list of
:class:`~repro.runtime.spec.TrialSpec`) and "how to run it".  Two
implementations ship today:

* :class:`SerialBackend` — the reference implementation; runs every trial in
  the calling process, in order.
* :class:`ProcessPoolBackend` — fans the trials out over a
  :class:`concurrent.futures.ProcessPoolExecutor` in contiguous chunks.

Determinism contract: every trial carries its own fully-derived seed inside
its spec and builds a fresh adversary from that seed, so a trial's result is
a pure function of its spec.  The pool backend therefore returns results that
are **bit-identical** to the serial backend — parallelism only changes *where*
a trial runs, never *what* it computes.  (``tests/test_runtime.py`` asserts
this equality directly.)

Pickling contract: the pool backend ships specs to worker processes with
pickle, so workloads, schemes and adversary factories must be module-level
importables or dataclasses — no lambdas or closures
(:mod:`repro.experiments.factories` provides picklable factory classes).
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunMetrics
from repro.core.engine import simulate
from repro.obs import FlightRecorder, get_obs, use_obs
from repro.runtime.spec import TrialSpec


def execute_trial(spec: TrialSpec) -> RunMetrics:
    """Run one trial: build a fresh adversary from the trial seed and simulate."""
    obs = get_obs()
    recorder = obs.recorder
    if recorder is not None:
        recorder.begin_trial(seed=spec.seed, scheme=spec.scheme.name)
    tracer = obs.tracer
    if tracer is not None:
        # ``trial()`` applies the tracer's sampling policy: an unsampled trial
        # suppresses its own span and every engine span opened under it.
        with tracer.trial(seed=spec.seed, scheme=spec.scheme.name) as span:
            adversary = spec.adversary_factory(spec.seed)
            result = simulate(
                spec.workload.protocol,
                scheme=spec.scheme,
                adversary=adversary,
                seed=spec.seed,
            )
            if span is not None:
                span.set(success=result.success, iterations=result.iterations_run)
    else:
        adversary = spec.adversary_factory(spec.seed)
        result = simulate(
            spec.workload.protocol,
            scheme=spec.scheme,
            adversary=adversary,
            seed=spec.seed,
        )
    if recorder is not None:
        metrics = result.metrics
        recorder.finish_trial(
            success=result.success,
            iterations_run=metrics.iterations_run,
            iterations_budget=metrics.iterations_budget,
            noise_fraction=metrics.noise_fraction,
            corruptions=metrics.corruptions,
            tolerance=spec.scheme.nominal_noise_fraction(spec.workload.protocol.graph),
            rewinds_sent=metrics.rewinds_sent,
            hash_mismatches_detected=metrics.hash_mismatches_detected,
            hash_collisions_observed=metrics.hash_collisions_observed,
        )
    return result.metrics


def _execute_chunk(
    specs: Sequence[TrialSpec],
    forensics_capacity: Optional[int] = None,
) -> Tuple[List[RunMetrics], List[Dict[str, Any]]]:
    """Worker entry point: run a contiguous chunk of trials (module-level so
    it is picklable under every multiprocessing start method).

    Worker processes never inherit the parent's ambient obs context, so when
    the parent had a flight recorder installed it passes the ring capacity
    instead: the chunk runs under a fresh local recorder and the JSON-pure
    dumps ride home with the metrics (mirroring the distributed worker's
    ``forensics`` result-frame field)."""
    if forensics_capacity is None:
        return [execute_trial(spec) for spec in specs], []
    recorder = FlightRecorder(capacity=forensics_capacity)
    with use_obs(recorder=recorder):
        metrics = [execute_trial(spec) for spec in specs]
    return metrics, recorder.drain()


class ExecutionBackend(ABC):
    """Strategy object that turns trial specs into run metrics, in order."""

    #: Short human-readable backend name for logs and stored runs.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Trials actually executed (cache hits never reach the backend).
        self.trials_executed = 0

    @abstractmethod
    def run(self, specs: Sequence[TrialSpec]) -> List[RunMetrics]:
        """Execute every spec and return metrics in the same order."""


class SerialBackend(ExecutionBackend):
    """Run every trial in the calling process (the reference semantics)."""

    name = "serial"

    def run(self, specs: Sequence[TrialSpec]) -> List[RunMetrics]:
        specs = list(specs)
        self.trials_executed += len(specs)
        return [execute_trial(spec) for spec in specs]


class ProcessPoolBackend(ExecutionBackend):
    """Fan trials out over worker processes in contiguous chunks.

    ``max_workers=None`` lets :class:`ProcessPoolExecutor` pick (the CPU
    count).  ``chunk_size=None`` targets roughly four chunks per worker, which
    amortises task submission without starving the pool on skewed workloads.
    Single-trial batches skip the pool entirely — spinning up processes for
    one simulation is pure overhead.

    The executor is created lazily on the first multi-trial batch and reused
    across ``run()`` calls — experiments like Table 1 call ``run_trials`` once
    per cell, and paying pool startup per cell would eat the speedup.  Call
    :meth:`close` (or use the backend as a context manager) to release the
    workers early; otherwise they are reaped at interpreter exit.

    Observability caveat: worker *processes* do not inherit the ambient
    :mod:`repro.obs` context, so trials executed in the pool run without
    spans or engine counter flushes.  The serial and distributed backends
    observe everything; use one of those when tracing.  The flight recorder
    is the exception: when one is ambient, each chunk runs under a fresh
    worker-local recorder and its dumps ride back with the results (see
    :func:`_execute_chunk`), so ``--forensics --jobs N`` records exactly
    what a serial run would.
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None, chunk_size: Optional[int] = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be a positive integer")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer")
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self._executor: Optional[ProcessPoolExecutor] = None

    def _chunks(self, specs: List[TrialSpec]) -> List[List[TrialSpec]]:
        workers = self.max_workers or os.cpu_count() or 1
        size = self.chunk_size or max(1, math.ceil(len(specs) / (workers * 4)))
        return [specs[start : start + size] for start in range(0, len(specs), size)]

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later run() restarts it)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, specs: Sequence[TrialSpec]) -> List[RunMetrics]:
        specs = list(specs)
        self.trials_executed += len(specs)
        if len(specs) <= 1:
            return [execute_trial(spec) for spec in specs]
        recorder = get_obs().recorder
        task = (
            _execute_chunk
            if recorder is None
            else partial(_execute_chunk, forensics_capacity=recorder.capacity)
        )
        chunk_results = list(self._pool().map(task, self._chunks(specs)))
        results: List[RunMetrics] = []
        for chunk_metrics, dumps in chunk_results:
            results.extend(chunk_metrics)
            if recorder is not None:
                recorder.adopt(dumps)
        return results
