"""The ambient runtime configuration.

Experiment code is layered: the CLI calls ``build_table1`` which calls
``run_trials`` which calls the backend.  Threading ``backend=``/``cache=``
arguments through every intermediate layer would churn every signature in
:mod:`repro.experiments`, so the runtime keeps one process-wide
:class:`RuntimeContext` instead.  ``run_trials`` (and anything else routing
through :func:`repro.runtime.execute_trials`) consults it whenever no explicit
backend/cache/store is passed; explicit arguments always win.

The default context is maximally conservative — serial execution, no cache,
no store — so importing the runtime never changes behaviour by itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.runtime.backends import ExecutionBackend, SerialBackend
from repro.runtime.cache import ResultCache
from repro.runtime.store import RunStore

#: Shared "argument not provided" sentinel: lets callers pass ``cache=None`` /
#: ``store=None`` to mean "explicitly disabled" as opposed to "use the ambient
#: context".  Imported by every layer that forwards these arguments, so the
#: sentinel compares identical across modules.
UNSET = object()
_UNSET = UNSET


@dataclass(frozen=True)
class RuntimeContext:
    """How trials execute when the caller does not say otherwise."""

    backend: ExecutionBackend
    cache: Optional[ResultCache] = None
    store: Optional[RunStore] = None


_active = RuntimeContext(backend=SerialBackend())


def get_runtime() -> RuntimeContext:
    """The currently active runtime context."""
    return _active


def set_default_runtime(
    backend: Optional[ExecutionBackend] = None,
    cache=_UNSET,
    store=_UNSET,
) -> RuntimeContext:
    """Replace fields of the process-wide default context.

    ``backend=None`` keeps the current backend; pass ``cache=None`` /
    ``store=None`` explicitly to clear those fields.
    """
    global _active
    updates = {}
    if backend is not None:
        updates["backend"] = backend
    if cache is not _UNSET:
        updates["cache"] = cache
    if store is not _UNSET:
        updates["store"] = store
    _active = replace(_active, **updates)
    return _active


@contextmanager
def use_runtime(
    backend: Optional[ExecutionBackend] = None,
    cache=_UNSET,
    store=_UNSET,
) -> Iterator[RuntimeContext]:
    """Temporarily override the runtime context (restored on exit)."""
    global _active
    previous = _active
    try:
        yield set_default_runtime(backend=backend, cache=cache, store=store)
    finally:
        _active = previous
