"""Wall-clock timing for the run-time experiments (Table 2).

:func:`timed_call` is a thin wrapper over :func:`repro.obs.timed_span`,
so Table 2 timings and ``--obs-log`` traces share one clock path
(``time.perf_counter`` reads inside the span).  With tracing disabled the
span measures without emitting; with tracing enabled every call also
lands in the trace as a ``timed.call`` span.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .. import obs

__all__ = ["timed_call"]

T = TypeVar("T")


def timed_call(fn: Callable[..., T], *args, **kwargs) -> tuple[T, float]:
    """Invoke *fn* and return ``(result, elapsed_seconds)``."""
    span = obs.timed_span("timed.call")
    with span:
        result = fn(*args, **kwargs)
    return result, span.duration
