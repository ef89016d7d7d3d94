"""Unified observability: tracing, metrics, and trace reports.

Three stdlib-only pillars shared by the solver, the experiment runner,
and the allocation daemon:

* :mod:`repro.obs.trace` — structured spans emitted as JSONL.  Enable
  with ``repro --obs-log FILE ...`` or ``REPRO_OBS=FILE``; disabled by
  default with a zero-allocation fast path (``obs.span`` returns a
  shared no-op, hot paths guard tag construction behind
  ``obs.enabled()``).
* :mod:`repro.obs.metrics` — thread-safe counters / gauges /
  histograms with a Prometheus text renderer; backs the daemon's
  ``GET /metrics``.
* :mod:`repro.obs.report` — offline ``repro obs report TRACE.jsonl``
  summarising where a run spent its time.

Typical instrumentation::

    from repro import obs

    with obs.span("yield.search") as sp:
        result = solve(...)
        if obs.enabled():
            sp.annotate(probes=stats["probes"])

This package deliberately imports nothing from the rest of
:mod:`repro`, so any layer (``util``, ``algorithms``, ``service``) can
depend on it without cycles.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import (
    ENV_VAR,
    Span,
    configure,
    current_trace_id,
    disable,
    enabled,
    event,
    new_trace_id,
    span,
    timed_span,
    trace_context,
)

__all__ = [
    "ENV_VAR",
    "Span",
    "configure",
    "current_trace_id",
    "disable",
    "enabled",
    "event",
    "new_trace_id",
    "span",
    "timed_span",
    "trace_context",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]
