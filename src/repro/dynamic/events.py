"""Workload event streams for the dynamic hosting simulation.

The paper's conclusion sketches the next step: deploy METAHVPLIGHT plus
the §6 error mitigation "as part of the resource management component of
an open cloud computing infrastructure" and evaluate it against live
workloads.  This package builds that evaluation substrate as a
discrete-time simulation: services arrive, run for a while (with true
CPU needs the scheduler never sees exactly), and depart; the platform
re-allocates periodically.

This module generates the event streams: Poisson-ish arrivals with
geometric lifetimes, service descriptors drawn from the same
Google-trace-like model as the static experiments, and (optionally) a
per-service SLA class drawn from a weighted mix (see
:mod:`repro.core.sla`).

Per-step queries (``active_indices``/``arrivals_at``/``departures_at``)
are answered from an index precomputed at construction — the old
implementation rescanned the full event list on every call, O(E·H) over
a simulation run.  The precomputed answers are identical: one entry per
event, in event order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.service import ServiceArray
from ..core.sla import draw_sla_classes
from ..util.rng import as_generator
from ..workloads.google_model import DEFAULT_MODEL

__all__ = ["ServiceEvent", "WorkloadTrace", "generate_trace"]


@dataclass(frozen=True)
class ServiceEvent:
    """One service's lifecycle: arrives at ``arrival``, departs at
    ``departure`` (exclusive).  ``descriptor_index`` points into the
    trace's service array."""

    arrival: int
    departure: int
    descriptor_index: int

    def active_at(self, t: int) -> bool:
        return self.arrival <= t < self.departure


@dataclass(frozen=True)
class WorkloadTrace:
    """A complete dynamic workload: descriptors plus lifecycle events.

    ``sla``, when present, names each descriptor's service class
    (``"gold"``/``"silver"``/``"best-effort"``); ``None`` means the
    whole trace is best-effort.
    """

    services: ServiceArray
    events: tuple[ServiceEvent, ...]
    horizon: int
    sla: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.sla is not None and len(self.sla) != len(self.services):
            raise ValueError(
                f"got {len(self.sla)} SLA classes for "
                f"{len(self.services)} services")
        # Per-step index: one bucket of descriptor indices per step, in
        # event order (identical to a per-call scan of ``events``), plus
        # exact arrival/departure counts keyed by raw timestamps.
        buckets: list[list[int]] = [[] for _ in range(self.horizon)]
        for e in self.events:
            for t in range(max(e.arrival, 0), min(e.departure, self.horizon)):
                buckets[t].append(e.descriptor_index)
        active = []
        for b in buckets:
            arr = np.array(b, dtype=np.int64)
            arr.setflags(write=False)
            active.append(arr)
        object.__setattr__(self, "_active_by_step", tuple(active))
        object.__setattr__(self, "_arrival_counts",
                           Counter(e.arrival for e in self.events))
        object.__setattr__(self, "_departure_counts",
                           Counter(e.departure for e in self.events))

    def active_indices(self, t: int) -> np.ndarray:
        """Descriptor indices of services active at time *t*."""
        if 0 <= t < self.horizon:
            return self._active_by_step[t]  # type: ignore[attr-defined]
        return np.array([e.descriptor_index for e in self.events
                         if e.active_at(t)], dtype=np.int64)

    def arrivals_at(self, t: int) -> int:
        return self._arrival_counts.get(t, 0)  # type: ignore[attr-defined]

    def departures_at(self, t: int) -> int:
        return self._departure_counts.get(t, 0)  # type: ignore[attr-defined]


def generate_trace(horizon: int,
                   mean_arrivals_per_step: float,
                   mean_lifetime_steps: float,
                   model: object = DEFAULT_MODEL,
                   rng: np.random.Generator | int | None = None,
                   initial_services: int = 0,
                   sla_mix: Mapping[str, float] | None = None) -> WorkloadTrace:
    """Generate a dynamic workload trace.

    Parameters
    ----------
    horizon:
        Number of simulation steps.
    mean_arrivals_per_step:
        Poisson arrival rate.
    mean_lifetime_steps:
        Geometric mean lifetime; departures beyond the horizon are
        clamped to it (services still running at the end).
    model:
        The workload model that draws the service descriptors: any
        registered model (:func:`repro.workloads.parse_workload`).
    initial_services:
        Services already present at t = 0.
    sla_mix:
        Optional weighted SLA-class mix (e.g. ``{"gold": 1, "silver": 2,
        "best-effort": 7}``); when given, each service draws a class.
        Omitting it leaves the trace unannotated *and* consumes no
        randomness, so pre-existing traces are reproduced bit-exactly.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if mean_lifetime_steps <= 0:
        raise ValueError("mean lifetime must be positive")
    rng = as_generator(rng)
    events: list[ServiceEvent] = []
    arrivals: list[int] = [0] * initial_services
    for t in range(horizon):
        arrivals.extend([t] * int(rng.poisson(mean_arrivals_per_step)))
    count = len(arrivals)
    if count == 0:
        raise ValueError("trace generated no services; raise the rates")
    # Geometric lifetimes with the requested mean (p = 1/mean).
    lifetimes = rng.geometric(min(1.0, 1.0 / mean_lifetime_steps), size=count)
    services = model.generate_services(count, rng=rng)
    for i, (t0, life) in enumerate(zip(arrivals, lifetimes)):
        events.append(ServiceEvent(
            arrival=t0,
            departure=min(horizon, t0 + int(life)),
            descriptor_index=i,
        ))
    sla = (draw_sla_classes(count, sla_mix, rng)
           if sla_mix is not None else None)
    return WorkloadTrace(services=services, events=tuple(events),
                         horizon=horizon, sla=sla)
