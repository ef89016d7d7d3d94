"""Platform churn: node failures, recoveries, and capacity changes.

The dynamic simulator's original platform never changed — nodes neither
failed nor degraded.  This module adds the churn side of the workload: a
seeded Markov up/down model per node (fail with probability
``failure_rate`` per step while up, recover with ``recovery_rate`` while
down) plus optional capacity-change events that rescale a live node's
elementary and aggregate capacity (a co-located tenant grabbing cores, a
throttled host, a partial repair).

Events compile into a :class:`PlatformSchedule` — per-step availability
masks and capacity scales the simulator consults before placing — so a
failure scenario is replayable: the same seed and rates produce the same
event stream, and a hand-written event list produces the same schedule
with no randomness at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from ..util.rng import as_generator

__all__ = [
    "NodeFailure",
    "NodeRecovery",
    "CapacityChange",
    "PlatformEvent",
    "PlatformSchedule",
    "generate_platform_events",
]


@dataclass(frozen=True)
class NodeFailure:
    """Node ``node`` goes down at the start of step ``time``: services
    placed on it are evicted and must be re-placed elsewhere."""

    time: int
    node: int


@dataclass(frozen=True)
class NodeRecovery:
    """Node ``node`` comes back at the start of step ``time`` (at its
    current capacity scale)."""

    time: int
    node: int


@dataclass(frozen=True)
class CapacityChange:
    """Node ``node``'s capacity becomes ``factor`` × its base capacity
    (elementary and aggregate alike) at the start of step ``time``.  The
    factor is absolute with respect to the base platform, not cumulative."""

    time: int
    node: int
    factor: float


PlatformEvent = Union[NodeFailure, NodeRecovery, CapacityChange]


@dataclass(frozen=True)
class PlatformSchedule:
    """Per-step platform state compiled from an event list.

    ``mask_at(t)`` is the ``(H,)`` availability mask and ``scale_at(t)``
    the ``(H,)`` capacity scale in effect *during* step ``t`` — events
    stamped ``time=t`` apply at the start of step ``t``.  All nodes
    start up at scale 1.
    """

    horizon: int
    n_nodes: int
    events: tuple[PlatformEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.n_nodes < 1:
            raise ValueError("schedule needs at least one node")
        avail = np.ones((self.horizon, self.n_nodes), dtype=bool)
        scale = np.ones((self.horizon, self.n_nodes), dtype=np.float64)
        by_step: dict[int, list[PlatformEvent]] = {}
        up = np.ones(self.n_nodes, dtype=bool)
        cur = np.ones(self.n_nodes, dtype=np.float64)
        for ev in sorted(self.events, key=lambda e: (e.time, e.node)):
            if not 0 <= ev.time < self.horizon:
                raise ValueError(f"event time {ev.time} outside horizon "
                                 f"[0, {self.horizon})")
            if not 0 <= ev.node < self.n_nodes:
                raise ValueError(f"event node {ev.node} outside platform "
                                 f"of {self.n_nodes} nodes")
            by_step.setdefault(ev.time, []).append(ev)
        for t in range(self.horizon):
            for ev in by_step.get(t, ()):
                if isinstance(ev, NodeFailure):
                    up[ev.node] = False
                elif isinstance(ev, NodeRecovery):
                    up[ev.node] = True
                else:
                    if ev.factor <= 0 or not np.isfinite(ev.factor):
                        raise ValueError(
                            f"capacity factor must be finite and positive, "
                            f"got {ev.factor}")
                    cur[ev.node] = ev.factor
            avail[t] = up
            scale[t] = cur
        avail.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "_avail", avail)
        object.__setattr__(self, "_scale", scale)

    def mask_at(self, t: int) -> np.ndarray:
        """``(H,)`` bool: which nodes are up during step *t*."""
        return self._avail[t]  # type: ignore[attr-defined]

    def scale_at(self, t: int) -> np.ndarray:
        """``(H,)`` float64 capacity scale during step *t*."""
        return self._scale[t]  # type: ignore[attr-defined]


def generate_platform_events(horizon: int,
                             n_nodes: int,
                             failure_rate: float,
                             recovery_rate: float = 0.5,
                             capacity_change_rate: float = 0.0,
                             capacity_factors: Sequence[float] = (0.5, 0.75, 1.0),
                             rng: np.random.Generator | int | None = None,
                             ) -> tuple[PlatformEvent, ...]:
    """Draw a Markov up/down churn stream for ``n_nodes`` nodes.

    Each step from 1 on (step 0 always sees the full platform, so the
    initial placement is well-posed): an up node fails with probability
    ``failure_rate``; a down node recovers with ``recovery_rate``; an up,
    non-failing node redraws its capacity factor from
    ``capacity_factors`` with probability ``capacity_change_rate``.
    Deterministic given the seed — the per-step draw layout is fixed.
    """
    if not 0.0 <= failure_rate <= 1.0:
        raise ValueError("failure_rate must be in [0, 1]")
    if not 0.0 <= recovery_rate <= 1.0:
        raise ValueError("recovery_rate must be in [0, 1]")
    if not 0.0 <= capacity_change_rate <= 1.0:
        raise ValueError("capacity_change_rate must be in [0, 1]")
    if capacity_change_rate > 0 and not capacity_factors:
        raise ValueError("capacity_factors must be non-empty")
    gen = as_generator(rng)
    factors = np.asarray(list(capacity_factors), dtype=np.float64)
    events: list[PlatformEvent] = []
    up = np.ones(n_nodes, dtype=bool)
    for t in range(1, horizon):
        u = gen.random(n_nodes)
        fail = up & (u < failure_rate)
        recover = ~up & (u < recovery_rate)
        if capacity_change_rate > 0:
            v = gen.random(n_nodes)
            change = up & ~fail & (v < capacity_change_rate)
            picks = gen.integers(0, len(factors), size=n_nodes)
        else:
            change = np.zeros(n_nodes, dtype=bool)
            picks = None
        for h in range(n_nodes):
            if fail[h]:
                events.append(NodeFailure(time=t, node=h))
                up[h] = False
            elif recover[h]:
                events.append(NodeRecovery(time=t, node=h))
                up[h] = True
            elif change[h] and picks is not None:
                events.append(CapacityChange(
                    time=t, node=h, factor=float(factors[picks[h]])))
    return tuple(events)
