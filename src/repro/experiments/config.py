"""Experiment grid presets.

``PAPER_GRID`` mirrors §4: 64 hosts; 100/250/500 services; CoV 0-1 in
0.025 steps; slack 0.1-0.9 in 0.1 steps; 100 instances per scenario
(12,300 base instances, 36,900 scaled per service count).  That grid costs
CPU-days in pure Python, so ``QUICK_GRID`` (the default for benches and
the CLI) keeps the same structure at a laptop-friendly size; pass
``--paper`` to the CLI for the full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


from ..workloads import DEFAULT_WORKLOAD, ScenarioConfig, parse_workload

__all__ = ["GridSpec", "PAPER_GRID", "QUICK_GRID", "SMOKE_GRID"]


def _float_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    n = int(round((stop - start) / step)) + 1
    return tuple(round(start + i * step, 6) for i in range(n))


@dataclass(frozen=True)
class GridSpec:
    """A full evaluation grid (the cross product of all fields)."""

    hosts: int = 64
    services: tuple[int, ...] = (100, 250, 500)
    cov_values: tuple[float, ...] = _float_range(0.0, 1.0, 0.025)
    slack_values: tuple[float, ...] = _float_range(0.1, 0.9, 0.1)
    instances: int = 100
    seed: int = 2012  # IPDPS year; any fixed value works
    #: Workload-model id (``registry.parse_workload`` syntax); every
    #: config in the grid carries the resolved model.
    workload: str = DEFAULT_WORKLOAD

    def configs(self, services: int | None = None) -> Iterator[ScenarioConfig]:
        """All scenario configs, optionally restricted to one service count."""
        model = parse_workload(self.workload)
        service_list = (self.services if services is None else (services,))
        for J in service_list:
            for cov in self.cov_values:
                for slack in self.slack_values:
                    for idx in range(self.instances):
                        yield ScenarioConfig(
                            hosts=self.hosts, services=J, cov=cov,
                            slack=slack, seed=self.seed, instance_index=idx,
                            model=model)


PAPER_GRID = GridSpec()

#: Laptop-scale default: same structure, ~3 orders of magnitude fewer cells.
QUICK_GRID = GridSpec(
    hosts=16,
    services=(30, 60),
    cov_values=(0.0, 0.25, 0.5, 0.75, 1.0),
    slack_values=(0.3, 0.5, 0.7),
    instances=4,
)

#: Minimal grid for tests and CI smoke runs.
SMOKE_GRID = GridSpec(
    hosts=8,
    services=(16,),
    cov_values=(0.0, 0.5),
    slack_values=(0.5,),
    instances=2,
)
