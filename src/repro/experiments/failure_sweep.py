"""Failure sweep: yield, churn cost and SLA compliance under node churn.

The scenario-frontier experiment: one dynamic-hosting simulation per
(node failure rate × SLA mix × instance) cell, with a Markov up/down
platform model (:func:`repro.dynamic.failures.generate_platform_events`)
driving evictions and forced migrations, and per-service SLA classes
setting differentiated minimum-yield floors.  Reported per cell,
averaged over instances:

* average minimum yield across placed services;
* voluntary migrations (re-pack epochs) vs *forced* migrations
  (failure evictions that were re-placed);
* displaced service-steps (evicted and waiting for capacity);
* SLA-violation service-steps, split by class.

Everything derives from ``derive_seed`` off the spec seed, so the sweep
is deterministic end to end and shardable like every other experiment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from ..util.rng import derive_seed
from ..workloads import DEFAULT_WORKLOAD, generate_platform, parse_workload
from .persistence import PayloadRecords
from .report import format_table
from .spec import ExperimentSpec

CHECKPOINT_KIND = "failure-sweep"

__all__ = ["SLA_MIXES", "FailureSweepSpec", "failure_sweep_experiment",
           "format_failure_sweep"]

#: Named SLA-class mixes swept by the experiment (weights are relative).
SLA_MIXES: Mapping[str, Mapping[str, float]] = {
    "best-effort": {"best-effort": 1.0},
    "mixed": {"gold": 0.2, "silver": 0.3, "best-effort": 0.5},
    "strict": {"gold": 0.5, "silver": 0.5},
}


@dataclass(frozen=True)
class FailureSweepSpec:
    """One failure-rate × SLA-mix sweep over the dynamic simulator."""

    hosts: int = 12
    horizon: int = 40
    arrival_rate: float = 2.0
    lifetime: float = 10.0
    failure_rates: tuple[float, ...] = (0.0, 0.02, 0.05)
    recovery_rate: float = 0.5
    sla_mixes: tuple[str, ...] = ("best-effort", "mixed")
    reallocation_period: int = 4
    instances: int = 3
    cov: float = 0.5
    cpu_need_scale: float = 0.05
    seed: int = 2012
    #: Workload-model id; part of the checkpoint fingerprint.
    workload: str = DEFAULT_WORKLOAD

    def __post_init__(self) -> None:
        unknown = [m for m in self.sla_mixes if m not in SLA_MIXES]
        if unknown:
            raise ValueError(
                f"unknown SLA mixes {unknown}; choose from "
                f"{sorted(SLA_MIXES)}")


@dataclass(frozen=True)
class _CellTask:
    spec: FailureSweepSpec
    failure_rate: float
    mix: str
    instance_index: int
    index: int  # flat position in the spec's task order


def _run_cell(task: _CellTask) -> dict:
    """One simulation cell; module-level so worker pools can pickle it."""
    from ..algorithms import metahvp_light
    from ..dynamic import (
        DynamicSimulator,
        generate_platform_events,
        generate_trace,
    )
    spec = task.spec
    base = spec.seed
    idx = task.instance_index
    # derive_seed paths are integer coordinates; use the cell's grid
    # position (stable: part of the fingerprint via the spec fields).
    mix_idx = spec.sla_mixes.index(task.mix)
    rate_idx = spec.failure_rates.index(task.failure_rate)
    platform = generate_platform(
        hosts=spec.hosts, cov=spec.cov,
        rng=derive_seed(base, 1, idx))
    trace = generate_trace(
        horizon=spec.horizon,
        mean_arrivals_per_step=spec.arrival_rate,
        mean_lifetime_steps=spec.lifetime,
        model=parse_workload(spec.workload),
        rng=derive_seed(base, 2, mix_idx, idx),
        initial_services=spec.hosts,
        sla_mix=SLA_MIXES[task.mix])
    failures = None
    if task.failure_rate > 0:
        failures = generate_platform_events(
            horizon=spec.horizon, n_nodes=spec.hosts,
            failure_rate=task.failure_rate,
            recovery_rate=spec.recovery_rate,
            rng=derive_seed(base, 3, rate_idx, idx))
    sim = DynamicSimulator(
        platform, trace, placer=metahvp_light(),
        reallocation_period=spec.reallocation_period,
        cpu_need_scale=spec.cpu_need_scale,
        rng=derive_seed(base, 4, rate_idx, mix_idx, idx),
        failures=failures)
    result = sim.run()
    return {
        "failure_rate": task.failure_rate,
        "mix": task.mix,
        "avg_min_yield": result.average_min_yield,
        "avg_pending": result.average_pending,
        "migrations": result.total_migrations,
        "forced_migrations": result.total_forced_migrations,
        "displaced_steps": result.displaced_service_steps,
        "sla_violations": dict(result.sla_violations),
        "failed_node_steps": sum(s.failed_nodes for s in result.steps),
    }


def _spec_fingerprint(spec: FailureSweepSpec) -> str:
    fields = dataclasses.asdict(spec)
    fields.pop("instances")  # payloads are per-instance; growing reuses
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def _reduce(spec: FailureSweepSpec, payloads) -> dict:
    """Average every cell's payloads over its instances, in sweep order."""
    cells: dict[tuple[float, str], list[dict]] = {}
    for p in payloads:
        cells.setdefault((p["failure_rate"], p["mix"]), []).append(p)
    rows = []
    for rate in spec.failure_rates:
        for mix in spec.sla_mixes:
            group = cells.get((rate, mix), [])
            if not group:
                continue
            viol: dict[str, float] = {}
            for p in group:
                for name, count in p["sla_violations"].items():
                    viol[name] = viol.get(name, 0.0) + count
            rows.append({
                "failure_rate": rate,
                "mix": mix,
                "avg_min_yield": float(np.mean(
                    [p["avg_min_yield"] for p in group])),
                "avg_pending": float(np.mean(
                    [p["avg_pending"] for p in group])),
                "migrations": float(np.mean(
                    [p["migrations"] for p in group])),
                "forced_migrations": float(np.mean(
                    [p["forced_migrations"] for p in group])),
                "displaced_steps": float(np.mean(
                    [p["displaced_steps"] for p in group])),
                "failed_node_steps": float(np.mean(
                    [p["failed_node_steps"] for p in group])),
                "sla_violations": {name: total / len(group)
                                   for name, total in sorted(viol.items())},
            })
    return {"spec": spec, "rows": rows}


def format_failure_sweep(data: dict) -> str:
    spec: FailureSweepSpec = data["spec"]
    table_rows = []
    for row in data["rows"]:
        viol = row["sla_violations"]
        viol_text = ", ".join(f"{name}={count:.1f}"
                              for name, count in viol.items()
                              if count > 0) or "none"
        table_rows.append((
            f"{row['failure_rate']:g}",
            row["mix"],
            f"{row['avg_min_yield']:.3f}",
            f"{row['migrations']:.1f}",
            f"{row['forced_migrations']:.1f}",
            f"{row['displaced_steps']:.1f}",
            viol_text,
        ))
    return format_table(
        ("failure rate", "SLA mix", "avg min yield", "migrations",
         "forced", "displaced steps", "SLA violations"),
        table_rows,
        title=(f"Failure sweep on {spec.hosts} hosts, horizon "
               f"{spec.horizon}, re-pack period "
               f"{spec.reallocation_period}, recovery rate "
               f"{spec.recovery_rate:g} ({spec.instances} instances)"))


def failure_sweep_experiment(spec: FailureSweepSpec) -> ExperimentSpec:
    """Declare the failure sweep as a shardable experiment spec."""
    cells = []
    index = 0
    for rate in spec.failure_rates:
        for mix in spec.sla_mixes:
            for idx in range(spec.instances):
                cells.append(_CellTask(spec, rate, mix, idx, index))
                index += 1
    fingerprint = _spec_fingerprint(spec)
    return ExperimentSpec(
        name="failure-sweep",
        tasks=lambda: cells,
        key=lambda task: [fingerprint, task.index],
        worker=_run_cell,
        codec=PayloadRecords(CHECKPOINT_KIND),
        reduce=partial(_reduce, spec),
        formatter=format_failure_sweep,
    )
