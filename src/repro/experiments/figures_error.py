"""The error figure family: Figures 5-7 and 35-66 (§6.2).

Each figure fixes (hosts, services, slack, CoV) and sweeps the maximum
CPU-need estimation error.  Eight series are reported, each averaged over
the instances where placement succeeded:

* ``ideal`` — the placer with perfect knowledge (error-independent);
* ``zero-knowledge`` — even spreading + EQUALWEIGHTS, no estimates at all;
* ``weight, min=t`` / ``equal, min=t`` for thresholds t ∈ {0, 0.1, 0.3} —
  the placer runs on *perturbed* estimates rounded up to threshold ``t``,
  then the node CPU is shared by ALLOCWEIGHTS (resp. EQUALWEIGHTS) and
  actual yields are measured against the true needs.

The optional ``caps`` series (ALLOCCAPS) reproduces §6.2's observation
that hard caps collapse once the error reaches ≈30% of the mean need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional

import numpy as np

from ..algorithms.base import NamedAlgorithm
from ..sharing import (
    apply_minimum_threshold,
    evaluate_actual_yields,
    perturb_cpu_needs,
    zero_knowledge_placement,
)
from ..util.rng import derive_seed
from ..workloads import (
    DEFAULT_WORKLOAD,
    ScenarioConfig,
    generate_instance,
    parse_workload,
)
from .persistence import PayloadRecords
from .report import format_table, write_csv
from .runner import ALGORITHM_FACTORIES
from .spec import ExperimentSpec, spec_fingerprint

CHECKPOINT_KIND = "error-figure"

__all__ = ["ErrorFigureSpec", "ErrorFigureData", "format_error_figure",
           "error_figure_experiment"]

DEFAULT_ERRORS = tuple(round(0.02 * i, 6) for i in range(16))  # 0 .. 0.30
DEFAULT_THRESHOLDS = (0.0, 0.1, 0.3)


@dataclass(frozen=True)
class ErrorFigureSpec:
    """One error-impact figure (headline: Figures 5-7 use slack 0.4,
    CoV 0.5 with 100/250/500 services)."""

    hosts: int = 64
    services: int = 100
    slack: float = 0.4
    cov: float = 0.5
    error_values: tuple[float, ...] = DEFAULT_ERRORS
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    instances: int = 10
    placer: str = "METAHVP"
    include_caps: bool = False
    seed: int = 2012
    #: Workload-model id; part of the checkpoint fingerprint (via
    #: ``asdict``), so payloads computed under one model can never answer
    #: a resume under another.
    workload: str = DEFAULT_WORKLOAD

    def base_config(self, idx: int) -> ScenarioConfig:
        return ScenarioConfig(hosts=self.hosts, services=self.services,
                              cov=self.cov, slack=self.slack,
                              seed=self.seed, instance_index=idx,
                              model=parse_workload(self.workload))


@dataclass(frozen=True)
class ErrorFigureData:
    spec: ErrorFigureSpec
    # series name -> {error value: average min actual yield}; instances
    # where placement failed are excluded from the average.
    series: Mapping[str, Mapping[float, float]]
    solved_instances: int

    def to_csv(self, path: str) -> None:
        rows = []
        for name, curve in self.series.items():
            for err, val in sorted(curve.items()):
                rows.append((name, err, val))
        write_csv(path, ("series", "max_error", "avg_min_yield"), rows)


@dataclass(frozen=True)
class _InstanceTask:
    spec: ErrorFigureSpec
    index: int


def _min_actual_yield(instance_true, placement, policy,
                      estimated_instance) -> float:
    yields = evaluate_actual_yields(
        instance_true, placement, policy,
        estimated_instance=estimated_instance)
    return float(yields.min())


def _run_instance(task: _InstanceTask) -> Optional[dict[str, dict[float, float]]]:
    """All series values for one base instance, or None if the
    perfect-knowledge placement already fails (instance dropped)."""
    spec = task.spec
    placer: NamedAlgorithm = ALGORITHM_FACTORIES[spec.placer]()
    instance = generate_instance(spec.base_config(task.index))
    solver = getattr(placer, "fn", placer)
    if not getattr(solver, "supports_hint", False):
        solver = None

    ideal_alloc = placer(instance)
    if ideal_alloc is None:
        return None
    out: dict[str, dict[float, float]] = {}

    # Error-independent series (constant lines in the figures).
    ideal = ideal_alloc.minimum_yield()
    zk_placement = zero_knowledge_placement(instance)
    zk = (None if zk_placement is None else
          _min_actual_yield(instance, zk_placement, "EQUALWEIGHTS", None))
    for err in spec.error_values:
        out.setdefault("ideal", {})[err] = ideal
        if zk is not None:
            out.setdefault("zero-knowledge", {})[err] = zk

    # Every perturbed solve below re-packs the *same* platform with mildly
    # rescaled needs, so each search is seeded with the best yield seen so
    # far for this instance (warm ≡ cold results, ~2-4× fewer probes; the
    # chain is per-task, so checkpoint resume is unaffected).
    hint = ideal
    for e_idx, err in enumerate(spec.error_values):
        rng = np.random.default_rng(
            derive_seed(spec.seed, task.index, 1000 + e_idx))
        noisy = perturb_cpu_needs(instance.services, err, rng=rng)
        for threshold in spec.thresholds:
            estimates = apply_minimum_threshold(noisy, threshold)
            est_instance = instance.replace_services(estimates)
            if solver is not None:
                stats: dict = {}
                alloc = solver.solve_with_hint(est_instance, hint=hint,
                                               stats=stats)
                certified = stats.get("certified")
                if certified is not None and certified > hint:
                    hint = certified
            else:
                alloc = placer(est_instance)
            if alloc is None:
                continue
            placement = alloc.placement
            label = f"min={threshold:.2f}"
            out.setdefault(f"weight, {label}", {})[err] = _min_actual_yield(
                instance, placement, "ALLOCWEIGHTS", est_instance)
            out.setdefault(f"equal, {label}", {})[err] = _min_actual_yield(
                instance, placement, "EQUALWEIGHTS", est_instance)
            if spec.include_caps:
                out.setdefault(f"caps, {label}", {})[err] = _min_actual_yield(
                    instance, placement, "ALLOCCAPS", est_instance)
    return out


def _encode_payload(out: Optional[dict[str, dict[float, float]]]):
    if out is None:
        return None  # dropped instance — recorded so resume skips it too
    return {"series": [[name, list(curve.items())]
                       for name, curve in out.items()]}


def _decode_payload(data) -> Optional[dict[str, dict[float, float]]]:
    if data is None:
        return None
    return {name: {float(err): val for err, val in pairs}
            for name, pairs in data["series"]}


def _reduce_error(spec: ErrorFigureSpec, payloads) -> ErrorFigureData:
    """Average each series point over the instances that produced it
    (``None`` payloads are dropped instances)."""
    per_instance = [p for p in payloads if p is not None]
    acc: dict[str, dict[float, list[float]]] = {}
    for result in per_instance:
        for name, curve in result.items():
            for err, val in curve.items():
                acc.setdefault(name, {}).setdefault(err, []).append(val)
    series = {
        name: {err: float(np.mean(vals)) for err, vals in sorted(curve.items())}
        for name, curve in acc.items()
    }
    return ErrorFigureData(spec, series, solved_instances=len(per_instance))


def error_figure_experiment(spec: ErrorFigureSpec) -> ExperimentSpec:
    """Declare one error figure as a shardable experiment spec."""
    fingerprint = spec_fingerprint(spec)
    return ExperimentSpec(
        name="fig-error",
        tasks=lambda: (_InstanceTask(spec, i) for i in range(spec.instances)),
        key=lambda task: [fingerprint, task.index],
        worker=_run_instance,
        codec=PayloadRecords(
            CHECKPOINT_KIND, encode=_encode_payload,
            decode=lambda key, payload: _decode_payload(payload)),
        reduce=partial(_reduce_error, spec),
        formatter=format_error_figure,
    )


def format_error_figure(data: ErrorFigureData, chart: bool = True) -> str:
    spec = data.spec
    title = (f"Min actual yield vs max error — {spec.hosts} hosts, "
             f"{spec.services} services, slack {spec.slack}, "
             f"cov {spec.cov} ({data.solved_instances} instances)")
    names = sorted(data.series)
    errors = sorted({e for curve in data.series.values() for e in curve})
    headers = ["max_error"] + names
    rows = []
    for err in errors:
        row: list[object] = [f"{err:.2f}"]
        for name in names:
            v = data.series[name].get(err)
            row.append("-" if v is None else f"{v:.4f}")
        rows.append(row)
    text = format_table(headers, rows, title=title)
    if chart and data.series:
        from .ascii_plot import line_chart
        text += "\n\n" + line_chart(data.series, x_label="max error",
                                    title="(same data, charted)")
    return text
