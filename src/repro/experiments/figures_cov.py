"""The CoV figure family: Figures 2-4 and 8-34.

Each figure fixes (hosts, services, memory slack) and sweeps the platform
coefficient of variation; each point is one instance's minimum-yield
difference from METAHVP for one competitor algorithm, with per-CoV
averages overlaid.  Figures 3 and 4 pin CPU (resp. memory) capacities at
the median.  Points below zero mean METAHVP was beaten on that instance.

Declared as a grid :class:`~.spec.ExperimentSpec` via
:func:`cov_figure_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping

import numpy as np

from ..workloads import DEFAULT_WORKLOAD, ScenarioConfig, parse_workload
from .report import format_table, write_csv
from .runner import TaskResult
from .spec import ExperimentSpec, grid_experiment

__all__ = ["CovFigureSpec", "CovFigureData", "format_cov_figure",
           "cov_figure_experiment", "DEFAULT_COV_COMPETITORS"]

DEFAULT_COV_COMPETITORS = ("RRNZ", "METAGREEDY", "METAVP")
BASELINE = "METAHVP"


@dataclass(frozen=True)
class CovFigureSpec:
    """One figure of the family.

    The paper's headline instance (Figure 2) is 64 hosts, 500 services,
    slack 0.3; Figures 8-34 vary services ∈ {100, 250, 500} and slack
    0.1-0.9.
    """

    hosts: int = 64
    services: int = 500
    slack: float = 0.3
    cov_values: tuple[float, ...] = tuple(
        round(0.025 * i, 6) for i in range(37))  # 0 .. 0.9
    instances: int = 10
    cpu_homogeneous: bool = False
    mem_homogeneous: bool = False
    competitors: tuple[str, ...] = DEFAULT_COV_COMPETITORS
    seed: int = 2012
    workload: str = DEFAULT_WORKLOAD

    def configs(self):
        model = parse_workload(self.workload)
        for cov in self.cov_values:
            for idx in range(self.instances):
                yield ScenarioConfig(
                    hosts=self.hosts, services=self.services, cov=cov,
                    slack=self.slack, seed=self.seed, instance_index=idx,
                    cpu_homogeneous=self.cpu_homogeneous,
                    mem_homogeneous=self.mem_homogeneous, model=model)


@dataclass(frozen=True)
class CovFigureData:
    """Scatter points and per-CoV averages, per competitor algorithm."""

    spec: CovFigureSpec
    # algorithm -> list of (cov, yield difference from METAHVP); instances
    # where either algorithm failed are omitted (as in the paper's plots).
    points: Mapping[str, tuple[tuple[float, float], ...]]
    # algorithm -> {cov: average difference}
    averages: Mapping[str, Mapping[float, float]]

    def to_csv(self, path: str) -> None:
        rows = []
        for algo, pts in self.points.items():
            for cov, diff in pts:
                rows.append((algo, cov, diff))
        write_csv(path, ("algorithm", "cov", "yield_diff_vs_metahvp"), rows)


def _reduce_cov(spec: CovFigureSpec,
                stream: Iterator[TaskResult]) -> CovFigureData:
    points: dict[str, list[tuple[float, float]]] = {
        a: [] for a in spec.competitors}
    for task in stream:
        by_algo = task.by_algorithm()
        base = by_algo[BASELINE].min_yield
        if base is None:
            continue
        for a in spec.competitors:
            y = by_algo[a].min_yield
            if y is None:
                continue
            points[a].append((task.config.cov, y - base))
    averages: dict[str, dict[float, float]] = {}
    for a, pts in points.items():
        byc: dict[float, list[float]] = {}
        for cov, diff in pts:
            byc.setdefault(cov, []).append(diff)
        averages[a] = {cov: float(np.mean(v)) for cov, v in sorted(byc.items())}
    return CovFigureData(
        spec,
        {a: tuple(pts) for a, pts in points.items()},
        averages,
    )


def cov_figure_experiment(spec: CovFigureSpec) -> ExperimentSpec:
    """Declare one CoV figure as a shardable experiment spec."""
    return grid_experiment("fig-cov", spec.configs,
                           tuple(spec.competitors) + (BASELINE,),
                           partial(_reduce_cov, spec), format_cov_figure)


def format_cov_figure(data: CovFigureData) -> str:
    """Text rendering: the per-CoV average series (the figure's avg lines)."""
    spec = data.spec
    variant = ""
    if spec.cpu_homogeneous:
        variant = ", CPU held homogeneous"
    elif spec.mem_homogeneous:
        variant = ", memory held homogeneous"
    title = (f"Min-yield difference vs {BASELINE} — {spec.hosts} hosts, "
             f"{spec.services} services, slack {spec.slack}{variant}")
    covs = sorted({cov for avg in data.averages.values() for cov in avg})
    headers = ["cov"] + [f"{a} (avg)" for a in data.spec.competitors]
    rows = []
    for cov in covs:
        row: list[object] = [f"{cov:.3f}"]
        for a in data.spec.competitors:
            v = data.averages.get(a, {}).get(cov)
            row.append("-" if v is None else f"{v:+.4f}")
        rows.append(row)
    text = format_table(headers, rows, title=title)
    populated = {a: avg for a, avg in data.averages.items() if avg}
    if populated:
        from .ascii_plot import line_chart
        text += "\n\n" + line_chart(populated, x_label="cov",
                                    title="(average series, charted)")
    return text
