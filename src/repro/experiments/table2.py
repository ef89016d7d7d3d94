"""Table 2: algorithm run times (§5).

Mean wall-clock seconds per algorithm and service count, averaged over the
same instance grid as Table 1.  Absolute numbers differ from the paper's
(Python vs the authors' native implementation on a 2.27 GHz Xeon); the
reproduced claims are the *relative* ordering — RRNZ ≫ METAHVP > METAVP ≫
METAGREEDY — and the ≈3× METAHVP/METAVP ratio.  §5.1's ≈10× METAHVPLIGHT
speed-up is not reproduced: at 64 hosts and 100-500 services LIGHT is
2.6-2.9× faster than METAHVP (see :func:`~repro.algorithms.metahvp_light`).

Declared as a grid :class:`~.spec.ExperimentSpec` with ``warm_chain=False``:
Table 2 reports *standalone* run times, so a solve must not be
accelerated by a sibling algorithm's answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping, Sequence

import numpy as np

from .config import GridSpec
from .report import format_table
from .runner import TaskResult
from .spec import ExperimentSpec, grid_experiment

__all__ = ["Table2Data", "format_table2", "table2_experiment",
           "DEFAULT_TABLE2_ALGORITHMS"]

DEFAULT_TABLE2_ALGORITHMS = ("RRNZ", "METAGREEDY", "METAVP", "METAHVP")


@dataclass(frozen=True)
class Table2Data:
    algorithms: tuple[str, ...]
    mean_seconds: Mapping[int, Mapping[str, float]]  # J -> algo -> seconds
    instance_counts: Mapping[int, int]


def _reduce_table2(algorithms: tuple[str, ...],
                   stream: Iterator[TaskResult]) -> Table2Data:
    per_j: dict[int, dict[str, list[float]]] = {}
    counts: dict[int, int] = {}
    for task in stream:
        J = task.config.services
        per_algo = per_j.setdefault(J, {a: [] for a in algorithms})
        counts[J] = counts.get(J, 0) + 1
        for r in task.results:
            per_algo[r.algorithm].append(r.seconds)
    means = {J: {a: float(np.mean(v)) for a, v in per_algo.items()}
             for J, per_algo in per_j.items()}
    return Table2Data(algorithms, means, counts)


def table2_experiment(grid: GridSpec,
                      algorithms: Sequence[str] = DEFAULT_TABLE2_ALGORITHMS
                      ) -> ExperimentSpec:
    """Declare Table 2 over *grid* as a shardable experiment spec."""
    algorithms = tuple(algorithms)
    return grid_experiment("table2", grid.configs, algorithms,
                           partial(_reduce_table2, algorithms),
                           format_table2, warm_chain=False)


def format_table2(data: Table2Data) -> str:
    js = sorted(data.mean_seconds)
    headers = ["Algorithm"] + [f"{j} tasks" for j in js]
    rows = []
    for a in data.algorithms:
        rows.append([a] + [f"{data.mean_seconds[j][a]:.3f}" for j in js])
    return format_table(
        headers, rows,
        title="Mean run time in seconds, averaged over all instances")
