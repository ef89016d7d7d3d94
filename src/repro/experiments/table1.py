"""Table 1: pairwise algorithm comparisons ``(Y_{A,B}, S_{A,B})`` (§5).

For each service count, every ordered algorithm pair is compared on the
full (CoV × slack × instance) grid: the average percent minimum-yield gain
on commonly-solved instances, and the success-rate difference in
percentage points.  The paper's Table 1 covers RRND, RRNZ, METAGREEDY,
METAVP and METAHVP; §5.1's METAHVP-vs-METAHVPLIGHT numbers come from the
same machinery with ``--include-light``.

The experiment is declared as a grid :class:`~.spec.ExperimentSpec`
(:func:`table1_experiment`): the grid's configs are the task list, the
reducer streams yields per service count, and :func:`format_table1`
renders the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Mapping, Sequence

from .config import GridSpec
from .metrics import (
    PairwiseComparison,
    average_yield,
    pairwise_comparison,
    success_rate,
)
from .report import format_matrix, format_table
from .runner import TaskResult
from .spec import ExperimentSpec, grid_experiment

__all__ = ["Table1Data", "format_table1", "table1_experiment",
           "DEFAULT_TABLE1_ALGORITHMS"]

DEFAULT_TABLE1_ALGORITHMS = ("RRND", "RRNZ", "METAGREEDY", "METAVP",
                             "METAHVP")


@dataclass(frozen=True)
class Table1Data:
    """Pairwise matrices and per-algorithm summaries, per service count."""

    algorithms: tuple[str, ...]
    matrices: Mapping[int, Mapping[tuple[str, str], PairwiseComparison]]
    success_rates: Mapping[int, Mapping[str, float]]
    average_yields: Mapping[int, Mapping[str, float]]
    instance_counts: Mapping[int, int]


def _reduce_table1(algorithms: tuple[str, ...],
                   stream: Iterator[TaskResult]) -> Table1Data:
    """Fold the in-order result stream into the Table-1 matrices.

    Only per-algorithm yield columns are retained (grouped by service
    count as they arrive), not the TaskResults themselves.
    """
    yields_by_j: dict[int, dict[str, list[float | None]]] = {}
    counts: dict[int, int] = {}
    for task in stream:
        J = task.config.services
        yields = yields_by_j.setdefault(
            J, {a: [] for a in algorithms})
        counts[J] = counts.get(J, 0) + 1
        by_algo = task.by_algorithm()
        for a in algorithms:
            yields[a].append(by_algo[a].min_yield)
    rates = {J: {a: success_rate(y[a]) for a in algorithms}
             for J, y in yields_by_j.items()}
    avgs = {J: {a: average_yield(y[a]) for a in algorithms}
            for J, y in yields_by_j.items()}
    matrices = {
        J: {(a, b): pairwise_comparison(y[a], y[b])
            for a in algorithms for b in algorithms if a != b}
        for J, y in yields_by_j.items()
    }
    return Table1Data(algorithms, matrices, rates, avgs, counts)


def table1_experiment(grid: GridSpec,
                      algorithms: Sequence[str] = DEFAULT_TABLE1_ALGORITHMS
                      ) -> ExperimentSpec:
    """Declare Table 1 over *grid* as a shardable experiment spec."""
    algorithms = tuple(algorithms)
    return grid_experiment("table1", grid.configs, algorithms,
                           partial(_reduce_table1, algorithms),
                           format_table1)


def format_table1(data: Table1Data) -> str:
    """Render the paper-style matrices plus a summary block."""
    sections = []
    for J, matrix in sorted(data.matrices.items()):
        cells = {
            (a, b): f"({cmp.yield_gain_pct:+.1f}%, {cmp.success_gain_pct:+.1f}%)"
            for (a, b), cmp in matrix.items()
        }
        sections.append(format_matrix(
            data.algorithms, data.algorithms, cells,
            title=f"{J} services — (Y_A,B %, S_A,B pp) over "
                  f"{data.instance_counts[J]} instances"))
        summary_rows = [
            (a,
             f"{data.success_rates[J][a] * 100:.1f}%",
             f"{data.average_yields[J][a]:.3f}")
            for a in data.algorithms
        ]
        sections.append(format_table(
            ("algorithm", "success", "avg min yield"), summary_rows))
    return "\n\n".join(sections)
