"""Experiment drivers that regenerate every table and figure (§5-6)."""

from .analysis import (
    MeanCI,
    bootstrap_mean_ci,
    paired_difference_ci,
    win_loss_tie,
)
from .ascii_plot import line_chart
from .config import PAPER_GRID, QUICK_GRID, SMOKE_GRID, GridSpec
from .figures_cov import (
    CovFigureData,
    CovFigureSpec,
    cov_figure_experiment,
    format_cov_figure,
)
from .figures_error import (
    ErrorFigureData,
    ErrorFigureSpec,
    error_figure_experiment,
    format_error_figure,
)
from .metrics import (
    PairwiseComparison,
    average_yield,
    pairwise_comparison,
    success_rate,
)
from .persistence import (
    CheckpointStore,
    load_results,
    merge_checkpoints,
    scenario_key,
    task_key,
)
from .report import format_matrix, format_table, write_csv
from .runner import (
    ALGORITHM_FACTORIES,
    AlgorithmResult,
    TaskResult,
    iter_grid,
    make_algorithms,
    run_grid,
)
from .spec import (
    ExperimentSpec,
    IncompleteResultsError,
    Shard,
    shard_index,
)
from .table1 import Table1Data, format_table1, table1_experiment
from .table2 import Table2Data, format_table2, table2_experiment

__all__ = [
    "ALGORITHM_FACTORIES",
    "AlgorithmResult",
    "CheckpointStore",
    "CovFigureData",
    "CovFigureSpec",
    "ErrorFigureData",
    "ErrorFigureSpec",
    "ExperimentSpec",
    "GridSpec",
    "IncompleteResultsError",
    "MeanCI",
    "PAPER_GRID",
    "PairwiseComparison",
    "QUICK_GRID",
    "SMOKE_GRID",
    "Shard",
    "Table1Data",
    "Table2Data",
    "TaskResult",
    "average_yield",
    "bootstrap_mean_ci",
    "cov_figure_experiment",
    "error_figure_experiment",
    "format_cov_figure",
    "format_error_figure",
    "format_matrix",
    "format_table",
    "format_table1",
    "format_table2",
    "iter_grid",
    "line_chart",
    "load_results",
    "make_algorithms",
    "merge_checkpoints",
    "paired_difference_ci",
    "pairwise_comparison",
    "run_grid",
    "scenario_key",
    "shard_index",
    "success_rate",
    "table1_experiment",
    "table2_experiment",
    "task_key",
    "win_loss_tie",
    "write_csv",
]
