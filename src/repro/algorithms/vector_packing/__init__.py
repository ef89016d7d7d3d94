"""Vector-packing heuristics (§3.5): FF/BF/PP/CP, sorts, and META* combinators."""

from .batch_solve import (
    FusedProbeEngine,
    StrategyTable,
    make_engine,
    solve_many,
)
from .best_fit import best_fit
from .first_fit import first_fit
from .meta import (
    META_STRATEGY_FAMILIES,
    MetaSolver,
    meta_algorithm,
    metahvp,
    metahvp_light,
    metavp,
    named_meta_solver,
)
from .permutation_pack import permutation_pack, rank_from_order
from .probe_engine import FastProbeContext, MetaProbeEngine, YieldProbeFactory
from .sorting import ALL_SORTS, NONE_SORT, SortStrategy, metric_values, order_indices
from .state import PackingState
from .strategies import (
    BF,
    CP,
    FF,
    PP,
    ProbeContext,
    VPStrategy,
    execute_strategy,
    hvp_light_strategies,
    hvp_strategies,
    run_strategy,
    vp_strategies,
)

__all__ = [
    "ALL_SORTS",
    "BF",
    "CP",
    "FF",
    "META_STRATEGY_FAMILIES",
    "FastProbeContext",
    "FusedProbeEngine",
    "MetaProbeEngine",
    "MetaSolver",
    "NONE_SORT",
    "PP",
    "PackingState",
    "ProbeContext",
    "SortStrategy",
    "StrategyTable",
    "VPStrategy",
    "YieldProbeFactory",
    "best_fit",
    "execute_strategy",
    "first_fit",
    "hvp_light_strategies",
    "hvp_strategies",
    "make_engine",
    "meta_algorithm",
    "metahvp",
    "metahvp_light",
    "metavp",
    "metric_values",
    "named_meta_solver",
    "order_indices",
    "permutation_pack",
    "rank_from_order",
    "run_strategy",
    "solve_many",
    "vp_strategies",
]
