"""Placement heuristics (§3): rounding, greedy, vector packing, META*."""

from .base import NamedAlgorithm, PlacementAlgorithm
from .exact import milp_exact
from .greedy import (
    NODE_PICKERS,
    SERVICE_SORTS,
    all_greedy_algorithms,
    greedy_algorithm,
    metagreedy,
)
from .random_placement import random_placement
from .rounding import rrnd, rrnz
from .vector_packing import (
    META_STRATEGY_FAMILIES,
    MetaSolver,
    VPStrategy,
    hvp_light_strategies,
    hvp_strategies,
    metahvp,
    metahvp_light,
    metavp,
    named_meta_solver,
    vp_strategies,
)
from .yield_search import DEFAULT_TOLERANCE, binary_search_max_yield

__all__ = [
    "DEFAULT_TOLERANCE",
    "META_STRATEGY_FAMILIES",
    "MetaSolver",
    "NODE_PICKERS",
    "NamedAlgorithm",
    "PlacementAlgorithm",
    "SERVICE_SORTS",
    "VPStrategy",
    "all_greedy_algorithms",
    "binary_search_max_yield",
    "greedy_algorithm",
    "hvp_light_strategies",
    "hvp_strategies",
    "metagreedy",
    "metahvp",
    "metahvp_light",
    "metavp",
    "milp_exact",
    "named_meta_solver",
    "random_placement",
    "rrnd",
    "rrnz",
    "vp_strategies",
]
