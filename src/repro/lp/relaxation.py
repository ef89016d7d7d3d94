"""Helpers built on the rational relaxation (§3.2-3.3).

The relaxed solution serves two purposes in the paper:

1. its objective value upper-bounds the exact optimum, which we expose as
   :func:`relaxed_upper_bound` for evaluation normalization;
2. its fractional placement matrix ``e`` is the probability table used by
   the randomized-rounding heuristics; :func:`placement_probabilities`
   normalizes it defensively and applies the RRNZ epsilon floor.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import ProblemInstance
from .solver import LpSolution, solve_relaxation

__all__ = ["relaxed_upper_bound", "placement_probabilities"]


def relaxed_upper_bound(instance: ProblemInstance,
                        time_limit: float | None = None) -> float:
    """Upper bound on the maximum minimum yield, from the rational LP."""
    return solve_relaxation(instance, time_limit=time_limit).min_yield


def placement_probabilities(solution: LpSolution, epsilon: float = 0.0
                            ) -> np.ndarray:
    """Per-service placement probability table from a relaxed solution.

    Row *j* is the fractional ``e_j·`` renormalized to sum to one.  With
    ``epsilon > 0`` every zero entry is first raised to ``epsilon`` (the
    RRNZ fix for services whose fractional support turns out infeasible,
    §3.3.2; the paper uses ``epsilon = 0.01``).

    Forbidden placements (requirements that cannot fit, fixed to zero in
    the formulation) keep probability zero even under RRNZ — placing there
    can never succeed.
    """
    e = np.asarray(solution.e, dtype=np.float64).copy()
    e = np.clip(e, 0.0, None)
    if epsilon > 0.0:
        e[e == 0.0] = epsilon
    # Never propose placements that cannot satisfy rigid requirements.
    e[solution.forbidden] = 0.0
    totals = e.sum(axis=1, keepdims=True)
    # A row can be all-zero only if *no* node fits the service's
    # requirements; leave it zero and let the rounding algorithm fail fast.
    np.divide(e, totals, out=e, where=totals > 0)
    return e
