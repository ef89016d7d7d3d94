"""The randomized-rounding probability table (§3.3).

The relaxed solution's fractional placement matrix ``e`` is the
probability table used by the randomized-rounding heuristics;
:func:`placement_probabilities` normalizes it defensively and applies
the RRNZ epsilon floor.
"""

from __future__ import annotations

import numpy as np

from .solver import LpSolution

__all__ = ["placement_probabilities"]


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
