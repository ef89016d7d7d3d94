"""Best-Fit vector packing (§3.5.1, §3.5.4).

The homogeneous variant considers bins "in descending order of the sum of
their loads across all dimensions": the fullest fitting bin wins (classic
best fit).  The heterogeneous variant is "modified to consider total
remaining capacity rather than total load": the fitting bin with the least
total remaining capacity wins.  On homogeneous platforms the two orders
coincide; on heterogeneous ones only the remaining-capacity version
meaningfully identifies the tightest bin.

Best-Fit imposes its own (dynamic) bin order, so it takes no bin-sort
strategy — this is why METAHVP counts ``11 + 2*11*11`` strategies, with
Best-Fit contributing only the 11 item sorts.

The per-item scoring loop dispatches to the active kernel backend, and
every backend runs the same loop (:mod:`repro.kernels.packers`);
``load_sum`` is maintained incrementally, so scores cost O(H) per item
instead of a fresh (H, D) reduction.  The accumulation order differs
from the legacy reduction, so scores can drift by an ULP; an exact
cross-bin score tie could then break toward a different (equally loaded)
bin.  Engine equivalence is asserted on certified yields, which absorbs
this.
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_backend
from .state import PackingState

__all__ = ["best_fit"]


def best_fit(state: PackingState, item_order: np.ndarray,
             by_remaining_capacity: bool) -> bool:
    """Pack all items; returns True on success.

    ``by_remaining_capacity=False`` reproduces the homogeneous-VP rule
    (max total load first); ``True`` the heterogeneous rule (min total
    remaining capacity first).
    """
    return get_backend().best_fit(state, item_order, by_remaining_capacity)
