"""First-Fit vector packing (§3.5.1).

Items are considered in the given sort order; each goes to the first bin
(in the given bin order) that fits.  The homogeneous VP variant uses the
natural bin order; the heterogeneous variant receives bins pre-sorted by a
capacity metric.

Kernel: item-by-item First-Fit is equivalent to filling the bins one at a
time — an item lands on bin *h* iff it fits the load built by the earlier
items already on *h*, a decision independent of every other bin.  Filling
one bin greedily in item order is then a straight scan.  The scan
dispatches to the active kernel backend for any dimension count, and
every backend runs the same scalar loop (:mod:`repro.kernels.packers`);
backend choice never depends on D.  The seed per-item kernel survives in
:mod:`.legacy` as the equivalence baseline.
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_backend
from .state import PackingState

__all__ = ["first_fit"]


def first_fit(state: PackingState, item_order: np.ndarray,
              bin_order: np.ndarray) -> bool:
    """Pack all items; returns True on success.

    ``item_order`` and ``bin_order`` are index arrays (permutations).
    """
    return get_backend().first_fit(state, item_order, bin_order)
