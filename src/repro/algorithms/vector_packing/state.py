"""Mutable packing state shared by all vector-packing heuristics.

One :class:`PackingState` represents a single feasibility question: "place
these J items (service demands at a fixed yield) into these H bins (nodes)".
Per the HPC guides, the state keeps everything in flat numpy arrays and
performs fit checks as vectorized comparisons:

* the **elementary** fit test does not depend on current loads, so the full
  ``(J, H)`` boolean table is precomputed once per yield probe (or handed in
  by :class:`~.probe_engine.YieldProbeFactory`, which derives it from its
  per-instance yield-threshold table instead of re-broadcasting
  ``(J, H, D)`` on every probe);
* the **aggregate** test is ``loads[h] + demand[j] <= capacity[h]``, checked
  against the single mutable ``loads`` array.

Feasibility comparisons use the same relative + absolute tolerance as
allocation validation (``FEASIBILITY_RTOL``/``FEASIBILITY_ATOL`` from
:mod:`repro.core.resources`), so the packers and the validator agree at the
feasibility boundary.
"""

from __future__ import annotations

import numpy as np

from ...core.instance import ProblemInstance
from ...core.resources import FEASIBILITY_ATOL, FEASIBILITY_RTOL

__all__ = ["PackingState", "capacity_tolerance", "waste_limit",
           "WASTE_MARGIN_RTOL"]

#: Relative margin of :func:`waste_limit`, on the sum of the capacity and
#: demand totals.  The float error of those totals, of the bins' loads
#: and of the running waste is a few ulps per item and bin, far below
#: this for any instance with fewer than ~10**6 items and bins.
WASTE_MARGIN_RTOL = 1e-9


def capacity_tolerance(capacity: np.ndarray) -> np.ndarray:
    """Allowed overshoot per capacity entry.

    Identical to the slack :meth:`repro.core.allocation.Allocation.validate`
    grants, so a placement a packer accepts is never rejected by the
    validator (and vice versa at the boundary).
    """
    return FEASIBILITY_RTOL * np.maximum(capacity, 1.0) + FEASIBILITY_ATOL


def waste_limit(cap_tol_total: np.ndarray,
                demand_total: np.ndarray) -> np.ndarray:
    """Per-dimension capacity an instance can spare: the total fit bound
    ``cap_tol_total`` (bins' ``loads`` may reach it) minus the total
    ``demand_total`` of the items, plus :data:`WASTE_MARGIN_RTOL` of
    their sum for float rounding.

    A fill that packs every item leaves exactly this much unused over all
    bins, so a bin-major fill whose closed bins already leave more cannot
    pack (the fused probe's waste cut, see
    :func:`repro.kernels._loops.probe_scan`).  The fused probe's kernel
    computes the limit itself (:func:`repro.kernels._loops.probe_inputs`);
    this is the reference the tests diff it against.
    """
    return (cap_tol_total - demand_total
            + WASTE_MARGIN_RTOL * (cap_tol_total + demand_total))


class PackingState:
    """Bin-packing scratch state for one (instance, yield) feasibility probe."""

    __slots__ = (
        "instance", "item_elem", "item_agg", "bin_elem", "bin_agg",
        "elem_tol", "agg_tol", "bin_cap_tol", "item_agg_sum", "bin_agg_sum",
        "loads", "load_sum", "assignment", "elem_ok", "unplaced_count",
        "_item_dim_perm", "_item_agg_rows", "_elem_ok_rows",
    )

    def __init__(self, instance: ProblemInstance, y: float,
                 elem_ok: np.ndarray | None = None):
        sv, nd = instance.services, instance.nodes
        self.instance = instance
        self.item_elem = sv.req_elem + y * sv.need_elem   # (J, D)
        self.item_agg = sv.req_agg + y * sv.need_agg      # (J, D)
        self.bin_elem = nd.elementary                      # (H, D) read-only
        self.bin_agg = nd.aggregate                        # (H, D) read-only
        self.elem_tol = capacity_tolerance(self.bin_elem)  # (H, D)
        self.agg_tol = capacity_tolerance(self.bin_agg)    # (H, D)
        self.bin_cap_tol = self.bin_agg + self.agg_tol     # (H, D)
        # Row sums feed Best-Fit's O(1)-update scores.
        self.item_agg_sum = self.item_agg.sum(axis=1)      # (J,)
        self.bin_agg_sum = self.bin_agg.sum(axis=1)        # (H,)
        self.loads = np.zeros_like(nd.aggregate)           # (H, D) mutable
        self.load_sum = np.zeros(self.bin_agg.shape[0])    # (H,) mutable
        J = len(sv)
        self.assignment = np.full(J, -1, dtype=np.int64)
        self.unplaced_count = J
        # Static elementary feasibility: item j may go on bin h only if its
        # elementary demand fits a single element in every dimension.
        if elem_ok is None:
            elem_ok = (
                self.item_elem[:, None, :]
                <= (self.bin_elem + self.elem_tol)[None, :, :]
            ).all(axis=2)                                  # (J, H)
        self.elem_ok = elem_ok
        self._item_dim_perm = None
        self._item_agg_rows = None
        self._elem_ok_rows = None

    def reset(self) -> None:
        """Clear loads and assignments so another strategy can reuse the
        (expensive) precomputed demand arrays and elementary-fit table."""
        self.loads[:] = 0.0
        self.load_sum[:] = 0.0
        self.assignment[:] = -1
        self.unplaced_count = self.assignment.shape[0]

    # ------------------------------------------------------------------
    @property
    def num_items(self) -> int:
        return self.assignment.shape[0]

    @property
    def num_bins(self) -> int:
        return self.bin_agg.shape[0]

    @property
    def complete(self) -> bool:
        return self.unplaced_count == 0

    @property
    def item_dim_perm(self) -> np.ndarray:
        """``(J, D)`` stable descending argsort of each item's aggregate
        demand.  Fixed for the probe's lifetime (``item_agg`` never
        changes), so Permutation-Pack computes it once instead of per
        placement; survives :meth:`reset`."""
        if self._item_dim_perm is None:
            self._item_dim_perm = np.argsort(
                -self.item_agg, axis=1, kind="stable")
        return self._item_dim_perm

    @property
    def item_agg_rows(self) -> list:
        """``item_agg`` as nested Python lists, for the 2-D scalar fast
        paths of the packers.  Fixed per probe; survives :meth:`reset` and
        is shared by every strategy run on this state."""
        if self._item_agg_rows is None:
            self._item_agg_rows = self.item_agg.tolist()
        return self._item_agg_rows

    @property
    def elem_ok_rows(self) -> list:
        """``elem_ok`` as nested Python lists (same caching rationale)."""
        if self._elem_ok_rows is None:
            self._elem_ok_rows = self.elem_ok.tolist()
        return self._elem_ok_rows

    def trivially_infeasible(self) -> bool:
        """True when some item fits no bin even in isolation."""
        if not self.elem_ok.any(axis=1).all():
            return True
        agg_ok = (
            self.item_agg[:, None, :]
            <= (self.bin_agg + self.agg_tol)[None, :, :]
        ).all(axis=2)
        return not (self.elem_ok & agg_ok).any(axis=1).all()

    # ------------------------------------------------------------------
    def bins_fitting_item(self, j: int) -> np.ndarray:
        """Boolean mask over bins that can accept item *j* right now."""
        agg_ok = (self.loads + self.item_agg[j]
                  <= self.bin_cap_tol).all(axis=1)
        return self.elem_ok[j] & agg_ok

    def items_fitting_bin(self, h: int, candidates: np.ndarray) -> np.ndarray:
        """Boolean mask over *candidates* (item indices) that fit bin *h* now."""
        remaining = self.bin_cap_tol[h] - self.loads[h]
        agg_ok = (self.item_agg[candidates] <= remaining).all(axis=1)
        return self.elem_ok[candidates, h] & agg_ok

    def place(self, j: int, h: int) -> None:
        self.loads[h] += self.item_agg[j]
        self.load_sum[h] += self.item_agg_sum[j]
        self.assignment[j] = h
        self.unplaced_count -= 1

    def place_many(self, items: np.ndarray, h: int) -> None:
        """Place several items on bin *h* in one update (First-Fit's
        per-bin batch)."""
        self.loads[h] += self.item_agg[items].sum(axis=0)
        self.load_sum[h] += self.item_agg_sum[items].sum()
        self.assignment[items] = h
        self.unplaced_count -= int(len(items))

    def commit_bin(self, items, h: int, new_load) -> None:
        """Batch-commit a whole bin fill with an exactly-known final load.

        The 2-D packer fast paths accumulate the bin's load in Python
        floats (same sequential order as repeated :meth:`place` calls) and
        hand the result back here, avoiding per-item array updates.
        """
        idx = np.asarray(items, dtype=np.int64)
        self.assignment[idx] = h
        self.unplaced_count -= int(idx.size)
        self.loads[h] = new_load
        self.load_sum[h] = sum(new_load)

    def unplaced_items(self) -> np.ndarray:
        return np.flatnonzero(self.assignment < 0)

    def result(self) -> np.ndarray | None:
        """Final placement array, or ``None`` if any item is unplaced."""
        return self.assignment.copy() if self.complete else None
