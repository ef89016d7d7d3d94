"""Allocations: placements plus per-service yields, with validation.

An :class:`Allocation` assigns every service to exactly one node and a yield
in [0, 1].  Validity (§2, Eqs. 5-6 of the MILP) means:

* **elementary**: for each service *j* on node *h* and dimension *d*:
  ``r^e_jd + y_j n^e_jd <= c^e_hd``;
* **aggregate**: for each node *h* and dimension *d*:
  ``Σ_{j on h} (r^a_jd + y_j n^a_jd) <= c^a_hd``.

The module also provides :func:`max_min_yield_on_node`, the closed-form
"maximize the minimum yield for a fixed placement on one node" computation
that underlies both the binary-search refinement step and the ALLOCCAPS /
ALLOCWEIGHTS runtime policies of §6.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, Sequence

import numpy as np

from .exceptions import InvalidAllocationError
from .instance import ProblemInstance
from .resources import FEASIBILITY_ATOL, FEASIBILITY_RTOL

__all__ = ["Allocation", "max_min_yield_on_node", "node_loads"]

UNPLACED = -1


def node_loads(instance: ProblemInstance, placement: np.ndarray,
               yields: np.ndarray) -> np.ndarray:
    """Aggregate load per node, shape ``(H, D)``.

    Services with placement ``UNPLACED`` contribute nothing.
    """
    sv = instance.services
    demands = sv.req_agg + yields[:, None] * sv.need_agg
    loads = np.zeros((instance.num_nodes, instance.dims))
    placed = placement >= 0
    # np.add.at accumulates duplicates correctly (fancy-index += would not).
    np.add.at(loads, placement[placed], demands[placed])
    return loads


def max_min_yield_on_node(cap_elem: np.ndarray, cap_agg: np.ndarray,
                          req_elem: np.ndarray, req_agg: np.ndarray,
                          need_elem: np.ndarray, need_agg: np.ndarray) -> float:
    """Largest uniform yield for the given services co-located on one node.

    Inputs are the node's ``(D,)`` capacity vectors and the ``(K, D)``
    requirement/need arrays of the K services placed there.  Returns the
    maximum *y* such that every elementary and aggregate constraint holds,
    clamped to [0, 1], or ``-1.0`` if even *y = 0* (requirements alone) is
    infeasible.

    At the max-min optimum all services share one uniform yield: granting
    the minimum-yield service more requires aggregate budget that must come
    from another service, which would then become the new minimum.  Hence
    the closed form: per-dimension aggregate headroom divided by aggregate
    need, intersected with each service's elementary headroom.
    """
    if req_elem.shape[0] == 0:
        return 1.0
    # Feasibility at y = 0.
    if (req_elem > cap_elem + FEASIBILITY_ATOL).any():
        return -1.0
    agg_req = req_agg.sum(axis=0)
    if (agg_req > cap_agg * (1 + FEASIBILITY_RTOL) + FEASIBILITY_ATOL).any():
        return -1.0

    y = 1.0
    # Elementary: r^e + y n^e <= c^e for every service and dimension.
    mask = need_elem > 0
    if mask.any():
        headroom = (cap_elem - req_elem)[mask] / need_elem[mask]
        y = min(y, headroom.min())
    # Aggregate: sum(r^a) + y sum(n^a) <= c^a per dimension.
    agg_need = need_agg.sum(axis=0)
    dmask = agg_need > 0
    if dmask.any():
        y = min(y, ((cap_agg - agg_req)[dmask] / agg_need[dmask]).min())
    return float(min(1.0, max(0.0, y)))


@dataclass
class Allocation:
    """A complete solution: node assignment and yield for every service."""

    instance: ProblemInstance
    placement: np.ndarray  # (J,) int64, node index or UNPLACED
    yields: np.ndarray     # (J,) float64 in [0, 1]

    def __post_init__(self) -> None:
        J = self.instance.num_services
        self.placement = np.asarray(self.placement, dtype=np.int64)
        self.yields = np.asarray(self.yields, dtype=np.float64)
        if self.placement.shape != (J,):
            raise InvalidAllocationError(
                f"placement shape {self.placement.shape} != ({J},)")
        if self.yields.shape != (J,):
            raise InvalidAllocationError(
                f"yields shape {self.yields.shape} != ({J},)")
        if ((self.placement < UNPLACED)
                | (self.placement >= self.instance.num_nodes)).any():
            raise InvalidAllocationError("placement contains out-of-range node index")
        if ((self.yields < -FEASIBILITY_ATOL)
                | (self.yields > 1.0 + FEASIBILITY_ATOL)).any():
            raise InvalidAllocationError("yields outside [0, 1]")

    @classmethod
    def uniform(cls, instance: ProblemInstance, placement: Sequence[int],
                y: float) -> "Allocation":
        """Allocation with the same yield for every placed service."""
        placement = np.asarray(placement, dtype=np.int64)
        yields = np.where(placement >= 0, float(y), 0.0)
        return cls(instance, placement, yields)

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True when every service is placed on some node."""
        return bool((self.placement >= 0).all())

    def minimum_yield(self) -> float:
        """The objective value: min yield over all services.

        Raises if any service is unplaced (an incomplete allocation has no
        defined objective; heuristics return ``None`` instead of building
        one).
        """
        if not self.complete:
            raise InvalidAllocationError("minimum_yield of incomplete allocation")
        return float(self.yields.min())

    def node_loads(self) -> np.ndarray:
        return node_loads(self.instance, self.placement, self.yields)

    # ------------------------------------------------------------------
    def validate(self, require_complete: bool = True) -> None:
        """Raise :class:`InvalidAllocationError` unless all constraints hold."""
        inst = self.instance
        if require_complete and not self.complete:
            raise InvalidAllocationError("allocation leaves services unplaced")
        placed = self.placement >= 0
        if not placed.any():
            return
        sv = inst.services
        hs = self.placement[placed]
        ys = self.yields[placed][:, None]
        elem_demand = sv.req_elem[placed] + ys * sv.need_elem[placed]
        elem_cap = inst.nodes.elementary[hs]
        tol = FEASIBILITY_RTOL * np.maximum(elem_cap, 1.0) + FEASIBILITY_ATOL
        bad = elem_demand > elem_cap + tol
        if bad.any():
            j = int(np.flatnonzero(bad.any(axis=1))[0])
            raise InvalidAllocationError(
                f"elementary capacity exceeded for service index {j} "
                f"(demand {elem_demand[j]}, capacity {elem_cap[j]})")
        loads = self.node_loads()
        agg_cap = inst.nodes.aggregate
        tol = FEASIBILITY_RTOL * np.maximum(agg_cap, 1.0) + FEASIBILITY_ATOL
        bad = loads > agg_cap + tol
        if bad.any():
            h = int(np.flatnonzero(bad.any(axis=1))[0])
            raise InvalidAllocationError(
                f"aggregate capacity exceeded on node {h} "
                f"(load {loads[h]}, capacity {agg_cap[h]})")

    def is_valid(self, require_complete: bool = True) -> bool:
        try:
            self.validate(require_complete=require_complete)
        except InvalidAllocationError:
            return False
        return True

    # ------------------------------------------------------------------
    def improve_yields(self) -> "Allocation":
        """Raise every node's services to that node's max-min uniform yield.

        Packing heuristics certify a *uniform* yield via binary search; the
        final allocation can usually do better on under-loaded nodes.  This
        post-pass recomputes, per node, the closed-form max-min yield of the
        services actually placed there (:func:`max_min_yield_on_node`, bit
        for bit), and never lowers any yield below the certified value.
        """
        with improve_span(self):
            return Allocation(self.instance, self.placement.copy(),
                              _improved_yields(self.instance, self.placement,
                                               self.yields))


def _no_span(allocation: Allocation) -> ContextManager[object]:
    return nullcontext()


#: The span around each :meth:`Allocation.improve_yields` pass: a callable
#: ``(allocation) -> context manager``.  ``core`` imports nothing outside
#: ``core``, so the package root (:mod:`repro`) installs the traced
#: ``allocation.improve`` span here.
improve_span: Callable[[Allocation], ContextManager[object]] = _no_span


def _improved_yields(instance: ProblemInstance, placement: np.ndarray,
                     yields: np.ndarray) -> np.ndarray:
    """:meth:`Allocation.improve_yields`' new yields in one array pass.

    Equal, bit for bit, to calling :func:`max_min_yield_on_node` on each
    node's members in ascending service order: the per-node sums add the
    members in that order (``np.add.at``, which is how ``sum(axis=0)``
    adds the rows of a ``(K, D >= 2)`` array), the minima are order-free,
    and the clamps are Python's ``min``/``max`` (the first argument wins a
    tie and NaN never does).
    """
    sv, nd = instance.services, instance.nodes
    H, D = instance.num_nodes, instance.dims
    new_yields = yields.copy()
    placed = np.flatnonzero(placement >= 0)
    if placed.size == 0:
        return new_yields
    node = placement[placed]
    req_elem, need_elem = sv.req_elem[placed], sv.need_elem[placed]
    cap_elem = nd.elementary[node]
    agg_req = np.zeros((H, D))
    agg_need = np.zeros((H, D))
    if D == 1:
        # numpy sums a one-column run pairwise, not row by row, so each
        # node's run is summed by numpy itself, as the per-node loop did.
        by_node = placed[np.argsort(node, kind="stable")]
        req_col, need_col = sv.req_agg[by_node, 0], sv.need_agg[by_node, 0]
        counts = np.bincount(node, minlength=H)
        stops = np.cumsum(counts)
        for h in np.flatnonzero(counts):
            lo, hi = stops[h] - counts[h], stops[h]
            agg_req[h, 0] = req_col[lo:hi].sum()
            agg_need[h, 0] = need_col[lo:hi].sum()
    else:
        np.add.at(agg_req, node, sv.req_agg[placed])
        np.add.at(agg_need, node, sv.need_agg[placed])

    # Nodes whose requirements alone break a capacity keep their yields.
    infeasible = ((agg_req > nd.aggregate * (1 + FEASIBILITY_RTOL)
                   + FEASIBILITY_ATOL).any(axis=1))
    elem_bad = (req_elem > cap_elem + FEASIBILITY_ATOL).any(axis=1)
    infeasible[node[elem_bad]] = True

    # Elementary headroom over need, least per node (+inf: no binding need).
    head = np.divide(cap_elem - req_elem, need_elem,
                     out=np.full(req_elem.shape, np.inf),
                     where=need_elem > 0).min(axis=1)
    elem_min = np.full(H, np.inf)
    np.minimum.at(elem_min, node, head)
    agg_min = np.divide(nd.aggregate - agg_req, agg_need,
                        out=np.full((H, D), np.inf),
                        where=agg_need > 0).min(axis=1)
    # y = min(1.0, elem_min); y = min(y, agg_min); min(1.0, max(0.0, y)).
    y = np.where(elem_min < 1.0, elem_min, 1.0)
    y = np.where(agg_min < y, agg_min, y)
    y = np.where(y > 0.0, y, 0.0)
    y = np.where(y < 1.0, y, 1.0)

    keep = ~infeasible[node]
    members = placed[keep]
    new_yields[members] = np.maximum(new_yields[members], y[node[keep]])
    return new_yields
