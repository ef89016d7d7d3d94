"""Greedy placement algorithms (§3.4): 7 service sorts × 7 node pickers.

Each greedy algorithm walks the services in sorted order and commits each
to a node chosen by a local criterion, considering only the service's rigid
*requirements* for feasibility.  Once every service is placed, yields are
set per node with the closed-form max-min computation (the fluid *needs*
then share whatever headroom the placement left) — this mirrors the
original homogeneous formulation of [3], where greedy placement is a
single pass and the yield optimization happens after placement.

Service sorting strategies (on aggregate vectors):

* S1 — no sorting;
* S2 — decreasing max need;
* S3 — decreasing sum of needs;
* S4 — decreasing max requirement;
* S5 — decreasing sum of requirements;
* S6 — decreasing max(sum of requirements, sum of needs);
* S7 — decreasing (sum of requirements + sum of needs).

Node selection strategies (among nodes whose remaining capacity fits the
service's requirements):

* P1 — most available capacity in the dimension of the service's max need;
* P2 — min ratio of total load (after placement) to total capacity;
* P3 — least remaining capacity in the dimension of the service's largest
  requirement (best fit);
* P4 — least total available capacity (best fit);
* P5 — most remaining capacity in the dimension of the largest requirement
  (worst fit);
* P6 — most total available capacity (worst fit);
* P7 — first fitting node (first fit).

Every greedy solve is one call to the kernel backend's ``greedy_scan``
(:func:`_greedy_place`).  The service orders and the elementary-fit
table are instance-static, so they are computed once per instance; the
kernel then runs the requested passes — all 49 for METAGREEDY, one for a
single combination — and returns each pass's placement and its minimum
yield after the per-node improvement, bit-identical to
``Allocation.improve_yields``.  METAGREEDY keeps the first pass with the
highest yield and builds an :class:`Allocation` for that pass only.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.allocation import Allocation
from ..core.resources import FEASIBILITY_ATOL, FEASIBILITY_RTOL, STRICT_FIT_ATOL
from ..core.instance import ProblemInstance
from ..kernels import get_backend
from ..kernels.api import GreedyScanArgs
from .base import NamedAlgorithm

__all__ = [
    "SERVICE_SORTS",
    "NODE_PICKERS",
    "greedy_algorithm",
    "all_greedy_algorithms",
    "metagreedy",
]


# ----------------------------------------------------------------------
# Service sorting (S1-S7).  Each returns the processing order (indices).
# ----------------------------------------------------------------------

def _desc(keys: np.ndarray) -> np.ndarray:
    # Stable descending order: sort ascending on negated keys.
    return np.argsort(-keys, kind="stable")


def _order_s1(inst: ProblemInstance) -> np.ndarray:
    return np.arange(inst.num_services)


def _order_s2(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.need_agg.max(axis=1))


def _order_s3(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.need_agg.sum(axis=1))


def _order_s4(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.req_agg.max(axis=1))


def _order_s5(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.req_agg.sum(axis=1))


def _order_s6(inst: ProblemInstance) -> np.ndarray:
    sums_r = inst.services.req_agg.sum(axis=1)
    sums_n = inst.services.need_agg.sum(axis=1)
    return _desc(np.maximum(sums_r, sums_n))


def _order_s7(inst: ProblemInstance) -> np.ndarray:
    return _desc(inst.services.req_agg.sum(axis=1)
                 + inst.services.need_agg.sum(axis=1))


SERVICE_SORTS: dict[str, Callable[[ProblemInstance], np.ndarray]] = {
    "S1": _order_s1, "S2": _order_s2, "S3": _order_s3, "S4": _order_s4,
    "S5": _order_s5, "S6": _order_s6, "S7": _order_s7,
}


# ----------------------------------------------------------------------
# Node picking (P1-P7).  The pickers run inside the kernel backend's
# greedy scan; each name maps to its picker code there.
# ----------------------------------------------------------------------

NODE_PICKERS: dict[str, int] = {
    "P1": 0, "P2": 1, "P3": 2, "P4": 3, "P5": 4, "P6": 5, "P7": 6,
}

#: The 49 (sort, picker) passes in METAGREEDY's tie-break order.
_ALL_PASSES = tuple((s, p) for s in SERVICE_SORTS for p in NODE_PICKERS)


# ----------------------------------------------------------------------
# The greedy driver.
# ----------------------------------------------------------------------

def _scan_args(inst: ProblemInstance, passes: Sequence[tuple[str, str]]
               ) -> GreedyScanArgs:
    """The kernel inputs for running the (sort, picker) *passes* on *inst*."""
    sv, nd = inst.services, inst.nodes  # C-contiguous float64 arrays
    sorts = list(dict.fromkeys(s for s, _ in passes))
    return GreedyScanArgs(
        req_agg=sv.req_agg,
        req_agg_sum=sv.req_agg.sum(axis=1),
        need_dim=np.argmax(sv.need_agg, axis=1).astype(np.int64),
        req_dim=np.argmax(sv.req_agg, axis=1).astype(np.int64),
        # Static elementary feasibility of requirements, (J, H).
        elem_ok=(sv.req_elem[:, None, :]
                 <= nd.elementary[None, :, :] + STRICT_FIT_ATOL).all(axis=2),
        bin_agg=nd.aggregate,
        bin_agg_sum=nd.aggregate.sum(axis=1),
        cap_tol=nd.aggregate + STRICT_FIT_ATOL,
        req_elem=sv.req_elem,
        need_elem=sv.need_elem,
        need_agg=sv.need_agg,
        bin_elem=nd.elementary,
        orders=np.stack([SERVICE_SORTS[s](inst) for s in sorts]
                        ).astype(np.int64),
        pass_order=np.array([sorts.index(s) for s, _ in passes],
                            dtype=np.int64),
        pass_pick=np.array([NODE_PICKERS[p] for _, p in passes],
                           dtype=np.int64),
        feas_atol=FEASIBILITY_ATOL,
        feas_rtol=FEASIBILITY_RTOL,
    )


def _greedy_place(inst: ProblemInstance, passes: Sequence[tuple[str, str]]
                  ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Run the (sort, picker) *passes* on *inst* in one kernel call.

    Returns ``(placements, min_yields)`` — one ``(J,)`` row and one
    yield per pass, a row of -1 and ``-inf`` where the pass fails — or
    ``None`` when no pass places every service.
    """
    placements, min_yields = get_backend().greedy_scan(
        _scan_args(inst, passes))
    if not (min_yields > -np.inf).any():
        return None
    return placements, min_yields


def _allocation(inst: ProblemInstance, placement: np.ndarray) -> Allocation:
    # Requirements are guaranteed to fit; distribute needs per node.
    return Allocation.uniform(inst, placement, 0.0).improve_yields()


def greedy_algorithm(sort_name: str, pick_name: str) -> NamedAlgorithm:
    """One of the 49 greedy combinations, e.g. ``greedy_algorithm("S3", "P2")``."""
    if sort_name not in SERVICE_SORTS or pick_name not in NODE_PICKERS:
        raise KeyError(f"unknown greedy combination {sort_name}:{pick_name}")
    passes = ((sort_name, pick_name),)

    def solve(instance: ProblemInstance) -> Optional[Allocation]:
        scan = _greedy_place(instance, passes)
        if scan is None:
            return None
        return _allocation(instance, scan[0][0])

    return NamedAlgorithm(f"GREEDY:{sort_name}:{pick_name}", solve)


def all_greedy_algorithms() -> tuple[NamedAlgorithm, ...]:
    """All 49 sort × picker combinations (§3.4)."""
    return tuple(greedy_algorithm(s, p) for s, p in _ALL_PASSES)


def metagreedy() -> NamedAlgorithm:
    """METAGREEDY: run all 49 greedy algorithms, keep the best minimum yield."""

    def solve(instance: ProblemInstance) -> Optional[Allocation]:
        scan = _greedy_place(instance, _ALL_PASSES)
        if scan is None:
            return None
        placements, min_yields = scan
        # argmax keeps the first pass with the highest yield: the pass
        # order's tie-break.
        return _allocation(instance, placements[int(np.argmax(min_yields))])

    return NamedAlgorithm("METAGREEDY", solve)
