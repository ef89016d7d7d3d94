"""The rules both managers of a live platform apply between solves.

Both consumers of live placement state — the :class:`DynamicSimulator`
(discrete-time simulation) and the online allocation service
(:mod:`repro.service`) — keep a per-descriptor node assignment and the
aggregate *requirement* loads those assignments put on each node, over a
platform whose nodes go down (a simulated failure, a drained daemon
node) and change capacity.  This module owns the rules they apply to it,
so the two layers cannot drift: :func:`up_platform` is the platform the
solver sees, :func:`place_newcomers` admits services into the running
placement through the kernel backend's best-fit
(:meth:`~repro.kernels.api.KernelBackend.incremental_best_fit`),
:func:`load_caps` is the bound a node's load must stay within, and
:func:`rebuild_loads` re-derives the loads after a full re-solve.

Newcomers are admitted at yield 0 — only the rigid requirements count
for feasibility; the fluid needs then share whatever headroom the
placement left (the per-node closed-form max-min of
:func:`repro.core.allocation.max_min_yield_on_node`).
"""

from __future__ import annotations

import numpy as np

from ..core.node import NodeArray
from ..core.resources import STRICT_FIT_ATOL
from ..kernels import get_backend

__all__ = ["INCREMENTAL_TOL", "up_platform", "load_caps",
           "masked_fit_tables", "rebuild_loads", "place_newcomers"]

#: Fit slack of the incremental (non-epoch) best-fit placements —
#: the seed-faithful strict slack (see ``core.resources``).
INCREMENTAL_TOL = STRICT_FIT_ATOL


def up_platform(nodes: NodeArray, avail: np.ndarray, scale: np.ndarray
                ) -> tuple[NodeArray, np.ndarray] | None:
    """The platform that is up, as the solver sees it.

    Returns the up nodes (*avail*) at their current capacity *scale*,
    and their global indices: node *k* of the view is node ``idx[k]``
    of *nodes*, in ascending order.  With every node up at scale 1.0 the
    view is *nodes* itself; with every node down there is none
    (``None``).
    """
    idx = np.flatnonzero(avail)
    if idx.size == 0:
        return None
    if idx.size == len(nodes) and bool((scale == 1.0).all()):
        return nodes, idx
    sc = scale[idx, None]
    return NodeArray.from_arrays(nodes.elementary[idx] * sc,
                                 nodes.aggregate[idx] * sc,
                                 [nodes.names[i] for i in idx]), idx


def load_caps(nodes: NodeArray, avail: np.ndarray, scale: np.ndarray
              ) -> np.ndarray:
    """``(H, D)`` bound on each node's aggregate requirement load.

    An up node's bound is its aggregate capacity at its current *scale*
    plus :data:`INCREMENTAL_TOL`; a down node's is −1, so no load ever
    fits it.  A newcomer fits a node whose load plus its requirement
    stays within the bound, and a node whose capacity shrank sheds
    services until its load does.
    """
    caps = nodes.aggregate * scale[:, None] + INCREMENTAL_TOL
    caps[~avail] = -1.0
    return caps


def masked_fit_tables(req_elem: np.ndarray, nodes: NodeArray,
                      avail: np.ndarray, scale: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Fit tables for the platform that is up (node churn, capacity
    scaling).

    Returns the ``(N, H)`` elementary-fit table — row *i* marks the up
    nodes whose *scaled* elementary capacity covers descriptor *i*'s
    rigid elementary requirements in every dimension, the yield-0
    admission precondition — and the :func:`load_caps` of the platform.
    Rows are computed one descriptor at a time, so a row's bits do not
    depend on the other rows given.  With every node up at scale 1.0
    these are the whole platform's tables: ``x * 1.0 == x`` and AND with
    all-true changes nothing.
    """
    scaled_elem = nodes.elementary * scale[:, None]
    elem_fit = (req_elem[:, None, :]
                <= (scaled_elem + INCREMENTAL_TOL)[None, :, :]).all(axis=2)
    elem_fit &= avail[None, :]
    return elem_fit, load_caps(nodes, avail, scale)


def rebuild_loads(assigned: np.ndarray, req_agg: np.ndarray,
                  nodes: NodeArray) -> np.ndarray:
    """``(H, D)`` aggregate requirement loads implied by *assigned*.

    *assigned* maps each descriptor to a node index (−1 = not placed);
    *req_agg* is the matching ``(N, D)`` aggregate-requirement array.
    """
    loads = np.zeros_like(nodes.aggregate)
    placed = np.flatnonzero(assigned >= 0)
    if placed.size:
        np.add.at(loads, assigned[placed], req_agg[placed])
    return loads


def place_newcomers(req_elem: np.ndarray, req_agg: np.ndarray,
                    loads: np.ndarray, nodes: NodeArray,
                    avail: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Admit newcomers at yield 0, in order, into a running placement.

    *req_elem* and *req_agg* carry only the newcomers' rows; *avail* and
    *scale* describe the platform that is up.  Each newcomer goes to the
    kernel backend's best-fit (least total remaining capacity, ties to
    the lowest node index) among the nodes its :func:`masked_fit_tables`
    row admits.  *loads* is the live ``(H, D)`` requirement-load array
    and is **updated in place** for every newcomer that fits.  Returns
    the chosen node per newcomer (−1 = nothing fits; the caller decides
    whether that means "pending" or "rejected").
    """
    elem_fit, caps = masked_fit_tables(req_elem, nodes, avail, scale)
    return get_backend().incremental_best_fit(
        req_agg, elem_fit, loads, nodes.aggregate, caps)
