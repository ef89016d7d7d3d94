"""Zero-knowledge baseline and the end-to-end evaluation glue (§6).

The zero-knowledge scheduler knows rigid requirements (memory and
elementary CPU, which are observable before launch) but nothing about CPU
needs.  The paper argues the best it can do is "distribute services as
evenly as possible across the available nodes" and rely on a
work-conserving scheduler with equal weights at runtime.

:func:`evaluate_actual_yields` is the shared measurement step: given any
placement and the *true* needs, it runs one of the §6 runtime policies on
every node and reports per-service actual yields.  It is one call to the
kernel backend's ``share_nodes`` (:mod:`repro.kernels`), which runs the
policies of :mod:`.policies` on every node at once; those single-node
functions stay the public API for one node and the kernel's reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import obs
from ..core.instance import ProblemInstance
from ..core.resources import STRICT_FIT_ATOL
from ..kernels import get_backend
from ..kernels.api import SHARE_POLICIES, ShareNodesArgs
from .policies import POLICIES
from .work_conserving import DEFAULT_EPSILON, SHARE_ATOL

__all__ = ["zero_knowledge_placement", "evaluate_actual_yields"]


def zero_knowledge_placement(instance: ProblemInstance) -> Optional[np.ndarray]:
    """Spread services evenly: each goes to the least-populated fitting node.

    Feasibility uses rigid requirements only.  Ties break toward the
    lower node index, which keeps the baseline deterministic.
    """
    sv, nd = instance.services, instance.nodes
    elem_ok = (sv.req_elem[:, None, :] <= nd.elementary[None, :, :] + STRICT_FIT_ATOL
               ).all(axis=2)
    loads = np.zeros_like(nd.aggregate)
    counts = np.zeros(instance.num_nodes, dtype=np.int64)
    placement = np.full(instance.num_services, -1, dtype=np.int64)
    for j in range(instance.num_services):
        fits = elem_ok[j] & (
            loads + sv.req_agg[j] <= nd.aggregate + STRICT_FIT_ATOL).all(axis=1)
        cands = np.flatnonzero(fits)
        if cands.size == 0:
            return None
        h = int(cands[np.argmin(counts[cands])])
        loads[h] += sv.req_agg[j]
        counts[h] += 1
        placement[j] = h
    return placement


def evaluate_actual_yields(
    instance_true: ProblemInstance,
    placement: np.ndarray,
    policy: str,
    estimated_instance: ProblemInstance | None = None,
    cpu_dim: int = 0,
) -> np.ndarray:
    """Actual per-service yields when *placement* runs under *policy*.

    Parameters
    ----------
    instance_true:
        The instance with **true** needs; yields are measured against it.
    placement:
        ``(J,)`` node assignment (all services placed).
    policy:
        One of :data:`~.policies.POLICIES`: ``"ALLOCCAPS"``,
        ``"ALLOCWEIGHTS"`` or ``"EQUALWEIGHTS"``.  Estimate-driven
        policies size their allocations from *estimated_instance*
        (defaults to the true instance, i.e. perfect knowledge), which
        must have the true instance's service and node counts.
    cpu_dim:
        The fluid resource dimension being shared (CPU in the paper).

    Every node's sharing problem is built as:

    * capacity — the node's aggregate CPU minus the sum of its services'
      rigid aggregate CPU requirements;
    * demands — true aggregate CPU needs, clipped per service by the
      elementary ceiling ``(c^e − r^e)/n^e · n^a`` (a service cannot use
      aggregate CPU its virtual elements cannot consume);
    * weights — per the chosen policy, from estimated needs.

    The services are grouped by node with one stable argsort and every
    node is shared in one ``share_nodes`` kernel call on the active
    backend (:mod:`repro.kernels`), bit-identical to running
    :data:`~.policies.POLICIES` on each node's
    :class:`~.policies.NodeSharingProblem`.
    Everything the kernel would follow blindly is checked first.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown sharing policy {policy!r}; choose from "
                         f"{', '.join(POLICIES)}")
    est_instance = estimated_instance or instance_true
    J, H = instance_true.num_services, instance_true.num_nodes
    if (est_instance.num_services, est_instance.num_nodes) != (J, H):
        raise ValueError(
            f"estimated instance has {est_instance.num_services} services "
            f"and {est_instance.num_nodes} nodes, the true one {J} and {H}")
    dims = min(instance_true.dims, est_instance.dims)
    if not 0 <= cpu_dim < dims:
        raise ValueError(f"cpu_dim {cpu_dim} outside [0, {dims})")
    placement = np.asarray(placement, dtype=np.int64)
    if placement.shape != (J,):
        raise ValueError(f"placement must have one node per service ({J})")
    if (placement < 0).any():
        raise ValueError("all services must be placed")
    if (placement >= H).any():
        raise ValueError(f"placement names a node outside [0, {H})")

    sv, nd = instance_true.services, instance_true.nodes
    backend = get_backend()
    with obs.span("sharing.evaluate") as sp:
        if obs.enabled():
            sp.annotate(backend=backend.name, policy=policy, services=J,
                        nodes=H)
        return backend.share_nodes(ShareNodesArgs(
            order=np.argsort(placement, kind="stable"),
            counts=np.bincount(placement, minlength=H),
            req=np.ascontiguousarray(sv.req_agg[:, cpu_dim]),
            need=np.ascontiguousarray(sv.need_agg[:, cpu_dim]),
            est_need=np.ascontiguousarray(
                est_instance.services.need_agg[:, cpu_dim]),
            elem_req=np.ascontiguousarray(sv.req_elem[:, cpu_dim]),
            elem_need=np.ascontiguousarray(sv.need_elem[:, cpu_dim]),
            node_agg=np.ascontiguousarray(nd.aggregate[:, cpu_dim]),
            node_elem=np.ascontiguousarray(nd.elementary[:, cpu_dim]),
            policy=SHARE_POLICIES.index(policy),
            epsilon=DEFAULT_EPSILON, share_atol=SHARE_ATOL))
