"""repro — reproduction of Casanova, Stillwell & Vivien (IPDPS 2012):

*Virtual Machine Resource Allocation for Service Hosting on Heterogeneous
Distributed Platforms.*

Public API layout:

* :mod:`repro.core` — problem model (nodes, services, allocations, yield).
* :mod:`repro.lp` — exact MILP and rational relaxation (Eqs. 1-7).
* :mod:`repro.algorithms` — heuristics: randomized rounding, greedy family,
  vector-packing / heterogeneous vector-packing and the META* combinators.
* :mod:`repro.sharing` — work-conserving CPU sharing, runtime policies, and
  the error-mitigation machinery of §6.
* :mod:`repro.workloads` — platform and Google-trace-like workload
  generators with the paper's scaling pipeline (§4).
* :mod:`repro.experiments` — drivers that regenerate every table and figure.

:mod:`repro.core` imports nothing outside itself, so this package root
installs the ``allocation.improve`` span (:mod:`repro.obs`) around
:meth:`Allocation.improve_yields`.
"""

from typing import ContextManager

from . import obs as _obs
from .core import (
    Allocation,
    Node,
    NodeArray,
    ProblemInstance,
    Service,
    ServiceArray,
    VectorPair,
)
from .core import allocation as _allocation

__version__ = "0.2.0"


def _improve_span(allocation: Allocation) -> ContextManager[object]:
    """One ``allocation.improve`` span per pass, tagged only when tracing."""
    if not _obs.enabled():
        return _obs.span("allocation.improve")
    from .kernels import current_backend_name
    inst = allocation.instance
    return _obs.span("allocation.improve", {
        "backend": current_backend_name(),
        "services": inst.num_services, "nodes": inst.num_nodes})


_allocation.improve_span = _improve_span

__all__ = [
    "Allocation",
    "Node",
    "NodeArray",
    "ProblemInstance",
    "Service",
    "ServiceArray",
    "VectorPair",
    "__version__",
]
