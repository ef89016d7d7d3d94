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
"""

from .core import (
    Allocation,
    Node,
    NodeArray,
    ProblemInstance,
    Service,
    ServiceArray,
    VectorPair,
)

__version__ = "0.2.0"

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
