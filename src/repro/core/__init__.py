"""Core problem model: nodes, services, instances, allocations (paper §2)."""

from .allocation import Allocation, max_min_yield_on_node, node_loads, UNPLACED
from .exceptions import (
    DimensionMismatchError,
    InfeasibleProblemError,
    InvalidAllocationError,
    InvalidCapacityError,
    InvalidServiceError,
    ReproError,
    SolverError,
)
from .instance import ProblemInstance
from .node import Node, NodeArray
from .resources import VectorPair
from .service import Service, ServiceArray

__all__ = [
    "Allocation",
    "DimensionMismatchError",
    "InfeasibleProblemError",
    "InvalidAllocationError",
    "InvalidCapacityError",
    "InvalidServiceError",
    "Node",
    "NodeArray",
    "ProblemInstance",
    "ReproError",
    "Service",
    "ServiceArray",
    "SolverError",
    "UNPLACED",
    "VectorPair",
    "max_min_yield_on_node",
    "node_loads",
]
