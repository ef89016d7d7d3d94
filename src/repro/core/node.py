"""Physical node model.

A node is an ordered pair of D-dimensional capacity vectors (§2 of the
paper): the *elementary* capacity of a single resource element and the
*aggregate* capacity over all elements.  For poolable resources such as
memory the two coincide; for partitionable-but-not-poolable resources such
as CPU cores the elementary value caps what any single virtual element may
receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .exceptions import InvalidCapacityError
from .resources import VectorPair, as_vector

__all__ = ["Node", "NodeArray"]


@dataclass(frozen=True)
class Node:
    """A physical host with heterogeneous multi-dimensional capacity.

    Parameters
    ----------
    capacity:
        ``VectorPair`` with the elementary and aggregate capacity in each
        resource dimension.
    name:
        Optional human-readable identifier used in reports and examples.
    """

    capacity: VectorPair
    name: str = field(default="", compare=False)

    @classmethod
    def from_vectors(cls, elementary: Sequence[float], aggregate: Sequence[float],
                     name: str = "") -> "Node":
        return cls(VectorPair(as_vector(elementary), as_vector(aggregate)), name=name)

    @classmethod
    def multicore(cls, cores: int, per_core_cpu: float, memory: float,
                  name: str = "") -> "Node":
        """Convenience constructor for the 2-D (CPU, memory) evaluation setup.

        Dimension 0 is CPU: elementary = one core, aggregate = ``cores`` times
        that.  Dimension 1 is memory, which pools (elementary == aggregate).
        """
        if cores < 1:
            raise InvalidCapacityError(f"node needs at least one core, got {cores}")
        elem = np.array([per_core_cpu, memory], dtype=np.float64)
        agg = np.array([per_core_cpu * cores, memory], dtype=np.float64)
        return cls(VectorPair(elem, agg), name=name)

    @property
    def dims(self) -> int:
        return self.capacity.dims

    @property
    def elementary(self) -> np.ndarray:
        return self.capacity.elementary

    @property
    def aggregate(self) -> np.ndarray:
        return self.capacity.aggregate


class NodeArray:
    """Column-oriented view of a node collection for vectorized algorithms.

    Exposes ``elementary`` and ``aggregate`` as ``(H, D)`` float64 arrays.
    The arrays are read-only; packing algorithms copy what they mutate
    (per the HPC guide: views for reading, explicit copies for scratch
    state, never hidden aliasing).
    """

    __slots__ = ("elementary", "aggregate", "names")

    def __init__(self, nodes: Iterable[Node]):
        nodes = list(nodes)
        if not nodes:
            raise InvalidCapacityError("NodeArray requires at least one node")
        dims = nodes[0].dims
        for n in nodes:
            if n.dims != dims:
                raise InvalidCapacityError(
                    f"all nodes must share dimension count {dims}, got {n.dims}")
        self.elementary = np.ascontiguousarray(
            np.stack([n.elementary for n in nodes]))
        self.aggregate = np.ascontiguousarray(
            np.stack([n.aggregate for n in nodes]))
        self.elementary.setflags(write=False)
        self.aggregate.setflags(write=False)
        self.names = tuple(n.name for n in nodes)

    @classmethod
    def from_arrays(cls, elementary: np.ndarray, aggregate: np.ndarray,
                    names: Sequence[str] | None = None) -> "NodeArray":
        """Build directly from ``(H, D)`` capacity arrays.

        Used where a derived platform already exists in array form — a
        failure-masked or capacity-scaled sub-platform, or a node added
        to a running service — without materializing ``Node`` objects.
        The inputs are copied and only their shapes and the name count
        are checked, not their values (a NaN, a negative or an aggregate
        below its elementary capacity passes): callers pass rows that are
        already valid, the up nodes of a validated platform
        (``dynamic.incremental.up_platform``) or a node the daemon's
        ``ClusterState.add_node`` checked itself.
        """
        elementary = np.ascontiguousarray(elementary, dtype=np.float64)
        aggregate = np.ascontiguousarray(aggregate, dtype=np.float64)
        if elementary.ndim != 2 or elementary.shape != aggregate.shape:
            raise InvalidCapacityError(
                "elementary/aggregate must be matching (H, D) arrays, got "
                f"{elementary.shape} and {aggregate.shape}")
        if elementary.shape[0] < 1:
            raise InvalidCapacityError("NodeArray requires at least one node")
        obj = cls.__new__(cls)
        obj.elementary = elementary.copy()
        obj.aggregate = aggregate.copy()
        obj.elementary.setflags(write=False)
        obj.aggregate.setflags(write=False)
        obj.names = (tuple(names) if names is not None
                     else ("",) * elementary.shape[0])
        if len(obj.names) != elementary.shape[0]:
            raise InvalidCapacityError(
                f"got {len(obj.names)} names for {elementary.shape[0]} nodes")
        return obj

    def __len__(self) -> int:
        return self.elementary.shape[0]

    @property
    def dims(self) -> int:
        return self.elementary.shape[1]

    def node(self, h: int) -> Node:
        """Materialize node *h* back into an object (for reports/round-trips)."""
        return Node(VectorPair(self.elementary[h], self.aggregate[h]),
                    name=self.names[h])
