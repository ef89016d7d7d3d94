"""Live cluster state of the allocation service.

The daemon's single source of truth: the platform, the admitted services
(in arrival order, so the instance handed to the solver is reproducible
offline), the incumbent placement and the per-service yields.  The
controller mutates it only under its solver lock, and at each commit
publishes a :class:`StateSnapshot`; ``GET /state`` renders the latest
published one without the lock.

Byte-identical replay is a design requirement twice over.  The CI smoke
job solves the daemon's final instance offline and compares certified
yields, so :meth:`ClusterState.build_instance` must construct *exactly*
the ``ProblemInstance`` an offline caller would build from the same
descriptor rows in the same order — no reordering, no rescaling.  And
crash recovery replays the event journal into a fresh state that must
:meth:`digest`-match the pre-crash daemon, so every mutation here is a
deterministic function of the event stream: either it commits fully or
it is rolled back from a :class:`StateSnapshot` (any failure before the
event is journaled), never half-applied.

The platform is no longer immutable: operators can *drain* a node
(evacuate and stop placing on it) or *add* one.  The solver never sees
drained nodes — :meth:`solver_view` builds the instance over the
available sub-platform, the view the dynamic simulator gives its placer
after a node failure (:func:`repro.dynamic.incremental.up_platform`),
and returns the index map back to global node ids, which
:meth:`apply_allocation` uses so the incumbent placement always speaks
global indices.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..core.allocation import Allocation, node_loads
from ..core.instance import ProblemInstance
from ..core.node import NodeArray
from ..core.service import ServiceArray
from ..core.sla import DEFAULT_SLA, SLA_NAMES
from ..dynamic.incremental import up_platform

__all__ = ["ServiceSpec", "ClusterState", "StateSnapshot"]


@dataclass(frozen=True)
class ServiceSpec:
    """One admitted service: id, the four ``(D,)`` descriptor vectors,
    and its SLA class (see :mod:`repro.core.sla`)."""

    sid: str
    req_elem: np.ndarray
    req_agg: np.ndarray
    need_elem: np.ndarray
    need_agg: np.ndarray
    sla: str = DEFAULT_SLA

    @classmethod
    def from_vectors(cls, sid: str,
                     req_elem: Sequence[float], req_agg: Sequence[float],
                     need_elem: Sequence[float], need_agg: Sequence[float],
                     dims: int, sla: str = DEFAULT_SLA) -> "ServiceSpec":
        """Validate and freeze client-supplied descriptor vectors."""
        if sla not in SLA_NAMES:
            raise ValueError(
                f"unknown SLA class {sla!r}; expected one of {SLA_NAMES}")
        arrays = []
        for name, vec in (("req_elem", req_elem), ("req_agg", req_agg),
                          ("need_elem", need_elem), ("need_agg", need_agg)):
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dims,):
                raise ValueError(
                    f"{name} must be a length-{dims} vector, got "
                    f"shape {arr.shape}")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValueError(f"{name} has negative or non-finite entries")
            arr = arr.copy()
            arr.setflags(write=False)
            arrays.append(arr)
        return cls(sid, arrays[0], arrays[1], arrays[2], arrays[3], sla)

    def as_json(self) -> dict:
        return {"id": self.sid,
                "req_elem": self.req_elem.tolist(),
                "req_agg": self.req_agg.tolist(),
                "need_elem": self.need_elem.tolist(),
                "need_agg": self.need_agg.tolist(),
                "sla": self.sla}


@dataclass
class StateSnapshot:
    """Everything :meth:`ClusterState.restore` needs to undo an event.

    Captured *before* a mutation, restored when the event fails or
    cannot be journaled (the "never acknowledge what you cannot replay"
    invariant).  Dict copies preserve insertion order, which is load-
    bearing: the solver instance row order *is* the services-dict order.
    Captured again *after* a commit, it is the state reads see; nothing
    mutates a snapshot once taken.
    """

    services: dict[str, ServiceSpec]
    placement: dict[str, int]
    yields: dict[str, float]
    certified: float | None
    trace_ids: dict[str, str]
    solve_trace: str | None
    drained: frozenset[int]
    nodes: NodeArray


class ClusterState:
    """Admitted services + incumbent placement over a mutable platform."""

    def __init__(self, nodes: NodeArray):
        self.nodes = nodes
        self._services: dict[str, ServiceSpec] = {}  # insertion-ordered
        #: Incumbent placement/yields, keyed by service id.  Both empty
        #: exactly when no services are admitted.  Placements are
        #: *global* node indices (drained nodes keep their index).
        self.placement: dict[str, int] = {}
        self.yields: dict[str, float] = {}
        #: The last full search's certified uniform yield (its feasible
        #: lower bound, the natural hint for the next solve); ``None``
        #: when the incumbent came from a degraded greedy placement.
        self.certified: float | None = None
        #: Observability correlation: per-service, the trace id of the
        #: request that admitted it; and the trace id of the solve that
        #: produced the incumbent placement.  Joins ``GET /state`` output
        #: to ``--obs-log`` span records and daemon logs.
        self.trace_ids: dict[str, str] = {}
        self.solve_trace: str | None = None
        #: Global indices of drained nodes — still part of the platform
        #: (indices stay stable) but invisible to the solver.
        self._drained: set[int] = set()

    # -- membership ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, sid: str) -> bool:
        return sid in self._services

    def ids(self) -> tuple[str, ...]:
        return tuple(self._services)

    def specs(self) -> Iterator[ServiceSpec]:
        return iter(self._services.values())

    def spec(self, sid: str) -> ServiceSpec:
        return self._services[sid]

    def add(self, spec: ServiceSpec) -> None:
        if spec.sid in self._services:
            raise KeyError(f"service id {spec.sid!r} already admitted")
        if spec.req_elem.shape[0] != self.nodes.dims:
            raise ValueError(
                f"service has {spec.req_elem.shape[0]} dimensions, "
                f"platform has {self.nodes.dims}")
        self._services[spec.sid] = spec

    def remove(self, sid: str) -> ServiceSpec:
        spec = self._services.pop(sid)  # KeyError -> 404 upstream
        self.placement.pop(sid, None)
        self.yields.pop(sid, None)
        self.trace_ids.pop(sid, None)
        if not self._services:
            self.certified = None
        return spec

    # -- platform mutation ---------------------------------------------
    @property
    def drained(self) -> frozenset[int]:
        return frozenset(self._drained)

    def resolve_node(self, ident: str) -> int:
        """Node index from an identifier: a decimal index or a name."""
        if ident.isdigit():
            idx = int(ident)
        else:
            try:
                idx = self.nodes.names.index(ident)
            except ValueError:
                raise KeyError(f"no node named {ident!r}") from None
        if not 0 <= idx < len(self.nodes):
            raise KeyError(f"node index {idx} out of range "
                           f"(platform has {len(self.nodes)} nodes)")
        return idx

    def drain_node(self, idx: int) -> None:
        """Mark node *idx* as draining (caller re-solves to evacuate)."""
        if not 0 <= idx < len(self.nodes):
            raise KeyError(f"node index {idx} out of range")
        if idx in self._drained:
            raise ValueError(f"node {idx} is already drained")
        self._drained.add(idx)

    def add_node(self, elementary: Sequence[float],
                 aggregate: Sequence[float],
                 name: str | None = None) -> int:
        """Append a node to the platform; returns its (stable) index."""
        dims = self.nodes.dims
        elem = np.asarray(elementary, dtype=np.float64)
        agg = np.asarray(aggregate, dtype=np.float64)
        for label, arr in (("elementary", elem), ("aggregate", agg)):
            if arr.shape != (dims,):
                raise ValueError(
                    f"{label} must be a length-{dims} vector, got "
                    f"shape {arr.shape}")
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValueError(
                    f"{label} has negative or non-finite entries")
        if (agg < elem).any():
            raise ValueError(
                "aggregate capacity must cover elementary capacity")
        idx = len(self.nodes)
        node_name = name if name else f"node{idx}"
        # Names must resolve unambiguously (see resolve_node).
        if node_name in self.nodes.names:
            raise ValueError(f"node name {node_name!r} is already in use")
        if node_name.isdigit():
            raise ValueError(
                f"node name {node_name!r} is all digits: it reads as an index")
        names = list(self.nodes.names) + [node_name]
        self.nodes = NodeArray.from_arrays(
            np.vstack([self.nodes.elementary, elem[None, :]]),
            np.vstack([self.nodes.aggregate, agg[None, :]]),
            names=names)
        return idx

    def available_mask(self) -> np.ndarray:
        """``(H,)`` bool — nodes the solver may place on."""
        mask = np.ones(len(self.nodes), dtype=bool)
        if self._drained:
            mask[sorted(self._drained)] = False
        return mask

    # -- solver round trips --------------------------------------------
    def build_instance(self) -> ProblemInstance | None:
        """The live set as a solver instance; ``None`` when empty."""
        if not self._services:
            return None
        specs = list(self._services.values())
        services = ServiceArray.from_arrays(
            np.stack([s.req_elem for s in specs]),
            np.stack([s.req_agg for s in specs]),
            np.stack([s.need_elem for s in specs]),
            np.stack([s.need_agg for s in specs]),
            names=[s.sid for s in specs])
        return ProblemInstance(self.nodes, services)

    def solver_view(self) -> tuple[ProblemInstance | None, np.ndarray | None]:
        """The solver's instance plus the map back to global node ids.

        The platform is :func:`~repro.dynamic.incremental.up_platform`'s
        view with the drained nodes down (every node at scale 1.0).
        With nothing drained this is exactly :meth:`build_instance` (and
        a ``None`` map) — byte-identical to the offline construction.
        With drained nodes the instance covers only the available
        sub-platform and the second element maps the solver's local node
        indices to global ones.  ``(None, None)`` when there are no
        services or no available nodes.
        """
        instance = self.build_instance()
        if instance is None or not self._drained:
            return instance, None
        up = up_platform(self.nodes, self.available_mask(),
                         np.ones(len(self.nodes)))
        if up is None:
            return None, None
        nodes, node_map = up
        return ProblemInstance(nodes, instance.services), node_map

    def apply_allocation(self, alloc: Allocation,
                         certified: float | None,
                         trace_id: str | None = None,
                         node_map: np.ndarray | None = None) -> None:
        """Adopt *alloc* (over :meth:`build_instance`'s row order) as the
        incumbent.  *node_map*, when given, translates the allocation's
        local node indices (a :meth:`solver_view` sub-platform) back to
        global ones.  *trace_id* correlates the incumbent with the
        request whose solve produced it."""
        ids = self.ids()
        assert len(ids) == alloc.placement.shape[0]
        placement = (alloc.placement if node_map is None
                     else node_map[alloc.placement])
        self.placement = {sid: int(h) for sid, h in zip(ids, placement)}
        self.yields = {sid: float(y) for sid, y in zip(ids, alloc.yields)}
        self.certified = certified
        self.solve_trace = trace_id

    def assignment_array(self) -> np.ndarray:
        """``(J,)`` node index per live service in instance row order
        (−1 = not in the incumbent placement)."""
        return np.array([self.placement.get(sid, -1) for sid in self.ids()],
                        dtype=np.int64)

    # -- rollback + replay equivalence ---------------------------------
    def checkpoint(self) -> StateSnapshot:
        """Capture everything an event may mutate, for :meth:`restore`."""
        return StateSnapshot(
            services=dict(self._services),
            placement=dict(self.placement),
            yields=dict(self.yields),
            certified=self.certified,
            trace_ids=dict(self.trace_ids),
            solve_trace=self.solve_trace,
            drained=frozenset(self._drained),
            nodes=self.nodes)

    def restore(self, snap: StateSnapshot) -> None:
        """Roll the state back to *snap* (a failed/unjournalable event)."""
        self._services = dict(snap.services)
        self.placement = dict(snap.placement)
        self.yields = dict(snap.yields)
        self.certified = snap.certified
        self.trace_ids = dict(snap.trace_ids)
        self.solve_trace = snap.solve_trace
        self._drained = set(snap.drained)
        self.nodes = snap.nodes

    def digest(self) -> str:
        """Content hash of the replayable state.

        Two states with equal digests carry the same services (order
        included), placements, yields, certified bound, drain set and
        platform.  Trace ids are *excluded* — they are per-request
        random and legitimately differ between a live daemon and its
        journal replay.
        """
        payload = {
            "services": [s.as_json() for s in self._services.values()],
            "placement": self.placement,
            "yields": self.yields,
            "certified": self.certified,
            "drained": sorted(self._drained),
            "node_names": list(self.nodes.names),
            "node_elementary": [row.tolist() for row in self.nodes.elementary],
            "node_aggregate": [row.tolist() for row in self.nodes.aggregate],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    # -- read-side views -----------------------------------------------
    def minimum_yield(self) -> float | None:
        if not self.yields:
            return None
        return min(self.yields.values())

    def snapshot(self) -> dict:
        """JSON-able view for ``GET /state``."""
        instance = self.build_instance()
        if instance is None:
            loads = np.zeros_like(self.nodes.aggregate)
        else:
            yields = np.array([self.yields.get(sid, 0.0)
                               for sid in self.ids()])
            loads = node_loads(instance, self.assignment_array(), yields)
        services: Mapping[str, dict] = {
            sid: {"node": self.placement.get(sid),
                  "yield": self.yields.get(sid),
                  "sla": self._services[sid].sla,
                  "trace": self.trace_ids.get(sid)}
            for sid in self.ids()}
        return {
            "hosts": len(self.nodes),
            "dims": self.nodes.dims,
            "active": len(self._services),
            "services": services,
            "node_names": list(self.nodes.names),
            "node_loads": [row.tolist() for row in loads],
            "node_capacity": [row.tolist() for row in self.nodes.aggregate],
            "drained_nodes": sorted(self._drained),
            "minimum_yield": self.minimum_yield(),
            "certified_yield": self.certified,
            "solve_trace": self.solve_trace,
            "digest": self.digest(),
        }
