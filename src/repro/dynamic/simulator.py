"""Discrete-time simulation of a dynamically-managed hosting platform.

Implements the deployment scenario from the paper's conclusion: the
resource manager runs METAHVPLIGHT (or any registered placement
algorithm) on *estimated* CPU needs, optionally hardened with the §6
minimum-threshold mitigation, while services arrive and depart.  Between
full re-allocation epochs, new arrivals are slotted in with a cheap
best-fit so running services are not disturbed; at each epoch the whole
active set is re-packed and the services that moved count as migrations.

Every step, the runtime layer shares each node's CPU with a §6 policy
and the simulator records the yields actually achieved against the true
needs.

**Platform churn.**  An optional :class:`~repro.dynamic.failures.
PlatformSchedule` makes the platform itself dynamic: nodes fail, recover
and change capacity mid-run.  Failure handling is repair-first — the
displaced services are evicted and re-placed via the incremental
best-fit on the surviving platform (survivors stay put; that is the
migration-cost-aware preference), while full epochs re-pack everything
on whatever platform is up.  ``forced_migrations`` counts displaced
services that landed again, ``displaced`` the ones still pending
because of churn.  Per-service SLA classes (:mod:`repro.core.sla`) add
differentiated minimum-yield floors; every active service below its
floor is one SLA-violation service-step.

**Hot path.**  Placements are array-resident: one ``(N,)`` assignment
array over all trace descriptors (−1 = not placed) and one ``(H, D)``
node-load array maintained incrementally across steps — departures
subtract their demand, arrivals add theirs, and a full re-allocation
rebuilds both.  The view of the up nodes (rebuilt only when the platform
changes) and newcomer admission (fit rows for the newcomers alone) are
the allocation daemon's rules too, from :mod:`repro.dynamic.incremental`.
Newcomer best-fit dispatches to the active kernel backend
(:mod:`repro.kernels`), and so does the per-step sharing evaluation:
``evaluate_actual_yields`` shares every node in one ``share_nodes``
kernel call.  Full re-allocations are *warm-started*:
each epoch's yield search is seeded with the previous epoch's certified
yield, cutting the probe count by ~2× at matching certified yields (see
:mod:`repro.algorithms.yield_search`); the placer compiles its strategy
table once (:class:`~repro.algorithms.vector_packing.StrategyTable`), and
its closing ``improve_yields`` is one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs
from ..algorithms.base import NamedAlgorithm
from ..core.instance import ProblemInstance
from ..core.node import NodeArray
from ..core.resources import FEASIBILITY_ATOL, FEASIBILITY_RTOL
from ..core.service import ServiceArray
from ..core.sla import SLA_NAMES, sla_floors, violates_floor
from ..sharing.adaptive import AdaptiveThreshold
from ..sharing.baseline import evaluate_actual_yields
from ..sharing.errors import apply_minimum_threshold, perturb_cpu_needs
from ..util.rng import as_generator
from ..workloads.scaling import scale_cpu_needs
from .events import WorkloadTrace
from .failures import PlatformEvent, PlatformSchedule
from .incremental import load_caps, place_newcomers, rebuild_loads, up_platform

__all__ = ["DynamicSimulator", "SimulationResult", "StepRecord"]


@dataclass(frozen=True)
class StepRecord:
    """Metrics for one simulation step."""

    time: int
    active: int
    placed: int
    pending: int
    migrations: int
    min_yield: float
    mean_yield: float
    failed_nodes: int = 0
    forced_migrations: int = 0
    displaced: int = 0
    sla_violations: int = 0


@dataclass
class SimulationResult:
    steps: list[StepRecord] = field(default_factory=list)
    #: Per-SLA-class violation service-step totals (empty when the run
    #: carried no SLA annotation).
    sla_violations: dict[str, int] = field(default_factory=dict)

    @property
    def total_migrations(self) -> int:
        return sum(s.migrations for s in self.steps)

    @property
    def total_forced_migrations(self) -> int:
        return sum(s.forced_migrations for s in self.steps)

    @property
    def displaced_service_steps(self) -> int:
        return sum(s.displaced for s in self.steps)

    @property
    def total_sla_violations(self) -> int:
        return sum(s.sla_violations for s in self.steps)

    @property
    def average_min_yield(self) -> float:
        vals = [s.min_yield for s in self.steps if s.placed > 0]
        return float(np.mean(vals)) if vals else 0.0

    @property
    def average_pending(self) -> float:
        vals = [s.pending for s in self.steps]
        return float(np.mean(vals)) if vals else 0.0

    def as_rows(self) -> list[tuple]:
        return [(s.time, s.active, s.placed, s.pending, s.migrations,
                 round(s.min_yield, 4), round(s.mean_yield, 4),
                 s.failed_nodes, s.forced_migrations, s.displaced,
                 s.sla_violations)
                for s in self.steps]


class DynamicSimulator:
    """Drives one trace over one platform.

    Parameters
    ----------
    nodes:
        The physical platform.
    trace:
        Workload events (see :mod:`repro.dynamic.events`).
    placer:
        Full re-allocation algorithm, used every ``reallocation_period``
        steps.
    policy:
        Runtime CPU-sharing policy name (``"ALLOCWEIGHTS"`` etc.).
    cpu_need_scale:
        Core-units → capacity-units conversion for the trace's CPU needs
        (the static experiments normalize against total capacity instead;
        a dynamic platform cannot, as its load varies).
    max_error / threshold:
        §6 estimation-error half-width and mitigation threshold applied to
        the CPU needs the placer sees.
    adaptive:
        Optional :class:`AdaptiveThreshold` controller; when given it
        overrides the static ``threshold``, re-thresholding the estimates
        at every re-allocation epoch and learning from the gap between the
        promised and realized minimum yield.
    warm_start:
        Seed each epoch's yield search with the previous epoch's
        certified yield (placers that expose ``solve_with_hint`` only —
        the META* solvers do).  Certified yields match the cold search;
        the strategy winning the final probe — and hence the placement —
        can in principle differ (the META* engines' usual equivalence
        envelope; the reference workloads are asserted row-identical in
        the tests/benchmarks).  ``search_probes``/``search_solves``
        count the oracle work across the run.
    failures:
        Optional :class:`~repro.dynamic.failures.PlatformSchedule`.
        ``None`` (the default) reproduces the fixed-platform behavior
        bit-exactly.
    sla:
        Optional per-descriptor SLA class names; defaults to the
        trace's own annotation (``trace.sla``).  ``None`` disables the
        violation accounting entirely.
    validate_loads:
        Debug aid: re-derive the node loads from scratch every step and
        assert the incrementally maintained array matches.
    """

    def __init__(self,
                 nodes: NodeArray,
                 trace: WorkloadTrace,
                 placer: NamedAlgorithm,
                 policy: str = "ALLOCWEIGHTS",
                 reallocation_period: int = 5,
                 cpu_need_scale: float = 0.08,
                 max_error: float = 0.0,
                 threshold: float = 0.0,
                 adaptive: AdaptiveThreshold | None = None,
                 rng: np.random.Generator | int | None = None,
                 warm_start: bool = True,
                 failures: PlatformSchedule | Sequence[PlatformEvent]
                 | None = None,
                 sla: Sequence[str] | None = None,
                 validate_loads: bool = False):
        if reallocation_period < 1:
            raise ValueError("reallocation period must be >= 1")
        if failures is not None and not isinstance(failures,
                                                   PlatformSchedule):
            # a raw event stream (e.g. straight from
            # generate_platform_events) compiles against this run's shape
            failures = PlatformSchedule(horizon=trace.horizon,
                                        n_nodes=len(nodes),
                                        events=tuple(failures))
        if failures is not None:
            if failures.n_nodes != len(nodes):
                raise ValueError(
                    f"failure schedule covers {failures.n_nodes} nodes, "
                    f"platform has {len(nodes)}")
            if failures.horizon < trace.horizon:
                raise ValueError(
                    f"failure schedule horizon {failures.horizon} shorter "
                    f"than trace horizon {trace.horizon}")
        self.nodes = nodes
        self.trace = trace
        self.placer = placer
        self.policy = policy
        self.period = reallocation_period
        self.max_error = max_error
        self.threshold = threshold
        self.adaptive = adaptive
        self.rng = as_generator(rng)
        self.warm_start = warm_start
        self.validate_loads = validate_loads
        self._true = scale_cpu_needs(trace.services, cpu_need_scale)
        # Estimates are drawn once per service (the manager's belief).
        self._noisy = (perturb_cpu_needs(self._true, max_error, rng=self.rng)
                       if max_error > 0 else self._true)
        initial = adaptive.value if adaptive is not None else threshold
        self._estimates = apply_minimum_threshold(self._noisy, initial)
        # Array-resident placement state: descriptor -> node (-1 unplaced),
        # plus the loads those placements put on each node (under the
        # *estimates*, which is what admission decisions are made on).
        n = len(trace.services)
        self._assigned = np.full(n, -1, dtype=np.int64)
        self._loads = np.zeros_like(nodes.aggregate)
        # Platform churn state: availability mask, capacity scale, the
        # view of the up nodes they give, and the displaced-service flags.
        self._failures = failures
        self._avail = np.ones(len(nodes), dtype=bool)
        self._scale = np.ones(len(nodes), dtype=np.float64)
        self._platform_version = 0
        self._up = up_platform(nodes, self._avail, self._scale)
        self._displaced = np.zeros(n, dtype=bool)
        # SLA floors (per descriptor) — default to the trace annotation.
        names = tuple(sla) if sla is not None else trace.sla
        if names is not None and len(names) != n:
            raise ValueError(
                f"got {len(names)} SLA classes for {n} services")
        self._sla_names = names
        self._sla_floors = sla_floors(names) if names is not None else None
        self._sla_codes = (np.array([SLA_NAMES.index(x) for x in names],
                                    dtype=np.int64)
                           if names is not None else None)
        # Warm-start memory and oracle-work counters.
        self._hint: float | None = None
        self._hint_ub: float | None = None
        self._est_version = 0
        self._memo_key: tuple | None = None
        self._memo_alloc = None
        self.search_probes = 0
        self.search_solves = 0

    # ------------------------------------------------------------------
    def _subset(self, services: ServiceArray, ids: np.ndarray) -> ServiceArray:
        return ServiceArray.from_arrays(
            services.req_elem[ids], services.req_agg[ids],
            services.need_elem[ids], services.need_agg[ids],
            names=[services.names[i] for i in ids])

    def _set_estimates(self, estimates: ServiceArray) -> None:
        self._estimates = estimates
        self._est_version += 1  # rigid requirements changed

    def _apply_platform(self, t: int) -> int:
        """Bring churn state up to step *t*; evict displaced services.

        Services on nodes that went down are evicted outright; a node
        whose capacity shrank sheds its newest services (highest
        descriptor index = latest arrival) until the remaining load
        fits.  Returns the eviction count.  Evicted services keep their
        ``displaced`` flag until they are placed again (a *forced
        migration*) or depart.
        """
        assert self._failures is not None
        mask = self._failures.mask_at(t)
        scale = self._failures.scale_at(t)
        if bool((mask == self._avail).all()) and bool((scale == self._scale).all()):
            return 0
        self._avail = mask.copy()
        self._scale = scale.copy()
        self._platform_version += 1
        self._up = up_platform(self.nodes, self._avail, self._scale)
        evicted = 0
        placed = np.flatnonzero(self._assigned >= 0)
        on_down = placed[~mask[self._assigned[placed]]]
        if on_down.size:
            np.subtract.at(self._loads, self._assigned[on_down],
                           self._estimates.req_agg[on_down])
            self._assigned[on_down] = -1
            self._displaced[on_down] = True
            evicted += int(on_down.size)
        cap = load_caps(self.nodes, mask, scale)
        for h in np.flatnonzero(mask):
            while bool((self._loads[h] > cap[h]).any()):
                victims = np.flatnonzero(self._assigned == h)
                if victims.size == 0:
                    break  # residual float dust only; nothing to shed
                j = victims[-1]
                self._loads[h] -= self._estimates.req_agg[j]
                self._assigned[j] = -1
                self._displaced[j] = True
                evicted += 1
        return evicted

    def _rebuild_loads(self) -> np.ndarray:
        """Node loads re-derived from the assignment array."""
        return rebuild_loads(self._assigned, self._estimates.req_agg,
                             self.nodes)

    def _solve(self, instance: ProblemInstance):
        """Run the placer, warm-started when it supports hints.

        The hint is the previous epoch's certified yield *scaled by the
        ratio of the two epochs' capacity bounds*: the bound moves with
        the active set's total load, so the scaling predicts most of the
        epoch-over-epoch drift and the search only has to absorb the
        packing-efficiency residue.
        """
        fn = getattr(self.placer, "fn", self.placer)
        if not getattr(fn, "supports_hint", False):
            return self.placer(instance)
        if self.warm_start:
            # Steady-state epochs often re-pose the *identical* instance
            # (same active set, unchanged estimates, same platform); the
            # deterministic solver would reproduce the previous answer
            # probe for probe, so reuse it outright.
            key = (self._est_version, self._platform_version,
                   self._active_key)
            if key == self._memo_key:
                self.search_solves += 1
                return self._memo_alloc
        hint = None
        ub = instance.yield_upper_bound()
        if self.warm_start and self._hint is not None and self._hint_ub:
            hint = self._hint * ub / self._hint_ub
        stats: dict = {}
        alloc = fn.solve_with_hint(instance, hint=hint, stats=stats)
        self.search_probes += stats.get("probes", 0)
        self.search_solves += 1
        if alloc is not None:
            self._hint = stats.get("certified")
            self._hint_ub = ub
        if self.warm_start:
            self._memo_key = (self._est_version, self._platform_version,
                              self._active_key)
            self._memo_alloc = alloc
        return alloc

    def _full_reallocation(self, active: np.ndarray) -> float | None:
        """Re-pack the whole active set in place; returns the promised
        minimum yield under the estimates, or None on failure (state
        untouched)."""
        if self.adaptive is not None:
            self._set_estimates(apply_minimum_threshold(
                self._noisy, self.adaptive.value))
        if self._up is None:
            return None  # whole platform down
        up_nodes, up_idx = self._up
        est_instance = ProblemInstance(
            up_nodes, self._subset(self._estimates, active))
        self._active_key = active.tobytes()
        alloc = self._solve(est_instance)
        if alloc is None:
            return None
        self._assigned[:] = -1
        self._assigned[active] = up_idx[alloc.placement]
        self._loads = self._rebuild_loads()
        return alloc.minimum_yield()

    def _incremental_placement(self, active_mask: np.ndarray,
                               active: np.ndarray) -> None:
        """Retire departures, keep current placements, best-fit newcomers.

        The departed services' demands are subtracted from the
        incrementally maintained loads; the newcomers are admitted by
        :func:`~repro.dynamic.incremental.place_newcomers` on the
        platform that is up.  Unplaceable newcomers stay pending and are
        retried next step.
        """
        est = self._estimates
        departed = np.flatnonzero((self._assigned >= 0) & ~active_mask)
        if departed.size:
            np.subtract.at(self._loads, self._assigned[departed],
                           est.req_agg[departed])
            self._assigned[departed] = -1
        newcomers = active[self._assigned[active] < 0]
        if newcomers.size:
            chosen = place_newcomers(
                est.req_elem[newcomers], est.req_agg[newcomers],
                self._loads, self.nodes, self._avail, self._scale)
            placed = chosen >= 0
            self._assigned[newcomers[placed]] = chosen[placed]

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        result = SimulationResult()
        if self._sla_floors is not None:
            result.sla_violations = {name: 0 for name in SLA_NAMES}
        for t in range(self.trace.horizon):
            if self._failures is not None:
                self._apply_platform(t)
            down_nodes = (int(np.count_nonzero(~self._avail))
                          if self._failures is not None else 0)
            active = self.trace.active_indices(t)
            if active.size == 0:
                self._assigned[:] = -1
                self._loads[:] = 0.0
                self._displaced[:] = False
                result.steps.append(StepRecord(t, 0, 0, 0, 0, 1.0, 1.0,
                                               failed_nodes=down_nodes))
                continue
            active_mask = np.zeros(self._assigned.shape[0], dtype=bool)
            active_mask[active] = True

            prev_assigned = self._assigned.copy()
            promised: float | None = None
            if t % self.period == 0:
                if obs.enabled():
                    probes_before = self.search_probes
                    with obs.span("dynamic.epoch") as sp:
                        promised = self._full_reallocation(active)
                        sp.annotate(
                            t=t, active=int(active.size),
                            probes=self.search_probes - probes_before,
                            promised=(None if promised is None
                                      else round(promised, 6)))
                else:
                    promised = self._full_reallocation(active)
                if promised is None:
                    # Full re-pack failed (e.g. transient overload); fall
                    # back to incremental so running services survive.
                    # The estimates may have moved (adaptive threshold),
                    # so re-derive the loads they imply first.
                    self._loads = self._rebuild_loads()
                    self._incremental_placement(active_mask, active)
            else:
                self._incremental_placement(active_mask, active)

            migrations = int(np.count_nonzero(
                (prev_assigned >= 0) & (self._assigned >= 0)
                & (prev_assigned != self._assigned)))

            placed_ids = np.flatnonzero(self._assigned >= 0)
            pending = int(active.size - placed_ids.size)
            yields = None
            if placed_ids.size:
                assert self._up is not None  # placements imply up nodes
                up_nodes, up_idx = self._up
                true_instance = ProblemInstance(
                    up_nodes, self._subset(self._true, placed_ids))
                est_instance = ProblemInstance(
                    up_nodes, self._subset(self._estimates, placed_ids))
                # up_idx ascends, so a node's rank in it is its view index
                placement_arr = np.searchsorted(
                    up_idx, self._assigned[placed_ids])
                yields = evaluate_actual_yields(
                    true_instance, placement_arr, self.policy,
                    estimated_instance=est_instance)
                min_y, mean_y = float(yields.min()), float(yields.mean())
            else:
                min_y = mean_y = 0.0

            # Churn accounting: a displaced service that landed again is
            # a forced migration; one still pending is a displaced
            # service-step; departures drop the flag.
            self._displaced &= active_mask
            forced_mask = self._displaced & (self._assigned >= 0)
            forced = int(np.count_nonzero(forced_mask))
            self._displaced &= ~forced_mask
            displaced_now = int(np.count_nonzero(self._displaced))

            sla_viol = 0
            if self._sla_floors is not None:
                achieved = np.zeros(self._assigned.shape[0])
                if placed_ids.size:
                    achieved[placed_ids] = yields
                violated = active_mask & violates_floor(
                    achieved, self._sla_floors)
                sla_viol = int(np.count_nonzero(violated))
                if sla_viol:
                    assert self._sla_codes is not None
                    counts = np.bincount(self._sla_codes[violated],
                                         minlength=len(SLA_NAMES))
                    for name, c in zip(SLA_NAMES, counts):
                        result.sla_violations[name] += int(c)

            if self.adaptive is not None and promised is not None:
                self.adaptive.observe(promised, min_y)
            if self.validate_loads:
                expected = self._rebuild_loads()
                if not np.allclose(self._loads, expected,
                                   rtol=FEASIBILITY_RTOL, atol=FEASIBILITY_ATOL):
                    raise AssertionError(
                        f"incremental loads drifted at t={t}: "
                        f"max |Δ|={np.abs(self._loads - expected).max()}")
            result.steps.append(StepRecord(
                time=t, active=int(active.size), placed=int(placed_ids.size),
                pending=pending, migrations=migrations,
                min_yield=min_y, mean_yield=mean_y,
                failed_nodes=down_nodes, forced_migrations=forced,
                displaced=displaced_now, sla_violations=sla_viol))
        return result
