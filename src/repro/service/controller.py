"""The allocation controller: serialized solves, warm starts, admission.

One :class:`AllocationController` owns the cluster state and a solver
lock.  Every state change (admit, depart, node drain, node add) runs as
one transaction, :meth:`AllocationController._transact`, under that
lock — concurrent HTTP requests are *queued, not raced* (the
``max_concurrent_solves`` metric proves it stayed 1) — and triggers an
incremental re-solve of the whole live set, warm-started from the
incumbent placement's certified yield via
``binary_search_max_yield(hint=)``.  Reads never take the lock: each
commit publishes the state as an immutable
:class:`~repro.service.state.StateSnapshot`, and ``GET /state``
renders the latest one, so a read never waits for a solve in flight,
shows every acknowledged write, and never shows a refused one.

* The hint is the previous solve's certified uniform yield, *unscaled*.
  The dynamic simulator scales its epoch hints by the capacity-bound
  ratio because a whole epoch of arrivals/departures moves the bound and
  the answer together; here each solve differs from its predecessor by a
  single service, so the answer barely moves while the capacity bound
  can shift by that service's whole load — scaling would push a
  near-perfect hint away from the answer (measured: raw hints beat
  scaled ones by ~15% probes on arrival streams, and both beat cold by
  ~2×).  Hints are advisory and the warm search probes the cold
  search's dyadic grid, so at moderate utilization — where the META*
  feasibility oracle behaves monotonically — certified yields are
  byte-identical to a cold solve (asserted by the test suite and the CI
  smoke soak).  At heavy saturation the oracle can be non-monotone
  (a strategy may pack yield ``y`` yet fail a smaller one), and the two
  searches then stop at different fixed points; when they differ the
  warm chain's certificate is still a genuinely feasible probe result —
  it typically *out-certifies* the cold bisection, never the reverse
  guarantee.

* **Admission control**: with a ``deadline_ms`` budget set, the
  controller tracks an EWMA of full-solve latency; once it exceeds the
  budget, requests degrade from the META* binary search to a *single
  greedy probe* — the newcomer is best-fit against the incumbent's
  requirement loads and yields are recomputed with the per-node
  closed-form max-min (:meth:`Allocation.improve_yields`), all in
  bounded time.  Every ``PROBATION_PERIOD``-th eligible request runs the
  full solve anyway to refresh the latency estimate, so the controller
  recovers when load drops.  Degraded placements are feasible but not
  search-certified (``certified_yield`` is ``null`` until the next full
  solve).

* **Failure policy**: solver invocations run under a named bounded
  backoff (:func:`repro.util.retry.retry_bounded`).  When the retry
  budget is exhausted, or the solve finds no placement, each op falls
  back in its own way — the one place the ops differ:

  ==============  ======================  ======================
  op              solver error            no placement
  ==============  ======================  ======================
  ``admit``       degraded greedy probe   409, counted rejection
  ``depart``      retained placement      retained placement
  ``drain_node``  409, drain refused      409, drain refused
  ``add_node``    keep the incumbent      keep the incumbent
  ==============  ======================  ======================

  A solver failure never loses the incumbent placement.

* **Durability**: with an :class:`~repro.service.journal.EventJournal`
  attached, every state-changing event (admit, depart, strategy switch,
  drain, node add) is fsynced to the journal *before* it commits and
  before the client is answered.  Any failure before the record is
  durable — a refusal, an exception in the solve, a journal-write
  failure (503) — restores the transaction's checkpoint (state,
  warm-start hint and all): the daemon never acknowledges an event it
  cannot replay, and never keeps one it has not journaled.  Each record
  names the outcome the daemon took (``mode`` for admit/depart,
  ``resolved`` for drain/add), and :meth:`replay_events` forces that
  outcome rather than re-deciding it from latency or solver failures; a
  replayed solve that fails aborts the replay.  Replay runs with faults
  and journaling disabled and lands on a
  :meth:`ClusterState.digest`-identical state.

* **Observability**: all counters/gauges/histograms live in a
  :class:`repro.obs.MetricsRegistry` — :meth:`render_metrics` is the
  Prometheus text exposition served at ``GET /metrics``, while
  :meth:`metrics` keeps the legacy JSON view (exact p50/p90/p99 from a
  bounded sample window; fixed histogram buckets can't reproduce them).
  :meth:`request` times every routed HTTP request
  (``repro_request_seconds{endpoint}``) and splits each write request
  into ``repro_request_part_seconds{part}``: ``lock_wait`` (entering
  :meth:`_transact` until the lock is held), ``solve``, ``journal``
  (the append's write + flush + fsync) and ``other`` (the rest of the
  request: parsing, rollback or commit, the reply), so the four parts
  add up to the request.
  Each full/degraded solve runs under an obs span (``service.solve``),
  journal replay under ``service.recover``, and admissions record the
  request's trace id on the stored allocation so a slow client request
  can be joined against the daemon's ``--obs-log`` trace.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .. import obs
from ..algorithms.vector_packing.meta import (
    META_STRATEGY_FAMILIES,
    MetaSolver,
    named_meta_solver,
)
from ..core.allocation import Allocation
from ..core.node import NodeArray
from ..core.sla import DEFAULT_SLA, SLA_NAMES, sla_floor, violates_floor
from ..dynamic.incremental import place_newcomers, rebuild_loads
from ..util.retry import DEFAULT_BACKOFF, BackoffPolicy, retry_bounded
from ..util.rng import as_generator
from ..workloads.google_model import DEFAULT_MODEL
from ..workloads.registry import workload_id
from ..workloads.scaling import scale_cpu_needs
from .faults import FaultInjector
from .journal import EventJournal
from .state import ClusterState, ServiceSpec, StateSnapshot

__all__ = ["AllocationController", "ServiceError", "PROBATION_PERIOD"]

#: Every Nth degrade-eligible request runs the full solve anyway, so the
#: latency estimate refreshes and the controller can leave degraded mode.
PROBATION_PERIOD = 8

#: The parts of a write request the controller times itself; the
#: request's remainder is reported as a fourth part, ``other``.
TIMED_PARTS = ("lock_wait", "solve", "journal")


class ServiceError(Exception):
    """An error with an HTTP status and a JSON payload."""

    def __init__(self, status: int, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


def _percentile(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[min(int(q * len(sorted_vals)), len(sorted_vals) - 1)]


def _no_placement(**error: str) -> tuple[None, dict, None]:
    """Solver-error policy of the ops that treat a failed solve like one
    that found no placement; the error joins the solve info."""
    return None, error, None


class AllocationController:
    """Serialized, warm-started placement over one live platform."""

    def __init__(self,
                 nodes: NodeArray,
                 strategy: str = "METAHVPLIGHT",
                 workload: object = DEFAULT_MODEL,
                 deadline_ms: float | None = None,
                 cpu_need_scale: float = 0.05,
                 warm_start: bool = True,
                 rng: np.random.Generator | int | None = None,
                 faults: FaultInjector | None = None,
                 solver_retry: BackoffPolicy = DEFAULT_BACKOFF):
        self.state = ClusterState(nodes)
        #: The last committed state, replaced (never mutated) at the end
        #: of every transaction; read-side endpoints use it lock-free.
        self._committed: StateSnapshot = self.state.checkpoint()
        self.workload = workload
        self.deadline_ms = deadline_ms
        self.cpu_need_scale = cpu_need_scale
        self.warm_start = warm_start
        self._rng = as_generator(rng)
        # The journal attaches *after* construction: the initial
        # strategy is configuration, not an event (replay constructs
        # the controller with the same flags before folding the log).
        self._journal: EventJournal | None = None
        self._faults = faults
        self._solver_retry = solver_retry
        # Reentrant: set_strategy/sample_spec take it on their own when
        # called from HTTP handler threads, and from inside a transaction.
        self._lock = threading.RLock()
        self._solvers: dict[str, MetaSolver] = {}
        self._strategy = ""
        self.set_strategy(strategy)

        self._started = time.monotonic()
        self._next_id = 0
        # Warm-start memory: the last full search's certified yield.
        self._hint: float | None = None
        # Admission-control latency estimate and probation counter.
        self._full_ms: float | None = None
        self._degraded_streak = 0
        # Metrics live in a shared registry (rendered verbatim as the
        # Prometheus ``GET /metrics`` answer); the legacy JSON view is
        # derived from the same counters in :meth:`metrics`.  The raw
        # per-solve latency window stays alongside the histogram because
        # the JSON view reports *exact* percentiles, which fixed buckets
        # cannot reproduce.
        self.registry = obs.MetricsRegistry()
        reg = self.registry
        self._m_requests = reg.counter(
            "repro_requests_total", "HTTP requests handled.", ("endpoint",))
        self._m_request = reg.histogram(
            "repro_request_seconds",
            "HTTP request latency, the whole request.", ("endpoint",))
        self._m_parts = reg.histogram(
            "repro_request_part_seconds",
            "Write-request latency by part: lock wait, solve, journal "
            "append (write + flush + fsync) and the rest; the parts add "
            "up to the request.", ("part",))
        for part in TIMED_PARTS + ("other",):
            self._m_parts.labels(part=part)
        # Per handler thread: the parts of the request in flight.
        self._split = threading.local()
        self._m_admitted = reg.counter(
            "repro_admitted_total", "Services admitted.")
        self._m_rejected = reg.counter(
            "repro_rejected_total", "Admission requests rejected.")
        self._m_departed = reg.counter(
            "repro_departed_total", "Services departed.")
        self._m_solves = reg.counter(
            "repro_solves_total",
            "Placement solves by mode (full, degraded, fallback).",
            ("mode",))
        for mode in ("full", "degraded", "fallback"):
            self._m_solves.labels(mode=mode)  # scrape shows all modes
        self._m_warm = reg.counter(
            "repro_warm_solves_total",
            "Full solves that used a warm-start hint.")
        self._m_probes = reg.counter(
            "repro_solve_probes_total",
            "Feasibility-oracle probes across all full solves.")
        self._m_retries = reg.counter(
            "repro_solve_retries_total",
            "Solver invocations retried under the bounded backoff.")
        self._m_node_events = reg.counter(
            "repro_node_events_total",
            "Platform-changing operator events by kind (drain, add).",
            ("kind",))
        for kind in ("drain", "add"):
            self._m_node_events.labels(kind=kind)
        self._m_sla = reg.counter(
            "repro_sla_violations_total",
            "Services observed below their SLA yield floor at an event "
            "commit, by SLA class.", ("class",))
        for name in SLA_NAMES:
            self._m_sla.labels(**{"class": name})
        self._m_journal_errors = reg.counter(
            "repro_journal_errors_total",
            "Events refused because the journal write failed.")
        self._m_recovered = reg.counter(
            "repro_recovered_events_total",
            "Events replayed from the journal at startup.")
        self._m_latency = reg.histogram(
            "repro_solve_latency_seconds", "Placement solve latency.")
        reg.gauge("repro_active_services",
                  "Services currently placed.").set_function(
            lambda: float(len(self._committed.services)))
        reg.gauge("repro_minimum_yield",
                  "Minimum yield of the incumbent placement "
                  "(0 when no services are active).").set_function(
            lambda: min(self._committed.yields.values(), default=0.0))
        reg.gauge("repro_max_concurrent_solves",
                  "High-water mark of concurrent solves "
                  "(1 proves serialization).").set_function(
            lambda: float(self.max_concurrent_solves))
        reg.gauge("repro_uptime_seconds",
                  "Seconds since the controller started.").set_function(
            lambda: time.monotonic() - self._started)
        self.last_full_solve: dict | None = None
        self._latencies: deque[float] = deque(maxlen=4096)
        self._busy = 0
        self.max_concurrent_solves = 0

    # -- strategy ------------------------------------------------------
    @property
    def strategy(self) -> str:
        return self._strategy

    def available_strategies(self) -> tuple[str, ...]:
        return tuple(sorted(META_STRATEGY_FAMILIES))

    def set_strategy(self, name: str) -> None:
        if name not in META_STRATEGY_FAMILIES:
            raise ServiceError(
                400, f"unknown strategy {name!r}",
                available=sorted(META_STRATEGY_FAMILIES))
        with self._lock:
            if name == self._strategy:
                return
            if name not in self._solvers:
                self._solvers[name] = named_meta_solver(name)
            seq = self._append({"op": "strategy", "name": name},
                               "strategy unchanged")
            self._strategy = name
            self._after_commit(seq)

    # -- request plumbing ----------------------------------------------
    @contextmanager
    def request(self, endpoint: str | None, write: bool) -> Iterator[None]:
        """Count and time one HTTP request to *endpoint* (``None``: an
        unrouted request, neither counted nor timed).  A *write* also
        observes its four parts; ``other`` is the request minus the
        parts :meth:`_note` timed, so the parts add up to the request."""
        if endpoint is None:
            yield
            return
        self._m_requests.labels(endpoint=endpoint).inc()
        parts = self._split.parts = dict.fromkeys(TIMED_PARTS, 0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            total = time.perf_counter() - t0
            self._split.parts = None
            self._m_request.labels(endpoint=endpoint).observe(total)
            if write:
                for part, seconds in parts.items():
                    self._m_parts.labels(part=part).observe(seconds)
                self._m_parts.labels(part="other").observe(
                    max(0.0, total - sum(parts.values())))

    def _note(self, part: str, since: float) -> None:
        """Add the time since *since* to *part* of the request in flight
        on this thread (none during journal replay)."""
        parts = getattr(self._split, "parts", None)
        if parts is not None:
            parts[part] += time.perf_counter() - since

    def next_service_id(self) -> str:
        with self._lock:
            while True:
                sid = f"svc-{self._next_id}"
                self._next_id += 1
                if sid not in self.state:
                    return sid

    def sample_spec(self, sid: str | None = None,
                    sla: str = DEFAULT_SLA) -> ServiceSpec:
        """Draw one service from the configured workload model.

        CPU needs are scaled by ``cpu_need_scale`` (core units →
        capacity units) with the dynamic simulator's function,
        :func:`repro.workloads.scaling.scale_cpu_needs`; the other
        descriptors are used as generated.
        """
        if sla not in SLA_NAMES:
            raise ServiceError(
                400, f"unknown SLA class {sla!r}", available=list(SLA_NAMES))
        with self._lock:  # the RNG is not safe to share across threads
            services = self.workload.generate_services(1, rng=self._rng)
            sid = sid or self.next_service_id()
        services = scale_cpu_needs(services, self.cpu_need_scale)
        return ServiceSpec(sid,
                           services.req_elem[0].copy(),
                           services.req_agg[0].copy(),
                           services.need_elem[0].copy(),
                           services.need_agg[0].copy(), sla)

    # -- durability plumbing -------------------------------------------
    def attach_journal(self, journal: EventJournal) -> None:
        """Start journaling events (after any startup replay)."""
        with self._lock:
            self._journal = journal

    def quiesce(self) -> None:
        """Drain for shutdown: flush and close the journal under the
        lock, so no event can slip in after the final fsync."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()

    def _append(self, event: dict, refusal: str) -> int | None:
        """Durably journal *event* and return its sequence number, or
        count a journal error and refuse the event with a 503 (the
        caller has changed nothing yet, or rolls back)."""
        if self._journal is None:
            return None
        t0 = time.perf_counter()
        try:
            return self._journal.append(event)
        except Exception as exc:
            self._m_journal_errors.inc()
            raise ServiceError(
                503, f"journal write failed; {refusal}: {exc}") from exc
        finally:
            self._note("journal", t0)

    def _after_commit(self, seq: int | None) -> None:
        # Fault point: the event is durable and applied but the client
        # has not heard back — the crash window recovery must cover.
        if seq is not None and self._faults is not None:
            self._faults.on_event_committed(seq)

    def _observe_sla(self) -> dict[str, int]:
        """Count live services below their SLA floor (post-commit)."""
        counts: dict[str, int] = {}
        for spec in self.state.specs():
            achieved = self.state.yields.get(spec.sid, 0.0)
            if violates_floor(achieved, sla_floor(spec.sla)):
                self._m_sla.labels(**{"class": spec.sla}).inc()
                counts[spec.sla] = counts.get(spec.sla, 0) + 1
        return counts

    def replay_events(self, events: Sequence[Mapping]) -> int:
        """Rebuild state by replaying journaled *events* in order.

        Journaling and fault injection are suspended for the duration:
        replay must neither re-journal history nor re-trip the faults
        that shaped it.  Each record names the outcome the live daemon
        took, and replay forces it rather than re-deciding it, so the
        rebuilt state is digest-identical regardless of replay-time
        latency or the solver failures the live daemon met.  A replayed
        solve that fails aborts the replay.
        """
        journal, faults = self._journal, self._faults
        self._journal, self._faults = None, None
        try:
            with obs.span("service.recover") as sp:
                for event in events:
                    self._apply_event(event)
                if obs.enabled():
                    sp.annotate(events=len(events), active=len(self.state))
        finally:
            self._journal, self._faults = journal, faults
        self._m_recovered.inc(len(events))
        return len(events)

    def _apply_event(self, event: Mapping) -> None:
        op = event.get("op")
        if op == "admit":
            row = event["service"]
            spec = ServiceSpec.from_vectors(
                row["id"], row["req_elem"], row["req_agg"],
                row["need_elem"], row["need_agg"], self.state.nodes.dims,
                sla=row.get("sla", DEFAULT_SLA))
            self.admit(spec, mode=event.get("mode", "full"))
        elif op == "depart":
            self.depart(event["sid"], mode=event.get("mode", "full"))
        elif op == "drain":
            self.drain_node(str(event["node"]))
        elif op == "add_node":
            self.add_node(event["elementary"], event["aggregate"],
                          event.get("name"),
                          mode=("full" if event.get("resolved", True)
                                else "incumbent"))
        elif op == "strategy":
            self.set_strategy(event["name"])
        else:
            raise ValueError(f"journal event with unknown op {op!r}")

    # -- solving -------------------------------------------------------
    def _use_degraded(self) -> bool:
        if self.deadline_ms is None or self._full_ms is None:
            return False
        if self._full_ms <= self.deadline_ms:
            self._degraded_streak = 0
            return False
        self._degraded_streak += 1
        if self._degraded_streak >= PROBATION_PERIOD:
            self._degraded_streak = 0  # probation: refresh the estimate
            return False
        return True

    def _full_solve(self) -> tuple[Allocation | None, dict,
                                   np.ndarray | None]:
        """Warm-started full re-solve of the live set.  Returns the
        allocation (``None`` = infeasible), the solve info dict, and the
        local→global node map when drained nodes shrank the platform.

        The solver call runs under the bounded backoff: transient
        failures (including injected ones) are retried with increasing
        pauses, and only the exhausted retry budget propagates to the
        op's failure policy (:meth:`_solve_or`).
        """
        instance, node_map = self.state.solver_view()
        if instance is None:
            # Live services but no available nodes: trivially infeasible.
            return None, {"probes": 0, "latency_ms": 0.0, "warm": False,
                          "certified": None, "degraded": False}, None
        solver = self._solvers[self._strategy]
        hint = self._hint if self.warm_start else None

        def one_attempt() -> tuple[Allocation | None, dict]:
            attempt_stats: dict = {}
            if self._faults is not None:
                self._faults.on_solve()
            alloc = solver.solve_with_hint(instance, hint=hint,
                                           stats=attempt_stats)
            return alloc, attempt_stats

        def note_retry(attempt: int, exc: Exception) -> None:
            self._m_retries.inc()

        with obs.span("service.solve") as sp:
            t0 = time.perf_counter()
            alloc, stats = retry_bounded(one_attempt,
                                         policy=self._solver_retry,
                                         on_retry=note_retry)
            ms = (time.perf_counter() - t0) * 1e3
            if obs.enabled():
                sp.annotate(mode="full", strategy=self._strategy,
                            services=len(self.state),
                            probes=stats.get("probes", 0),
                            feasible=alloc is not None)
        self._full_ms = (ms if self._full_ms is None
                         else 0.5 * self._full_ms + 0.5 * ms)
        self._latencies.append(ms)
        self._m_latency.observe(ms / 1e3)
        probes = stats.get("probes", 0)
        self._m_solves.labels(mode="full").inc()
        self._m_probes.inc(probes)
        warm = bool(stats.get("hint_used", False))
        if warm:
            self._m_warm.inc()
        info = {"probes": probes, "latency_ms": ms, "warm": warm,
                "certified": stats.get("certified"), "degraded": False}
        if alloc is not None:
            self._hint = stats.get("certified")
            self.last_full_solve = info
        return alloc, info, node_map

    def _retained_allocation(self) -> Allocation | None:
        """Allocation from the incumbent placement (remaining services
        only), yields recomputed closed-form.  ``None`` when some live
        service has no incumbent node."""
        instance = self.state.build_instance()
        if instance is None:
            return None
        assigned = self.state.assignment_array()
        if (assigned < 0).any():
            return None
        return Allocation.uniform(instance, assigned, 0.0).improve_yields()

    def _greedy_admit(self, **extra: str) -> tuple[Allocation | None, dict,
                                                   None]:
        """The degraded path: the newcomer is admitted into the
        incumbent's requirement loads the way the dynamic simulator
        admits its arrivals (:func:`~repro.dynamic.incremental.
        place_newcomers`, drained nodes down); everything else stays
        put.  *extra* joins the solve info (the solver error that forced
        the fallback)."""
        instance = self.state.build_instance()
        assert instance is not None
        t0 = time.perf_counter()
        assigned = self.state.assignment_array()
        j = len(assigned) - 1  # the newcomer is the last row
        services, nodes = instance.services, self.state.nodes
        loads = rebuild_loads(assigned, services.req_agg, nodes)
        chosen = place_newcomers(
            services.req_elem[j:], services.req_agg[j:], loads, nodes,
            self.state.available_mask(), np.ones(len(nodes)))
        alloc = None
        if chosen[0] >= 0:
            assigned[j] = chosen[0]
            alloc = Allocation.uniform(instance, assigned,
                                       0.0).improve_yields()
        ms = (time.perf_counter() - t0) * 1e3
        self._latencies.append(ms)
        self._m_latency.observe(ms / 1e3)
        self._m_solves.labels(mode="degraded").inc()
        return alloc, {"probes": 0, "latency_ms": ms, "warm": False,
                       "certified": None, "degraded": True, **extra}, None

    def _solve_or(self, fallback: Callable[..., tuple],
                  replay: bool = False) -> tuple[Allocation | None, dict,
                                                 np.ndarray | None]:
        """:meth:`_full_solve` under an op's solver-error policy: once the
        retry budget is exhausted, ``fallback(solver_error=...)`` decides
        the outcome.  A *replay* runs the outcome its record names and
        never falls back — a replayed solve that fails aborts the replay.
        """
        try:
            return self._full_solve()
        except Exception as exc:
            if replay:
                raise
            return fallback(solver_error=str(exc))

    # -- the one transaction path --------------------------------------
    def _transact(self, count: Callable[[], None],
                  mutate: Callable[[], None],
                  solve: Callable[[], tuple[Allocation | None, dict,
                                            np.ndarray | None, dict]],
                  reply: Callable[[dict, dict, dict], dict]) -> dict:
        """Run one state-changing event, all or nothing.

        Under the lock, counted as one concurrent solve: checkpoint the
        state and the warm-start hint, run the op's *mutate* step, then
        its *solve* step — which applies the op's failure policy and
        returns ``(allocation, info, node_map, record)`` — and journal
        the record.  Any exception before the record is durable restores
        the checkpoint, so a refused or failed event leaves no trace.
        Then the allocation is adopted (``None`` keeps the incumbent)
        and the committed state is published for lock-free reads;
        *count* counts the event, SLAs are observed, ``reply(record,
        info, summary)`` builds the answer, and the post-commit fault
        hook fires.
        """
        t0 = time.perf_counter()
        with self._lock:
            self._note("lock_wait", t0)
            self._busy += 1
            self.max_concurrent_solves = max(self.max_concurrent_solves,
                                             self._busy)
            try:
                snap = self.state.checkpoint()
                hint_snap = (self._hint, self.last_full_solve)
                try:
                    mutate()
                    t1 = time.perf_counter()
                    try:
                        alloc, info, node_map, record = solve()
                    finally:
                        self._note("solve", t1)
                    seq = self._append(record, "event refused")
                except BaseException:
                    self.state.restore(snap)
                    self._hint, self.last_full_solve = hint_snap
                    raise
                if alloc is not None:
                    self.state.apply_allocation(
                        alloc, info.get("certified"),
                        trace_id=obs.current_trace_id(), node_map=node_map)
                self._committed = self.state.checkpoint()
                count()
                summary = {"active": len(self.state),
                           "minimum_yield": self.state.minimum_yield(),
                           "certified_yield": self.state.certified,
                           "sla_violations": self._observe_sla()}
                response = reply(record, info, summary)
                self._after_commit(seq)
                return response
            finally:
                self._busy -= 1

    # -- the state-changing operations ---------------------------------
    def admit(self, spec: ServiceSpec, mode: str | None = None) -> dict:
        """Admit *spec*: re-solve (or greedy-probe) and adopt the result.
        Raises :class:`ServiceError` (409) when the service cannot be
        placed; the state is untouched in that case.  *mode* forces the
        journaled solve path during replay (``"full"``/``"greedy"``);
        live requests leave it ``None`` and let admission control pick.
        """
        trace_id = obs.current_trace_id()

        def mutate() -> None:
            if spec.sid in self.state:
                raise ServiceError(409, "duplicate service id", id=spec.sid)
            try:
                self.state.add(spec)
            except ValueError as exc:
                raise ServiceError(400, str(exc)) from None
            if trace_id is not None:
                self.state.trace_ids[spec.sid] = trace_id

        def solve() -> tuple:
            greedy = self._use_degraded() if mode is None else mode == "greedy"
            if greedy:
                alloc, info, node_map = self._greedy_admit()
            else:
                # Retry budget exhausted: degrade rather than refuse (the
                # greedy probe is bounded and solver-free).
                alloc, info, node_map = self._solve_or(
                    self._greedy_admit, replay=mode is not None)
            if alloc is None:
                self._m_rejected.inc()
                raise ServiceError(
                    409, "admission rejected", id=spec.sid,
                    reason=("no node fits the requirements (degraded "
                            "greedy probe)" if info["degraded"] else
                            "no strategy packs the live set even at "
                            "yield 0"))
            return alloc, info, node_map, {
                "op": "admit", "service": spec.as_json(),
                "mode": "greedy" if info["degraded"] else "full"}

        def reply(record: dict, info: dict, summary: dict) -> dict:
            node = self.state.placement[spec.sid]
            return {"id": spec.sid, "sla": spec.sla, "node": node,
                    "node_name": self.state.nodes.names[node],
                    "yield": self.state.yields[spec.sid], **summary,
                    "trace": trace_id, **info}

        return self._transact(self._m_admitted.inc, mutate, solve, reply)

    def depart(self, sid: str, mode: str | None = None) -> dict:
        """Remove service *sid* and re-solve the remaining set.  Raises
        :class:`ServiceError` (404) for an unknown id.  *mode* forces
        the journaled solve path during replay
        (``"full"``/``"retained"``/``"empty"``).
        """
        def mutate() -> None:
            if sid not in self.state:
                raise ServiceError(404, "unknown service id", id=sid)
            self.state.remove(sid)

        def solve() -> tuple:
            record = {"op": "depart", "sid": sid, "mode": "empty"}
            if not len(self.state):
                return None, {"degraded": False}, None, record
            full = not self._use_degraded() if mode is None else mode == "full"
            alloc, info, node_map = None, {}, None
            if full:
                alloc, info, node_map = self._solve_or(
                    _no_placement, replay=mode is not None)
            if alloc is None:
                # Degraded mode, no placement, or a solver outage: keep
                # the incumbent placement (dropping a service never
                # invalidates it) and recompute yields.
                alloc = self._retained_allocation()
                if alloc is None:  # an incumbent was never placed
                    raise ServiceError(500, "re-solve failed after "
                                            "departure", id=sid)
                self._m_solves.labels(mode="fallback").inc()
                info = {**info, "certified": None, "degraded": True}
                node_map = None
            record["mode"] = "retained" if info["degraded"] else "full"
            return alloc, info, node_map, record

        def reply(record: dict, info: dict, summary: dict) -> dict:
            return {"id": sid, **summary, **info}

        return self._transact(self._m_departed.inc, mutate, solve, reply)

    def drain_node(self, ident: str) -> dict:
        """Evacuate node *ident* (index or name): re-solve the live set
        over the remaining nodes and adopt the result.  Refused with 409
        when the survivors cannot host the live set — a drain never
        degrades the placement below feasibility."""
        idx = -1

        def mutate() -> None:
            nonlocal idx
            try:
                idx = self.state.resolve_node(ident)
            except KeyError as exc:
                raise ServiceError(404, str(exc)) from None
            try:
                self.state.drain_node(idx)
            except ValueError as exc:
                raise ServiceError(409, str(exc)) from None

        def refuse(**error: str) -> NoReturn:
            raise ServiceError(409, "drain refused: remaining nodes cannot "
                                    "host the live set", node=idx, **error)

        def solve() -> tuple:
            alloc, info, node_map = None, {}, None
            if len(self.state):
                alloc, info, node_map = self._solve_or(refuse)
                if alloc is None:
                    refuse()
            return alloc, info, node_map, {
                "op": "drain", "node": idx, "resolved": alloc is not None}

        def reply(record: dict, info: dict, summary: dict) -> dict:
            return {"node": idx, "node_name": self.state.nodes.names[idx],
                    "drained": sorted(self.state.drained),
                    "resolved": record["resolved"], **summary}

        return self._transact(self._m_node_events.labels(kind="drain").inc,
                              mutate, solve, reply)

    def add_node(self, elementary: Sequence[float],
                 aggregate: Sequence[float],
                 name: str | None = None, mode: str | None = None) -> dict:
        """Grow the platform by one node and re-solve opportunistically.
        The incumbent placement is kept when the solver fails or finds
        no placement — adding capacity never invalidates it.  *mode*
        forces the journaled outcome during replay (``"full"`` re-solves,
        ``"incumbent"`` keeps the incumbent placement)."""
        idx = -1

        def mutate() -> None:
            nonlocal idx
            try:
                idx = self.state.add_node(elementary, aggregate, name)
            except ValueError as exc:
                raise ServiceError(400, str(exc)) from None

        def solve() -> tuple:
            alloc, info, node_map = None, {}, None
            if len(self.state) and mode != "incumbent":
                alloc, info, node_map = self._solve_or(
                    _no_placement, replay=mode is not None)
            return alloc, info, node_map, {
                "op": "add_node",
                "elementary": list(np.asarray(elementary, float)),
                "aggregate": list(np.asarray(aggregate, float)),
                "name": name, "resolved": alloc is not None}

        def reply(record: dict, info: dict, summary: dict) -> dict:
            return {"node": idx, "node_name": self.state.nodes.names[idx],
                    "hosts": len(self.state.nodes),
                    "resolved": record["resolved"], **summary}

        return self._transact(self._m_node_events.labels(kind="add").inc,
                              mutate, solve, reply)

    # -- read-side endpoints -------------------------------------------
    def snapshot(self) -> dict:
        """``GET /state``: the last committed state, rendered without
        the lock (the published snapshot is never mutated)."""
        committed = self._committed
        view = ClusterState(committed.nodes)
        view.restore(committed)
        snap = view.snapshot()
        snap["strategy"] = self._strategy
        snap["workload"] = workload_id(self.workload)
        return snap

    def healthz(self) -> dict:
        return {"status": "ok",
                "uptime_s": time.monotonic() - self._started,
                "active": len(self._committed.services)}

    def render_metrics(self) -> str:
        """Prometheus text exposition of the registry (``GET /metrics``)."""
        return self.registry.render()

    def _solve_count(self, mode: str) -> int:
        return int(self._m_solves.labels(mode=mode).value)

    def metrics(self) -> dict:
        """Legacy JSON view (``GET /metrics?format=json``), derived from
        the registry counters; the shape predates the registry and is
        kept stable for the tests and the soak driver."""
        lat = sorted(self._latencies)
        if lat:
            latency = {"count": len(lat),
                       "mean": float(np.mean(lat)),
                       "p50": _percentile(lat, 0.50),
                       "p90": _percentile(lat, 0.90),
                       "p99": _percentile(lat, 0.99),
                       "max": lat[-1]}
        else:
            latency = {"count": 0}
        requests = {key[0]: int(child.value)
                    for key, child in self._m_requests.children().items()}
        return {
            "uptime_s": time.monotonic() - self._started,
            "requests": dict(sorted(requests.items())),
            "admission": {"admitted": int(self._m_admitted.value),
                          "rejected": int(self._m_rejected.value),
                          "departed": int(self._m_departed.value),
                          "active": len(self._committed.services)},
            "solver": {"strategy": self._strategy,
                       "deadline_ms": self.deadline_ms,
                       "full_solves": self._solve_count("full"),
                       "warm_solves": int(self._m_warm.value),
                       "degraded_solves": self._solve_count("degraded"),
                       "fallback_solves": self._solve_count("fallback"),
                       "solver_retries": int(self._m_retries.value),
                       "journal_errors": int(
                           self._m_journal_errors.value),
                       "total_probes": int(self._m_probes.value),
                       "last_full_solve": self.last_full_solve,
                       "max_concurrent_solves": self.max_concurrent_solves},
            "solve_latency_ms": latency,
        }
