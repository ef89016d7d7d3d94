"""The META* engine selector, the fused probe engine, and ``solve_many``.

Every META* strategy list becomes a feasibility oracle through one
selector, :func:`make_engine`.  It picks :class:`FusedProbeEngine` when
the backend has a fused ``probe_scan`` kernel and every PP/CP selection
code fits an int64, and the per-strategy
:class:`~.probe_engine.MetaProbeEngine` otherwise (the numpy backend, and
PP/CP at astronomically high dimension counts).  Both engines have the
same observable behavior — same placements, certified yields,
``probes``/``strategy_runs`` counters and adaptive hint-first scan order
— so the choice only changes wall-clock (asserted by the cross-backend
equivalence tests).

:class:`FusedProbeEngine` answers each probe with **one** kernel call:
the strategy list is compiled once into an int64 strategy table (packer
id, item/bin order rows, window, flags) and bound, with the instance's
yield-independent arrays and every buffer a probe fills, into one
kernel table.  Each probe passes the backend's ``probe_scan`` only the
yield, the scan order and an assignment buffer; the kernel builds the
probe's demands, fit mask, waste limit and sort orders itself and
returns the first strategy that packs together with its placement.  The
per-strategy engine instead pays a Python-level kernel round trip per
strategy tried.

:func:`solve_many` carries a whole batch of instances through the
selector: one batched kernel call builds every instance's yield-threshold
tables (:class:`~repro.kernels.batch.BatchInstances` +
``batch_fit_thresholds``), then the per-instance searches run — from a
thread pool when multiple cores are available; ctypes releases the GIL
around every C kernel call, so the scans themselves run in parallel.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from ... import obs
from ...core.allocation import Allocation
from ...core.instance import ProblemInstance
from ...kernels import get_backend
from ...kernels.api import SORT_METRICS, ProbeScanArgs
from ...kernels.batch import BatchInstances
from ..yield_search import DEFAULT_TOLERANCE, binary_search_max_yield
from .permutation_pack import codes_overflow
from .probe_engine import MetaProbeEngine, YieldProbeFactory
from .state import WASTE_MARGIN_RTOL, capacity_tolerance
from .strategies import BF, CP, FF, PP, VPStrategy

__all__ = ["FusedProbeEngine", "make_engine", "solve_many"]


class FusedProbeEngine:
    """One-kernel-call-per-probe META* feasibility oracle.

    Construction compiles the strategy list into a flat table and binds
    it, with the instance's yield-independent arrays, to the backend's
    ``probe_scan`` kernel once (``backend.bind_probe_scan``).  Build it
    through :func:`make_engine`, which only picks it for backend/instance
    pairs that can run fused.

    The kernel derives each probe's spare capacity as a waste limit, so
    a FF or PP/CP run that cannot pack stops as soon as its closed bins
    leave more capacity unused (``cut_runs`` counts them); outcomes and
    ``strategy_runs`` are those of full runs.
    """

    def __init__(self, instance: ProblemInstance,
                 strategies: Sequence[VPStrategy],
                 factory: Optional[YieldProbeFactory] = None):
        if factory is not None and factory.instance is not instance:
            raise ValueError("factory was built for a different instance")
        self.strategies = tuple(strategies)
        self.factory = factory or YieldProbeFactory(instance)
        self.instance = instance
        self.backend = get_backend()
        self.hint: Optional[int] = None
        self.probes = 0
        self.strategy_runs = 0
        self.cut_runs = 0

        sv, nd = instance.services, instance.nodes
        J, H = len(sv), len(nd)
        D = sv.req_agg.shape[1]
        self._J = J
        cap_tol = np.ascontiguousarray(
            nd.aggregate + capacity_tolerance(nd.aggregate))
        bin_agg = np.ascontiguousarray(nd.aggregate, dtype=np.float64)

        # Unique item sorts / bin sorts in first-appearance order.
        self._item_sorts = list(dict.fromkeys(
            st.item_sort for st in self.strategies))
        item_index = {sort: i for i, sort in enumerate(self._item_sorts)}
        bin_sorts = list(dict.fromkeys(
            st.bin_sort for st in self.strategies if st.packer != BF))
        bin_index = {sort: i for i, sort in enumerate(bin_sorts)}
        if bin_sorts:
            bin_orders = np.ascontiguousarray(
                np.stack([self.factory.bin_order(s) for s in bin_sorts]),
                dtype=np.int64)
        else:
            bin_orders = np.empty((0, H), dtype=np.int64)

        # The strategy table (see _loops.probe_scan for semantics).
        S = len(self.strategies)
        cols = {name: np.empty(S, dtype=np.int64) for name in
                ("packer", "item", "bin", "hetero", "w", "choose", "cfg")}
        cfgs: dict = {}  # D == 2 walk configs: (w, choose, item row)
        for s, st in enumerate(self.strategies):
            cols["item"][s] = item_index[st.item_sort]
            cols["hetero"][s] = 1 if st.hetero else 0
            cols["w"][s] = 1
            cols["choose"][s] = 0
            cols["cfg"][s] = -1
            if st.packer == FF:
                cols["packer"][s] = 0
                cols["bin"][s] = bin_index[st.bin_sort]
            elif st.packer == BF:
                cols["packer"][s] = 1
                cols["bin"][s] = -1
            else:
                cols["packer"][s] = 2
                cols["bin"][s] = bin_index[st.bin_sort]
                w = D if st.window is None else max(1, min(st.window, D))
                cols["w"][s] = w
                choose = 1 if st.packer == CP else 0
                cols["choose"][s] = choose
                if D == 2:
                    cols["cfg"][s] = cfgs.setdefault(
                        (w, choose, int(cols["item"][s])), len(cfgs))
        cfg = np.array(list(cfgs), dtype=np.int64).reshape(len(cfgs), 3)
        self._table = self.backend.bind_probe_scan(ProbeScanArgs(
            req_agg=np.ascontiguousarray(sv.req_agg, dtype=np.float64),
            need_agg=np.ascontiguousarray(sv.need_agg, dtype=np.float64),
            y_elem_max=np.ascontiguousarray(self.factory.y_elem_max,
                                            dtype=np.float64),
            cap_tol=cap_tol, cap_tol_total=cap_tol.sum(axis=0),
            bin_agg=bin_agg,
            bin_agg_sum=np.ascontiguousarray(bin_agg.sum(axis=1)),
            bin_orders=bin_orders,
            sort_metric=np.array([SORT_METRICS.index(sort.metric)
                                  for sort in self._item_sorts], np.int64),
            sort_desc=np.array([sort.descending
                                for sort in self._item_sorts], np.int64),
            st_packer=cols["packer"], st_item=cols["item"],
            st_bin=cols["bin"], st_hetero=cols["hetero"], st_w=cols["w"],
            st_choose=cols["choose"], st_cfg=cols["cfg"],
            cfg_w=np.ascontiguousarray(cfg[:, 0]),
            cfg_choose=np.ascontiguousarray(cfg[:, 1]),
            cfg_item=np.ascontiguousarray(cfg[:, 2]),
            waste_rtol=WASTE_MARGIN_RTOL))
        self._scan_cold = np.arange(S, dtype=np.int64)

    @property
    def hint_strategy(self) -> Optional[VPStrategy]:
        """The strategy that packed the most recent feasible probe."""
        return None if self.hint is None else self.strategies[self.hint]

    def __call__(self, instance: ProblemInstance,
                 y: float) -> Optional[np.ndarray]:
        if instance is not self.instance:
            raise ValueError("engine is bound to a different instance")
        if not obs.enabled():
            return self._probe(y)
        runs_before = self.strategy_runs
        cuts_before = self.cut_runs
        hint_before = self.hint
        with obs.span("meta.probe") as sp:
            placement = self._probe(y)
            sp.annotate(y=round(y, 6), feasible=placement is not None,
                        strategy_runs=self.strategy_runs - runs_before,
                        cut_runs=self.cut_runs - cuts_before,
                        hint_hit=(placement is not None
                                  and self.hint == hint_before
                                  and hint_before is not None))
        return placement

    def _probe(self, y: float) -> Optional[np.ndarray]:
        """One fused feasibility probe."""
        self.probes += 1
        if y > self.factory.infeasible_above:
            return None
        hint = self.hint
        scan = self._scan_cold
        if hint is not None:
            # Hint-first, then list order — the MetaProbeEngine scan.
            scan = np.concatenate(
                (scan[hint:hint + 1], scan[:hint], scan[hint + 1:]))
        assignment = np.empty(self._J, dtype=np.int64)
        si, cuts = self.backend.probe_scan(self._table, y, scan, assignment)
        self.cut_runs += cuts
        if si < 0:
            self.strategy_runs += scan.shape[0]
            return None
        self.strategy_runs += si + 1
        self.hint = int(scan[si])
        return assignment


def _codes_fit_int64(instance: ProblemInstance,
                     strategies: Sequence[VPStrategy]) -> bool:
    """Whether every PP/CP strategy's packed selection codes fit an int64;
    the ones that do not run the legacy PP kernel, which only the
    per-strategy engine reaches."""
    J = len(instance.services)
    D = instance.services.req_agg.shape[1]
    for st in strategies:
        if st.packer in (PP, CP):
            w = D if st.window is None else max(1, min(st.window, D))
            if codes_overflow(D, w, J):
                return False
    return True


def make_engine(instance: ProblemInstance,
                strategies: Sequence[VPStrategy],
                factory: Optional[YieldProbeFactory] = None):
    """The META* feasibility oracle for *strategies* on *instance*.

    The fused engine when the active backend has a ``probe_scan`` kernel
    and every PP/CP code fits an int64, else the per-strategy adaptive
    engine — identical observable behavior.  The choice is made before
    either engine compiles anything, and traced as one ``meta.engine``
    event per oracle.
    """
    backend = get_backend()
    fused = (backend.supports_probe_scan
             and _codes_fit_int64(instance, strategies))
    if obs.enabled():
        obs.event("meta.engine", {
            "engine": "fused" if fused else "per-strategy",
            "strategies": len(strategies),
            "backend": backend.name,
            "services": len(instance.services),
            "hosts": len(instance.nodes),
        })
    if fused:
        return FusedProbeEngine(instance, strategies, factory)
    return MetaProbeEngine(instance, strategies, factory)


def _batched_factories(
        instances: Sequence[ProblemInstance]) -> List[YieldProbeFactory]:
    """Per-instance probe factories off one batched threshold kernel call.

    Bit-identical to per-instance construction: the batched kernel runs
    the same scalar threshold arithmetic per (item, bin) pair, and each
    instance reads back exactly its rows.
    """
    batch = BatchInstances.from_ragged(
        [(inst.services.req_elem, inst.services.req_agg,
          inst.services.need_elem, inst.services.need_agg)
         for inst in instances],
        [(inst.nodes.elementary, inst.nodes.aggregate)
         for inst in instances])
    backend = get_backend()
    cap_elem = batch.cap_elem + capacity_tolerance(batch.cap_elem)
    cap_agg = batch.cap_agg + capacity_tolerance(batch.cap_agg)
    ye_all = backend.batch_fit_thresholds(
        batch.req_elem, batch.need_elem, cap_elem,
        batch.n_items, batch.n_bins)
    ya_all = backend.batch_fit_thresholds(
        batch.req_agg, batch.need_agg, cap_agg,
        batch.n_items, batch.n_bins)
    factories = []
    for b, inst in enumerate(instances):
        j = int(batch.n_items[b])
        h = int(batch.n_bins[b])
        factories.append(YieldProbeFactory(inst, thresholds=(
            np.ascontiguousarray(ye_all[b, :j, :h]),
            np.ascontiguousarray(ya_all[b, :j, :h]))))
    return factories


def solve_many(
    instances: Sequence[ProblemInstance],
    strategies: Sequence[VPStrategy],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    improve: bool = True,
    hints: Optional[Sequence[Optional[float]]] = None,
    stats: Optional[Sequence[dict]] = None,
    threads: Optional[int] = None,
) -> List[Optional[Allocation]]:
    """Solve a batch of instances with one META* strategy list.

    Equivalent to (and bit-identical with) a loop of per-instance
    ``MetaSolver.solve_with_hint`` calls, but with shared batched
    precomputation and one fused kernel call per probe.  *hints* and
    *stats* are per-instance, parallel to *instances*; each stats dict is
    filled by the yield search and additionally receives ``seconds``
    (this instance's solve wall-clock).  *threads* caps the worker pool
    (default: one per instance up to the CPU count; pass 1 to force
    in-thread execution).
    """
    B = len(instances)
    if B == 0:
        return []
    if hints is not None and len(hints) != B:
        raise ValueError("hints length must match instances")
    if stats is not None and len(stats) != B:
        raise ValueError("stats length must match instances")
    dims = {inst.services.req_agg.shape[1] for inst in instances}
    backend = get_backend()
    with obs.span("kernel.batch") as sp:
        if B > 1 and len(dims) == 1:
            factories = _batched_factories(instances)
        else:
            factories = [None] * B  # engines build their own
        engines = [make_engine(inst, strategies, factories[i])
                   for i, inst in enumerate(instances)]
        fused = sum(1 for e in engines if isinstance(e, FusedProbeEngine))
        if obs.enabled():
            sp.annotate(batch=B, backend=backend.name,
                        dim=(dims.pop() if len(dims) == 1 else None),
                        fused=fused)

        def solve_one(i: int) -> Optional[Allocation]:
            st = stats[i] if stats is not None else {}
            start = time.perf_counter()
            alloc = binary_search_max_yield(
                instances[i], engines[i], tolerance=tolerance,
                improve=improve,
                hint=None if hints is None else hints[i], stats=st)
            st["seconds"] = time.perf_counter() - start
            return alloc

        if threads is None:
            threads = min(B, os.cpu_count() or 1)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(solve_one, range(B)))
        else:
            results = [solve_one(i) for i in range(B)]
    return results
