"""The META* engine selector, the fused probe engine, and ``solve_many``.

Every META* strategy list becomes a feasibility oracle through one
selector, :func:`make_engine`.  It picks :class:`FusedProbeEngine` when
the backend has a fused ``probe_scan`` kernel and every PP/CP selection
code fits an int64, and the per-strategy
:class:`~.probe_engine.MetaProbeEngine` otherwise (the numpy backend, and
PP/CP whose codes overflow an int64, ``kernels.api.codes_overflow``).
Both engines have the same observable behavior — same placements,
certified yields, ``probes``/``strategy_runs`` counters and adaptive
hint-first scan order — so the choice only changes wall-clock (asserted
by the cross-backend equivalence tests).

:class:`FusedProbeEngine` answers each probe with **one** kernel call:
the strategy list is compiled into an int64 strategy table (packer id,
item/bin order rows, window, flags; :class:`StrategyTable`, which a
:class:`~.meta.MetaSolver` keeps for all its solves) and bound,
with the instance's yield-independent arrays and every buffer a probe
fills, into one kernel table.  Each probe passes the backend's
``probe_scan`` only the yield, the scan order and an assignment buffer;
the kernel builds the probe's demands, fit mask, waste limit and sort
orders itself and returns the first strategy that packs together with
its placement.  The per-strategy engine instead runs the packers
every backend shares (:mod:`repro.kernels.packers`), one Python-level
call per strategy tried.

:func:`solve_many` solves a list of instances: each gets its engine from
:func:`make_engine`, exactly as ``MetaSolver.solve_with_hint`` builds
it, and the searches run from a thread pool when multiple cores are
available; ctypes releases the GIL around every C kernel call, so the
scans themselves run in parallel.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ... import obs
from ...core.allocation import Allocation
from ...core.instance import ProblemInstance
from ...kernels import get_backend
from ...kernels.api import SORT_METRICS, ProbeScanArgs, codes_overflow
from ..yield_search import DEFAULT_TOLERANCE, binary_search_max_yield
from .probe_engine import MetaProbeEngine, YieldProbeFactory
from .state import WASTE_MARGIN_RTOL
from .strategies import BF, CP, FF, VPStrategy

__all__ = ["FusedProbeEngine", "StrategyTable", "make_engine", "solve_many"]


class StrategyTable:
    """A META* strategy list compiled for the fused probe kernel: the
    instance-independent part of a fused probe table.

    It holds the distinct item sorts and bin sorts in first-appearance
    order and, per dimension count, the table's columns: the strategy
    columns, the item sorts as metric codes and directions and, at two
    dimensions, the PP/CP walk configs (see :func:`._loops.probe_scan`
    for their meaning).  Each dimension count is compiled on first use
    and kept; the arrays are read-only, since every engine built from
    the table shares them.  A :class:`~.meta.MetaSolver` keeps one table
    for all its solves.
    """

    def __init__(self, strategies: Sequence[VPStrategy]):
        self.strategies = tuple(strategies)
        self.item_sorts = list(dict.fromkeys(
            st.item_sort for st in self.strategies))
        self.bin_sorts = list(dict.fromkeys(
            st.bin_sort for st in self.strategies if st.packer != BF))
        # dims -> (the ProbeScanArgs columns, the widest PP/CP window).
        self._compiled: Dict[int, Tuple[Dict[str, np.ndarray], int]] = {}

    def columns(self, dims: int) -> Dict[str, np.ndarray]:
        """The :class:`~repro.kernels.api.ProbeScanArgs` fields the list
        fills for instances of *dims* resource dimensions."""
        return self._compile(dims)[0]

    def codes_fit_int64(self, dims: int, num_services: int) -> bool:
        """Whether every PP/CP selection code fits an int64 for an
        instance of *dims* dimensions and *num_services*; the ones that
        do not run the legacy PP kernel, which only the per-strategy
        engine reaches."""
        max_window = self._compile(dims)[1]
        return (max_window == 0
                or not codes_overflow(dims, max_window, num_services))

    def _compile(self, dims: int) -> Tuple[Dict[str, np.ndarray], int]:
        compiled = self._compiled.get(dims)
        if compiled is not None:
            return compiled
        item_index = {sort: i for i, sort in enumerate(self.item_sorts)}
        bin_index = {sort: i for i, sort in enumerate(self.bin_sorts)}
        S = len(self.strategies)
        cols = {name: np.empty(S, dtype=np.int64) for name in
                ("packer", "item", "bin", "hetero", "w", "choose", "cfg")}
        cfgs: dict = {}  # dims == 2 walk configs: (w, choose, item row)
        max_window = 0
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
                w = dims if st.window is None else max(1, min(st.window, dims))
                cols["w"][s] = w
                max_window = max(max_window, w)
                choose = 1 if st.packer == CP else 0
                cols["choose"][s] = choose
                if dims == 2:
                    cols["cfg"][s] = cfgs.setdefault(
                        (w, choose, int(cols["item"][s])), len(cfgs))
        cfg = np.array(list(cfgs), dtype=np.int64).reshape(len(cfgs), 3)
        columns = {
            "sort_metric": np.array([SORT_METRICS.index(sort.metric)
                                     for sort in self.item_sorts], np.int64),
            "sort_desc": np.array([sort.descending
                                   for sort in self.item_sorts], np.int64),
            **{f"st_{name}": col for name, col in cols.items()},
            "cfg_w": np.ascontiguousarray(cfg[:, 0]),
            "cfg_choose": np.ascontiguousarray(cfg[:, 1]),
            "cfg_item": np.ascontiguousarray(cfg[:, 2]),
        }
        for arr in columns.values():
            arr.flags.writeable = False
        compiled = self._compiled[dims] = (columns, max_window)
        return compiled


class FusedProbeEngine:
    """One-kernel-call-per-probe META* feasibility oracle.

    Construction binds the compiled strategy list (:class:`StrategyTable`)
    and the instance's yield-independent arrays to the backend's
    ``probe_scan`` kernel once (``backend.bind_probe_scan``).  Build it
    through :func:`make_engine`, which only picks it for backend/instance
    pairs that can run fused.

    The kernel derives each probe's spare capacity as a waste limit, so
    a FF, PP/CP or Best-Fit run that cannot pack stops as soon as its
    closed bins (Best-Fit: the bins too full for any item left) leave
    more capacity unused (``cut_runs`` counts them), and each bin scan
    stops where no item left can fit.  A bin no service fits
    elementarily at the probed yield (an idle bin) is wasted by every
    packing: its capacity comes off the limit up front and every packer
    skips it, and a probe whose busy bins cannot hold the demand is
    refused before any strategy runs (every run of its scan counts as
    cut).  A bin scan pays only for what it tests: First-Fit leaves its
    untested pending tail in place, a 2-D PP/CP walk starts each bin
    past the prefix of its order placed in earlier bins, and Best-Fit
    tests each item against its live bins only (``scanned`` counts the
    entries First-Fit tested, the walk positions visited and the live
    bins Best-Fit tested).  Each item order is sorted from the one the
    engine's previous probe left.  Outcomes and ``strategy_runs`` are
    those of full runs.
    """

    def __init__(self, instance: ProblemInstance, table: StrategyTable,
                 factory: Optional[YieldProbeFactory] = None):
        if factory is not None and factory.instance is not instance:
            raise ValueError("factory was built for a different instance")
        self.strategies = table.strategies
        self.factory = factory or YieldProbeFactory(instance)
        self.instance = instance
        self.backend = get_backend()
        self.hint: Optional[int] = None
        self.probes = 0
        self.strategy_runs = 0
        self.cut_runs = 0
        self.scanned = 0

        sv, nd = instance.services, instance.nodes
        self._J = len(sv)
        self._item_sorts = table.item_sorts
        if table.bin_sorts:
            bin_orders = np.stack([self.factory.bin_order(sort)
                                   for sort in table.bin_sorts])
        else:
            bin_orders = np.empty((0, len(nd)), dtype=np.int64)
        # The object model's arrays are C-contiguous float64 already, and
        # the bind checks (and copies) every one.
        cap_tol = self.factory.cap_tol
        self._table = self.backend.bind_probe_scan(ProbeScanArgs(
            req_agg=sv.req_agg, need_agg=sv.need_agg,
            y_elem_max=self.factory.y_elem_max,
            cap_tol=cap_tol, cap_tol_total=cap_tol.sum(axis=0),
            bin_agg=nd.aggregate, bin_agg_sum=nd.aggregate.sum(axis=1),
            bin_orders=bin_orders, **table.columns(instance.dims),
            waste_rtol=WASTE_MARGIN_RTOL))
        self._scan_cold = np.arange(len(self.strategies), dtype=np.int64)

    def __call__(self, instance: ProblemInstance,
                 y: float) -> Optional[np.ndarray]:
        if instance is not self.instance:
            raise ValueError("engine is bound to a different instance")
        if not obs.enabled():
            return self._probe(y)
        runs_before = self.strategy_runs
        cuts_before = self.cut_runs
        scanned_before = self.scanned
        hint_before = self.hint
        with obs.span("meta.probe") as sp:
            placement = self._probe(y)
            sp.annotate(y=round(y, 6), feasible=placement is not None,
                        strategy_runs=self.strategy_runs - runs_before,
                        cut_runs=self.cut_runs - cuts_before,
                        scanned=self.scanned - scanned_before,
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
        si, cuts, scanned = self.backend.probe_scan(self._table, y, scan,
                                                    assignment)
        self.cut_runs += cuts
        self.scanned += scanned
        if si < 0:
            self.strategy_runs += scan.shape[0]
            return None
        self.strategy_runs += si + 1
        self.hint = int(scan[si])
        return assignment


def make_engine(instance: ProblemInstance, table: StrategyTable,
                factory: Optional[YieldProbeFactory] = None):
    """The META* feasibility oracle for the strategy list *table* on
    *instance*.

    The fused engine when the active backend has a ``probe_scan`` kernel
    and every PP/CP code fits an int64, else the per-strategy adaptive
    engine — identical observable behavior.  The choice is made before
    either engine binds anything, and traced as one ``meta.engine``
    event per oracle.
    """
    backend = get_backend()
    fused = (backend.supports_probe_scan
             and table.codes_fit_int64(instance.dims,
                                       len(instance.services)))
    if obs.enabled():
        obs.event("meta.engine", {
            "engine": "fused" if fused else "per-strategy",
            "strategies": len(table.strategies),
            "backend": backend.name,
            "services": len(instance.services),
            "hosts": len(instance.nodes),
        })
    if fused:
        return FusedProbeEngine(instance, table, factory)
    return MetaProbeEngine(instance, table.strategies, factory)


def solve_many(
    instances: Sequence[ProblemInstance],
    table: StrategyTable,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    improve: bool = True,
    hints: Optional[Sequence[Optional[float]]] = None,
    stats: Optional[Sequence[dict]] = None,
    threads: Optional[int] = None,
) -> List[Optional[Allocation]]:
    """Solve a batch of instances with one META* strategy list, compiled
    as *table*.

    A loop of per-instance ``MetaSolver.solve_with_hint`` calls: each
    instance's engine comes from :func:`make_engine`, as there, so the
    results are the loop's bit for bit.  *hints* and *stats* are
    per-instance, parallel to *instances*; each stats dict is filled by
    the yield search and additionally receives ``seconds`` (this
    instance's solve wall-clock).  *threads* caps the worker pool
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
    with obs.span("kernel.batch") as sp:
        engines = [make_engine(inst, table) for inst in instances]
        if obs.enabled():
            dims = {inst.dims for inst in instances}
            sp.annotate(batch=B, backend=get_backend().name,
                        dim=(dims.pop() if len(dims) == 1 else None),
                        fused=sum(1 for e in engines
                                  if isinstance(e, FusedProbeEngine)))

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
