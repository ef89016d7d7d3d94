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
id, item/bin order rows, window, flags) and the backend's ``probe_scan``
kernel scans it at the probed yield, returning the first strategy that
packs together with its placement.  The per-strategy engine instead pays
a Python-level kernel round trip per strategy tried.

:func:`solve_many` carries a whole batch of instances through the
selector: one batched kernel call builds every instance's yield-threshold
tables (:class:`~repro.kernels.batch.BatchInstances` +
``batch_fit_thresholds``), then the per-instance searches run — from a
thread pool when multiple cores are available; the ``nogil`` numba
kernels and the C loops release the GIL for the scan itself.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from typing import List, Optional, Sequence

import numpy as np

from ... import obs
from ...core.allocation import Allocation
from ...core.instance import ProblemInstance
from ...kernels import get_backend
from ...kernels.api import ProbeScanArgs
from ...kernels.batch import BatchInstances
from ..yield_search import DEFAULT_TOLERANCE, binary_search_max_yield
from .permutation_pack import codes_overflow, packed_codes
from .probe_engine import MetaProbeEngine, YieldProbeFactory
from .sorting import SCALAR_METRICS, metric_values, order_indices
from .state import capacity_tolerance, waste_limit
from .strategies import BF, CP, FF, PP, VPStrategy

__all__ = ["FusedProbeEngine", "make_engine", "solve_many"]


class FusedProbeEngine:
    """One-kernel-call-per-probe META* feasibility oracle.

    Construction compiles the strategy list into the flat table the
    backend's ``probe_scan`` kernel consumes.  Build it through
    :func:`make_engine`, which only picks it for backend/instance pairs
    that can run fused.

    Each probe hands the kernel the instance's spare capacity as a waste
    limit, so a FF or PP/CP run that cannot pack stops as soon as its
    closed bins leave more capacity unused (``cut_runs`` counts them);
    outcomes and ``strategy_runs`` are those of full runs.
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

        nd = instance.nodes
        J = len(instance.services)
        H = len(nd)
        D = instance.services.req_agg.shape[1]
        self._J, self._H, self._D = J, H, D
        self._cap_tol = np.ascontiguousarray(
            nd.aggregate + capacity_tolerance(nd.aggregate))
        self._cap_tol_total = self._cap_tol.sum(axis=0)
        self._bin_agg = np.ascontiguousarray(nd.aggregate, dtype=np.float64)
        self._bin_agg_sum = np.ascontiguousarray(
            self._bin_agg.sum(axis=1))

        # Unique item sorts / bin sorts in first-appearance order, the item
        # sorts on a scalar metric first: their orders come from one
        # stacked argsort per probe (LEX and NONE keep order_indices).
        self._item_sorts = sorted(
            dict.fromkeys(st.item_sort for st in self.strategies),
            key=lambda sort: sort.metric not in SCALAR_METRICS)
        item_index = {sort: i for i, sort in enumerate(self._item_sorts)}
        scalar = [sort for sort in self._item_sorts
                  if sort.metric in SCALAR_METRICS]
        self._metrics = tuple(dict.fromkeys(sort.metric for sort in scalar))
        self._key_rows = np.array(
            [self._metrics.index(sort.metric) for sort in scalar], np.int64)
        self._key_signs = np.array(
            [[-1.0 if sort.descending else 1.0] for sort in scalar])
        bin_sorts = list(dict.fromkeys(
            st.bin_sort for st in self.strategies if st.packer != BF))
        bin_index = {sort: i for i, sort in enumerate(bin_sorts)}
        if bin_sorts:
            self._bin_orders = np.ascontiguousarray(
                np.stack([self.factory.bin_order(s) for s in bin_sorts]),
                dtype=np.int64)
        else:
            self._bin_orders = np.empty((0, H), dtype=np.int64)

        # The strategy table (see _loops.make_probe_scan for semantics).
        S = len(self.strategies)
        cols = {name: np.empty(S, dtype=np.int64) for name in
                ("packer", "item", "bin", "hetero", "w", "choose", "cfg")}
        walks = {}
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
                choose = st.packer == CP
                cols["choose"][s] = 1 if choose else 0
                if D == 2:
                    walks[s] = (w, choose, int(cols["item"][s]))
        # D == 2 walk configs, numbered by (w, choose, item row): each
        # (w, choose) group is a run of rows that one argsort serves.
        cfgs = sorted(set(walks.values()))
        for s, key in walks.items():
            cols["cfg"][s] = cfgs.index(key)
        self._cols = cols
        self._n_cfgs = len(cfgs)
        self._walk_groups = [
            (w, choose, np.array([row for _, _, row in group], np.int64))
            for (w, choose), group in groupby(cfgs, key=lambda k: k[:2])]
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

    def _scan_args(self, y: float, scan: np.ndarray) -> ProbeScanArgs:
        """The ``probe_scan`` inputs for scanning *scan* at yield *y*."""
        sv = self.instance.services
        J, D = self._J, self._D
        item_agg = np.ascontiguousarray(sv.req_agg + y * sv.need_agg)
        item_agg_sum = item_agg.sum(axis=1)
        elem_ok = np.ascontiguousarray(self.factory.y_elem_max >= y)
        SI = len(self._item_sorts)
        n = len(self._key_rows)
        item_orders = np.empty((SI, J), dtype=np.int64)
        if n:
            values = np.stack([metric_values(item_agg, metric)
                               for metric in self._metrics])
            item_orders[:n] = np.argsort(
                values[self._key_rows] * self._key_signs, axis=1,
                kind="stable")
        for row in range(n, SI):
            item_orders[row] = order_indices(item_agg, self._item_sorts[row])
        tie_ranks = np.empty((SI, J), dtype=np.int64)
        np.put_along_axis(tie_ranks, item_orders, np.broadcast_to(
            np.arange(J, dtype=np.int64), (SI, J)), axis=1)
        item_dim_perm = np.ascontiguousarray(
            np.argsort(-item_agg, axis=1, kind="stable"), dtype=np.int64)
        # pp_orders[k, c] walks config c under ranking (0, 1) for k = 0,
        # (1, 0) for k = 1: one argsort per (w, choose) group.
        pp_orders = np.empty((2, self._n_cfgs, J), dtype=np.int64)
        lo = 0
        for w, choose, rows in self._walk_groups:
            perm_w = item_dim_perm[:, :w]
            pp_orders[:, lo:lo + len(rows)] = np.argsort(np.stack([
                packed_codes(perm_w, ranking, D, J, tie_ranks[rows], choose)
                for ranking in ((0, 1), (1, 0))]), axis=2)
            lo += len(rows)
        cols = self._cols
        return ProbeScanArgs(
            item_agg=item_agg, item_agg_sum=item_agg_sum, elem_ok=elem_ok,
            cap_tol=self._cap_tol, bin_agg=self._bin_agg,
            bin_agg_sum=self._bin_agg_sum,
            waste_limit=waste_limit(self._cap_tol_total,
                                    item_agg.sum(axis=0)),
            item_orders=item_orders, tie_ranks=tie_ranks,
            bin_orders=self._bin_orders, item_dim_perm=item_dim_perm,
            pp_order0=pp_orders[0], pp_order1=pp_orders[1],
            st_packer=cols["packer"], st_item=cols["item"],
            st_bin=cols["bin"], st_hetero=cols["hetero"], st_w=cols["w"],
            st_choose=cols["choose"], st_cfg=cols["cfg"], scan=scan)

    def _probe(self, y: float) -> Optional[np.ndarray]:
        """One fused feasibility probe."""
        self.probes += 1
        if y > self.factory.infeasible_above:
            return None
        S = self._scan_cold.shape[0]
        hint = self.hint
        if hint is None:
            scan = self._scan_cold
        else:
            # Hint-first, then list order — the MetaProbeEngine scan.
            scan = np.empty(S, dtype=np.int64)
            scan[0] = hint
            scan[1:hint + 1] = self._scan_cold[:hint]
            scan[hint + 1:] = self._scan_cold[hint + 1:]
        si, assignment, cuts = self.backend.probe_scan(
            self._scan_args(y, scan))
        self.cut_runs += cuts
        if si < 0:
            self.strategy_runs += S
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
