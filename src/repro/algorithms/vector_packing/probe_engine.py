"""The per-strategy META* engine: shared work across binary-search probes.

The METAHVP hot path is a binary search whose every probe asks "can some
strategy pack the instance at yield *y*?".  A fresh
:class:`~.strategies.ProbeContext` per probe would redo two
``(J, H, D)`` broadcasts (elementary-fit table, trivial-infeasibility
check) plus the bin sort orders every time.  Demands are *affine* in
the yield (``req + y·need`` with ``need >= 0``), which this module
exploits three ways:

* :class:`YieldProbeFactory` precomputes, once per instance, the largest
  yield at which each (item, bin) pair still fits — elementarily and in
  aggregate.  Every probe's ``(J, H)`` elementary-fit table is then a
  single comparison against the threshold table (the table only *shrinks*
  as ``y`` grows), trivial infeasibility is an O(1) scalar test, and bin
  sort orders (which never depend on ``y``) are computed once and shared.

* :class:`FastProbeContext` memoizes strategy outcomes within a probe by
  their *effective inputs* (packer, item order, bin order): strategies
  whose sort metrics happen to induce identical orders at this yield are
  answered without re-packing.

* :class:`MetaProbeEngine` adaptively reorders the strategy scan: the
  strategy that packed the last feasible probe is tried first at the next
  one, collapsing the up-to-253-strategy scan to ~1 attempt on most
  feasible probes.  Feasibility ("does *some* strategy pack") is
  unchanged, so the certified yield matches a fixed-order scan; only the
  tie-break among succeeding strategies — and hence the returned
  placement — may differ.

:func:`~.batch_solve.make_engine` picks this engine when the fused
``probe_scan`` engine cannot run: on the numpy backend, and for PP/CP
codes too wide for an int64.  Its packers are the same functions on
every backend (:mod:`repro.kernels.packers`), so it computes the same
bits whichever backend is active.  The fused engine's factory is this
module's :class:`YieldProbeFactory`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ... import obs
from ...core.instance import ProblemInstance
from ...kernels import get_backend
from .sorting import SortStrategy, order_indices
from .state import PackingState, capacity_tolerance
from .strategies import BF, VPStrategy, execute_strategy

__all__ = [
    "YieldProbeFactory",
    "FastProbeContext",
    "MetaProbeEngine",
    "affine_fit_thresholds",
]


def affine_fit_thresholds(req: np.ndarray, need: np.ndarray,
                          cap: np.ndarray) -> np.ndarray:
    """``(J, H)`` largest yield at which each item still fits each bin.

    Entry ``(j, h)`` is the largest ``y`` with
    ``req[j] + y * need[j] <= cap[h]`` in every dimension: ``+inf`` when
    the item fits at any yield (no need in the binding dimensions),
    ``-inf`` when it fits at none (a rigid requirement already exceeds
    capacity).  *cap* should already include the feasibility tolerance.

    Dispatches to the active kernel backend (:mod:`repro.kernels`); the
    compiled backends build the table without the ``(J, H, D)``
    temporaries of the numpy broadcast.
    """
    return get_backend().affine_fit_thresholds(req, need, cap)


class YieldProbeFactory:
    """Per-instance precomputation shared by all probes of a yield search."""

    def __init__(self, instance: ProblemInstance,
                 thresholds: Optional[tuple] = None):
        sv, nd = instance.services, instance.nodes
        self.instance = instance
        #: Aggregate fit bound: each bin's capacity plus its tolerance.
        self.cap_tol = nd.aggregate + capacity_tolerance(nd.aggregate)
        with obs.span("meta.factory") as sp:
            if thresholds is not None:
                # Precomputed (elementary, aggregate) threshold tables —
                # batched solving builds them for a whole batch in one
                # kernel call and hands each instance its slice.
                self.y_elem_max, y_agg_max = thresholds
            else:
                self.y_elem_max = affine_fit_thresholds(
                    sv.req_elem, sv.need_elem,
                    nd.elementary + capacity_tolerance(nd.elementary))
                y_agg_max = affine_fit_thresholds(
                    sv.req_agg, sv.need_agg, self.cap_tol)
            # Largest yield at which every item still has *some* bin that
            # fits it in isolation; above it the probe is trivially
            # infeasible.
            per_item = np.minimum(self.y_elem_max, y_agg_max).max(
                axis=1, initial=-np.inf)
            self.infeasible_above = float(per_item.min(initial=np.inf))
            if obs.enabled():
                sp.annotate(services=len(sv), hosts=len(nd),
                            backend=get_backend().name)
        self._bin_orders: dict[SortStrategy, np.ndarray] = {}

    def bin_order(self, sort: SortStrategy) -> np.ndarray:
        """Bin sort order — static across probes (capacities don't move)."""
        order = self._bin_orders.get(sort)
        if order is None:
            order = order_indices(self.instance.nodes.aggregate, sort)
            self._bin_orders[sort] = order
        return order

    def probe(self, y: float) -> Optional["FastProbeContext"]:
        """Probe context at yield *y*, or ``None`` if trivially infeasible."""
        if y > self.infeasible_above:
            return None
        state = PackingState(self.instance, y, elem_ok=self.y_elem_max >= y)
        return FastProbeContext(self, state)


class FastProbeContext:
    """One probe's scratch state, backed by a :class:`YieldProbeFactory`.

    Same interface as :class:`~.strategies.ProbeContext` (``state``,
    ``infeasible``, ``item_order``, ``bin_order``, ``run``), but bin orders
    come from the factory and strategy outcomes are memoized by their
    effective inputs.
    """

    def __init__(self, factory: YieldProbeFactory, state: PackingState):
        self.factory = factory
        self.state = state
        self.infeasible = False
        self._item_orders: dict[SortStrategy, np.ndarray] = {}
        self._outcomes: dict[tuple, Optional[np.ndarray]] = {}

    def item_order(self, sort: SortStrategy) -> np.ndarray:
        order = self._item_orders.get(sort)
        if order is None:
            order = order_indices(self.state.item_agg, sort)
            self._item_orders[sort] = order
        return order

    def bin_order(self, sort: SortStrategy) -> np.ndarray:
        return self.factory.bin_order(sort)

    def run(self, strategy: VPStrategy) -> Optional[np.ndarray]:
        """Run one strategy (memoized); placement array or ``None``."""
        item_order = self.item_order(strategy.item_sort)
        if strategy.packer == BF:
            bin_order = None
            sig = (BF, strategy.hetero, item_order.tobytes())
        else:
            bin_order = self.bin_order(strategy.bin_sort)
            sig = (strategy.packer, strategy.hetero, strategy.window,
                   item_order.tobytes(), bin_order.tobytes())
        if sig in self._outcomes:
            cached = self._outcomes[sig]
            return None if cached is None else cached.copy()
        placement = execute_strategy(self.state, strategy, item_order,
                                     bin_order)
        self._outcomes[sig] = placement
        return placement


class MetaProbeEngine:
    """Adaptive META* feasibility oracle for one instance.

    Callable with the ``(instance, y)`` packer signature expected by
    :func:`~repro.algorithms.yield_search.binary_search_max_yield`.  The
    engine is *stateful*: it remembers which strategy succeeded last
    (``hint``) and tries it first on subsequent probes.
    """

    def __init__(self, instance: ProblemInstance,
                 strategies: Sequence[VPStrategy],
                 factory: Optional[YieldProbeFactory] = None):
        if factory is not None and factory.instance is not instance:
            raise ValueError("factory was built for a different instance")
        self.strategies = tuple(strategies)
        self.factory = factory or YieldProbeFactory(instance)
        self.hint: Optional[int] = None
        # Introspection counters (probes answered, strategy executions).
        self.probes = 0
        self.strategy_runs = 0

    def __call__(self, instance: ProblemInstance,
                 y: float) -> Optional[np.ndarray]:
        if instance is not self.factory.instance:
            raise ValueError("engine is bound to a different instance")
        if not obs.enabled():
            return self._probe(instance, y)
        runs_before = self.strategy_runs
        hint_before = self.hint
        with obs.span("meta.probe") as sp:
            placement = self._probe(instance, y)
            sp.annotate(y=round(y, 6), feasible=placement is not None,
                        strategy_runs=self.strategy_runs - runs_before,
                        hint_hit=(placement is not None
                                  and self.hint == hint_before
                                  and hint_before is not None))
        return placement

    def _probe(self, instance: ProblemInstance,
               y: float) -> Optional[np.ndarray]:
        """One feasibility probe (the real work; tracing wraps it)."""
        self.probes += 1
        ctx = self.factory.probe(y)
        if ctx is None:
            return None
        hint = self.hint
        if hint is not None:
            self.strategy_runs += 1
            placement = ctx.run(self.strategies[hint])
            if placement is not None:
                return placement
        for i, strategy in enumerate(self.strategies):
            if i == hint:
                continue
            self.strategy_runs += 1
            placement = ctx.run(strategy)
            if placement is not None:
                self.hint = i
                return placement
        return None
