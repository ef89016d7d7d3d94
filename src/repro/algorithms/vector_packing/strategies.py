"""Vector-packing strategy descriptors and the probe execution engine.

A *strategy* is one concrete heuristic: a packer (First-Fit, Best-Fit,
Permutation-Pack or Choose-Pack), an item sort, a bin sort (static pre-sort
of bins, heterogeneous algorithms only — Best-Fit imposes its own dynamic
order), and for PP/CP an optional window.

A *probe* answers one feasibility question (instance, yield).  All
strategies probed at the same yield share the demand arrays, the
elementary-fit table and the memoized sort orders through
:class:`ProbeContext` — this is what makes META* (which may try hundreds of
strategies per probe) affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...core.instance import ProblemInstance
from .best_fit import best_fit
from .first_fit import first_fit
from .permutation_pack import permutation_pack, rank_from_order
from .sorting import (
    ALL_SORTS,
    MAX,
    MAXDIFFERENCE,
    MAXRATIO,
    NONE_SORT,
    SUM,
    LEX,
    SortStrategy,
    order_indices,
)
from .state import PackingState

__all__ = [
    "FF", "BF", "PP", "CP",
    "VPStrategy",
    "ProbeContext",
    "execute_strategy",
    "run_strategy",
    "vp_strategies",
    "hvp_strategies",
    "hvp_light_strategies",
]

FF = "FF"
BF = "BF"
PP = "PP"
CP = "CP"
_PACKERS = (FF, BF, PP, CP)


@dataclass(frozen=True)
class VPStrategy:
    """One concrete vector-packing heuristic."""

    packer: str
    item_sort: SortStrategy
    bin_sort: SortStrategy = NONE_SORT
    hetero: bool = False
    window: int | None = None

    def __post_init__(self) -> None:
        if self.packer not in _PACKERS:
            raise ValueError(f"unknown packer {self.packer!r}")
        if self.packer == BF and not self.bin_sort.is_none:
            raise ValueError("Best-Fit imposes its own bin order; "
                             "bin_sort must be NONE")

    @property
    def name(self) -> str:
        prefix = "HVP" if self.hetero else "VP"
        parts = [prefix, self.packer, f"items={self.item_sort.name}"]
        if self.packer != BF:
            parts.append(f"bins={self.bin_sort.name}")
        if self.window is not None:
            parts.append(f"w={self.window}")
        return ":".join(parts)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def execute_strategy(state: PackingState, strategy: VPStrategy,
                     item_order: np.ndarray,
                     bin_order: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Run one strategy on a reset *state*; placement array or ``None``.

    The single execution core shared by :class:`ProbeContext` and the
    per-strategy engine's :class:`~.probe_engine.FastProbeContext`.
    *bin_order* is ignored for Best-Fit (which imposes its own dynamic
    bin order).
    """
    state.reset()
    if strategy.packer == FF:
        ok = first_fit(state, item_order, bin_order)
    elif strategy.packer == BF:
        ok = best_fit(state, item_order, by_remaining_capacity=strategy.hetero)
    else:
        ok = permutation_pack(
            state,
            rank_from_order(item_order),
            bin_order,
            window=strategy.window,
            choose_pack=strategy.packer == CP,
            rank_bins_by_remaining=strategy.hetero,
        )
    return state.result() if ok else None


class ProbeContext:
    """Shared scratch state for all strategies probed at one (instance, y).

    The direct-comparison probe: it builds its demand arrays and
    elementary-fit table straight from the instance, with no per-instance
    precomputation.  :func:`run_strategy` and the kernel tests use it as
    the reference for the META* engines' shared-probe contexts.
    """

    def __init__(self, instance: ProblemInstance, y: float):
        self.state = PackingState(instance, y)
        self.infeasible = self.state.trivially_infeasible()
        self._item_orders: dict[SortStrategy, np.ndarray] = {}
        self._bin_orders: dict[SortStrategy, np.ndarray] = {}

    def item_order(self, sort: SortStrategy) -> np.ndarray:
        order = self._item_orders.get(sort)
        if order is None:
            order = order_indices(self.state.item_agg, sort)
            self._item_orders[sort] = order
        return order

    def bin_order(self, sort: SortStrategy) -> np.ndarray:
        order = self._bin_orders.get(sort)
        if order is None:
            order = order_indices(self.state.bin_agg, sort)
            self._bin_orders[sort] = order
        return order

    def run(self, strategy: VPStrategy) -> Optional[np.ndarray]:
        """Run one strategy on a clean state; placement array or ``None``."""
        if self.infeasible:
            return None
        bin_order = (None if strategy.packer == BF
                     else self.bin_order(strategy.bin_sort))
        return execute_strategy(self.state, strategy,
                                self.item_order(strategy.item_sort), bin_order)


def run_strategy(strategy: VPStrategy, instance: ProblemInstance,
                 y: float) -> Optional[np.ndarray]:
    """One-shot strategy execution (builds a fresh probe context)."""
    return ProbeContext(instance, y).run(strategy)


# ----------------------------------------------------------------------
# Strategy enumerations (§3.5.3, §3.5.5, §5.1).
# ----------------------------------------------------------------------

def vp_strategies(window: int | None = None) -> tuple[VPStrategy, ...]:
    """The 33 homogeneous METAVP strategies: {FF, BF, PP} × 11 item sorts."""
    out = []
    for packer in (FF, BF, PP):
        for item_sort in ALL_SORTS:
            out.append(VPStrategy(
                packer, item_sort,
                window=window if packer == PP else None))
    assert len(out) == 33
    return tuple(out)


def hvp_strategies(window: int | None = None) -> tuple[VPStrategy, ...]:
    """The 253 heterogeneous METAHVP strategies.

    Best-Fit contributes the 11 item sorts (its bin order is dynamic);
    First-Fit and Permutation-Pack combine 11 item sorts × 11 bin sorts:
    ``11 + 2·11·11 = 253``.
    """
    out = []
    for item_sort in ALL_SORTS:
        out.append(VPStrategy(BF, item_sort, hetero=True))
    for packer in (FF, PP):
        for item_sort in ALL_SORTS:
            for bin_sort in ALL_SORTS:
                out.append(VPStrategy(
                    packer, item_sort, bin_sort, hetero=True,
                    window=window if packer == PP else None))
    assert len(out) == 253
    return tuple(out)


def hvp_light_strategies(window: int | None = None) -> tuple[VPStrategy, ...]:
    """The 60 METAHVPLIGHT strategies (§5.1).

    Item sorts: descending MAX, SUM, MAXDIFFERENCE, MAXRATIO (4).
    Bin sorts: ascending LEX / MAX / SUM, descending MAX / MAXDIFFERENCE /
    MAXRATIO, and NONE (7).  Best-Fit again takes item sorts only:
    ``4 + 2·4·7 = 60``.
    """
    item_sorts = tuple(SortStrategy(m, descending=True)
                       for m in (MAX, SUM, MAXDIFFERENCE, MAXRATIO))
    bin_sorts = (
        SortStrategy(LEX), SortStrategy(MAX), SortStrategy(SUM),
        SortStrategy(MAX, descending=True),
        SortStrategy(MAXDIFFERENCE, descending=True),
        SortStrategy(MAXRATIO, descending=True),
        NONE_SORT,
    )
    out = []
    for item_sort in item_sorts:
        out.append(VPStrategy(BF, item_sort, hetero=True))
    for packer in (FF, PP):
        for item_sort in item_sorts:
            for bin_sort in bin_sorts:
                out.append(VPStrategy(
                    packer, item_sort, bin_sort, hetero=True,
                    window=window if packer == PP else None))
    assert len(out) == 60
    return tuple(out)
