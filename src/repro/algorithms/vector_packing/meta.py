"""META* combinators: METAVP, METAHVP, METAHVPLIGHT (§3.5.3-3.5.5, §5.1).

Each META algorithm wraps a strategy list in a single feasibility oracle —
"some strategy packs the instance at yield *y*" — and binary-searches the
largest such *y*.  By construction a META algorithm succeeds on every
instance any of its member strategies solves, and certifies a yield at
least as large (§3.5.3).

The oracle comes from one selector, :func:`~.batch_solve.make_engine`:
the fused ``probe_scan`` engine when the kernel backend has it, the
per-strategy adaptive engine of :mod:`.probe_engine` otherwise (numpy's
packers, on every backend).  Both engines certify the same yields with
the same placements and probe counts, so the selector only changes
wall-clock.  A :class:`MetaSolver`
keeps its strategy list compiled (:class:`~.batch_solve.StrategyTable`,
once per dimension count), so a solve binds only the instance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...core.allocation import Allocation
from ...core.instance import ProblemInstance
from ..base import NamedAlgorithm
from ..yield_search import DEFAULT_TOLERANCE, binary_search_max_yield
from .batch_solve import StrategyTable, make_engine, solve_many as _solve_many
from .strategies import (
    VPStrategy,
    hvp_light_strategies,
    hvp_strategies,
    vp_strategies,
)

__all__ = [
    "META_STRATEGY_FAMILIES",
    "MetaSolver",
    "named_meta_solver",
    "meta_algorithm",
    "metavp",
    "metahvp",
    "metahvp_light",
]


class MetaSolver:
    """Callable solver for a META* strategy list, with warm-start support.

    The plain call signature matches every other placement algorithm;
    :meth:`solve_with_hint` additionally accepts an advisory *hint* (a
    guess at the certified yield — e.g. the previous epoch's answer in a
    dynamic simulation, or a sibling solve on the same instance) that the
    binary search uses to shrink its probe count, plus a *stats* dict the
    search fills with ``probes`` and ``certified`` (see
    :func:`~repro.algorithms.yield_search.binary_search_max_yield`).
    Hints are advisory only: a warm solve certifies the same yield a cold
    one does (equivalence-tested), just in fewer probes.
    """

    #: Drivers test for this attribute before passing hints.
    supports_hint = True

    def __init__(self, strategies: Sequence[VPStrategy],
                 tolerance: float = DEFAULT_TOLERANCE,
                 improve: bool = True):
        self.strategies = tuple(strategies)
        self.tolerance = tolerance
        self.improve = improve
        #: The strategy list compiled for the fused kernel, kept across
        #: solves (it compiles each dimension count once).
        self.table = StrategyTable(self.strategies)

    def solve_with_hint(self, instance: ProblemInstance,
                        hint: Optional[float] = None,
                        stats: Optional[dict] = None
                        ) -> Optional[Allocation]:
        oracle = make_engine(instance, self.table)
        return binary_search_max_yield(
            instance, oracle, tolerance=self.tolerance,
            improve=self.improve, hint=hint, stats=stats)

    def solve_many(self, instances: Sequence[ProblemInstance],
                   hints: Optional[Sequence[Optional[float]]] = None,
                   stats: Optional[Sequence[dict]] = None,
                   threads: Optional[int] = None
                   ) -> List[Optional[Allocation]]:
        """Solve a batch of instances; results match a
        :meth:`solve_with_hint` loop exactly (placements, certified
        yields, probe counts).

        Routes through the batched kernel entry point
        (:func:`~.batch_solve.solve_many`): shared threshold
        precomputation, then the same engine selector per instance.
        *hints* and *stats* are per-instance lists parallel to
        *instances*; each stats dict additionally receives ``seconds``
        (that instance's solve wall-clock).
        """
        return _solve_many(
            instances, self.table, tolerance=self.tolerance,
            improve=self.improve, hints=hints, stats=stats,
            threads=threads)

    def __call__(self, instance: ProblemInstance) -> Optional[Allocation]:
        return self.solve_with_hint(instance)


def meta_algorithm(name: str, strategies: Sequence[VPStrategy],
                   tolerance: float = DEFAULT_TOLERANCE,
                   improve: bool = True) -> NamedAlgorithm:
    """Wrap a strategy list into a complete max-min-yield algorithm."""
    return NamedAlgorithm(name, MetaSolver(
        strategies, tolerance=tolerance, improve=improve))


#: The META* families addressable by name: strategy-list factories for
#: the runtime-switchable solvers (the service layer's ``/strategy``
#: endpoint and anything else that picks a solver from a config string).
META_STRATEGY_FAMILIES = {
    "METAVP": vp_strategies,
    "METAHVP": hvp_strategies,
    "METAHVPLIGHT": hvp_light_strategies,
}


def named_meta_solver(name: str,
                      tolerance: float = DEFAULT_TOLERANCE,
                      improve: bool = True) -> MetaSolver:
    """A warm-startable :class:`MetaSolver` for a META* family by name.

    Unlike :func:`meta_algorithm` this returns the bare solver (with
    ``solve_with_hint``), which is what long-lived callers that chain
    hints across solves — the online allocation service — hold on to.
    """
    try:
        strategies = META_STRATEGY_FAMILIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown META solver {name!r}; choose from "
            f"{sorted(META_STRATEGY_FAMILIES)}") from None
    return MetaSolver(strategies, tolerance=tolerance, improve=improve)


def metavp(tolerance: float = DEFAULT_TOLERANCE,
           window: int | None = None) -> NamedAlgorithm:
    """METAVP: all 33 homogeneous vector-packing strategies (§3.5.3)."""
    return meta_algorithm("METAVP", vp_strategies(window),
                          tolerance=tolerance)


def metahvp(tolerance: float = DEFAULT_TOLERANCE,
            window: int | None = None) -> NamedAlgorithm:
    """METAHVP: all 253 heterogeneous strategies (§3.5.5)."""
    return meta_algorithm("METAHVP", hvp_strategies(window),
                          tolerance=tolerance)


def metahvp_light(tolerance: float = DEFAULT_TOLERANCE,
                  window: int | None = None) -> NamedAlgorithm:
    """METAHVPLIGHT: the 60-strategy subset of §5.1 (≈10× faster)."""
    return meta_algorithm("METAHVPLIGHT", hvp_light_strategies(window),
                          tolerance=tolerance)
