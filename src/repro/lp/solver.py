"""Exact and relaxed solution of the Eq. 1-7 formulation.

The paper used GLPK/CPLEX; we use scipy's bundled HiGHS, which exposes both
a branch-and-bound MILP (``scipy.optimize.milp``) and an LP solver.  Both
consume the :class:`~repro.lp.formulation.MilpFormulation` matrices
unchanged — the substitution is solver-for-solver (see DESIGN.md §3).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np
from scipy.optimize import milp

from ..core.allocation import Allocation
from ..core.exceptions import InfeasibleProblemError, SolverError
from ..core.instance import ProblemInstance
from .formulation import MilpFormulation, build_formulation

__all__ = ["LpSolution", "shared_relaxations", "solve_exact",
           "solve_relaxation"]

# HiGHS status codes surfaced by scipy.optimize.milp.
_STATUS_OPTIMAL = 0
_STATUS_INFEASIBLE = 2


@dataclass
class LpSolution:
    """Solution of the exact MILP or its rational relaxation.

    Attributes
    ----------
    min_yield:
        The objective ``Y``.  For the relaxation this is an *upper bound*
        on the exact optimum (§3.2).
    e, y:
        ``(J, H)`` placement and per-node yield matrices.  ``e`` is 0/1 for
        exact solutions and fractional for the relaxation.
    integral:
        Whether the solution came from the MILP (True) or relaxation.
    solve_seconds:
        Wall-clock solver time.
    forbidden:
        The formulation's ``(J, H)`` mask of placements fixed to zero
        (requirements alone cannot fit).
    """

    instance: ProblemInstance
    min_yield: float
    e: np.ndarray
    y: np.ndarray
    integral: bool
    solve_seconds: float
    forbidden: np.ndarray

    def placement(self) -> np.ndarray:
        """Node index per service (argmax of ``e``; exact for integral)."""
        return np.asarray(self.e.argmax(axis=1), dtype=np.int64)

    def yields(self) -> np.ndarray:
        """Per-service yield summed over nodes (Eq. 7 left-hand side)."""
        return np.clip(self.y.sum(axis=1), 0.0, 1.0)

    def to_allocation(self) -> Allocation:
        """Materialize an :class:`Allocation` (meaningful when integral)."""
        if not self.integral:
            raise SolverError(
                "relaxed solutions are fractional; round them first "
                "(see repro.algorithms.rounding)")
        return Allocation(self.instance, self.placement(), self.yields())


def _run(formulation: MilpFormulation, time_limit: float | None,
         mip_rel_gap: float | None, integral: bool) -> LpSolution:
    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)
    start = time.perf_counter()
    res = milp(
        c=formulation.objective,
        constraints=formulation.constraints,
        integrality=formulation.integrality,
        bounds=formulation.bounds,
        options=options or None,
    )
    elapsed = time.perf_counter() - start
    if res.status == _STATUS_INFEASIBLE:
        raise InfeasibleProblemError(
            "no placement satisfies the rigid requirements")
    if res.x is None:
        raise SolverError(f"HiGHS failed: status={res.status} ({res.message})")
    e, y, min_yield = formulation.split_solution(res.x)
    return LpSolution(
        instance=formulation.instance,
        min_yield=min_yield,
        e=e,
        y=y,
        integral=integral,
        solve_seconds=elapsed,
        forbidden=formulation.forbidden,
    )


def solve_exact(instance: ProblemInstance, time_limit: float | None = None,
                mip_rel_gap: float | None = None) -> LpSolution:
    """Solve the MILP exactly (§3.2).  Exponential time; small instances only.

    Raises :class:`InfeasibleProblemError` when the rigid requirements
    cannot all be met.
    """
    return _run(build_formulation(instance, integral=True),
                time_limit, mip_rel_gap, integral=True)


#: A relaxation outcome: the solution, or the infeasibility it raised.
_Outcome = Union[LpSolution, InfeasibleProblemError]

#: The active :func:`shared_relaxations` memo: ``(id(instance),
#: time_limit)`` → (instance, outcome).  The instance is kept so its id
#: cannot be reused while the memo lives.
_SHARED: ContextVar[Optional[dict]] = ContextVar("shared_relaxations",
                                                 default=None)


@contextmanager
def shared_relaxations() -> Iterator[None]:
    """Within the block, solve each instance's relaxation at most once.

    :func:`solve_relaxation` answers a repeated call on the *same*
    instance object (same ``time_limit``) with the first call's solution,
    or re-raises its :class:`InfeasibleProblemError`.  The grid runner
    wraps each warm-chain task in it, so RRND and RRNZ share one HiGHS
    solve per instance; timing tables run without it, so every RRNZ
    solve pays for its own LP.  The memo is per context (thread), and
    the solution is shared, not copied: callers must not mutate it.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def solve_relaxation(instance: ProblemInstance,
                     time_limit: float | None = None) -> LpSolution:
    """Solve the rational relaxation (all variables in [0, 1]).

    Polynomial time in practice.  The objective value is an upper bound on
    the exact optimum and the fractional ``e`` matrix drives the
    randomized-rounding heuristics (§3.3).  Inside
    :func:`shared_relaxations` each instance is solved once.
    """
    memo = _SHARED.get()
    key = (id(instance), time_limit)
    outcome: _Outcome
    if memo is not None and key in memo:
        outcome = memo[key][1]
    else:
        try:
            outcome = _run(build_formulation(instance, integral=False),
                           time_limit, None, integral=False)
        except InfeasibleProblemError as exc:
            outcome = exc
        if memo is not None:
            memo[key] = (instance, outcome)
    if isinstance(outcome, InfeasibleProblemError):
        raise outcome
    return outcome
