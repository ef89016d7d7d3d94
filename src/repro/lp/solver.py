"""Exact and relaxed solution of the Eq. 1-7 formulation (§3.2).

The paper solved the MILP and its rational relaxation with GLPK/CPLEX;
this package uses HiGHS, through the binding scipy ships with it
(``scipy.optimize._highspy._core``).  One function, :func:`_run`, solves
both: it passes a :class:`~repro.lp.formulation.MilpFormulation`'s arrays
to ``Highs::passModel`` as they are, runs HiGHS, and reads back the primal
solution only.  It sets the options ``scipy.optimize.milp`` sets (console
log off, plus ``time_limit`` and ``mip_rel_gap`` when given) and accepts
the model statuses ``milp`` returns a solution for, so it returns the
vertex ``milp`` returns on the same model, bit for bit
(``tests/lp/test_highs_model.py``).

The binding is private scipy API.  ``pyproject.toml``'s scipy floor is the
first release that ships it with the array form of ``passModel``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np
from scipy.optimize._highspy import _core as highs_core

from .. import obs
from ..core.allocation import Allocation
from ..core.exceptions import InfeasibleProblemError, SolverError
from ..core.instance import ProblemInstance
from .formulation import build_formulation

__all__ = ["LpSolution", "shared_relaxations", "solve_exact",
           "solve_relaxation"]

_Status = highs_core.HighsModelStatus
_ERROR = highs_core.HighsStatus.kError
#: MILP statuses that still carry an incumbent when the objective is finite.
_LIMITS = (_Status.kTimeLimit, _Status.kIterationLimit,
           _Status.kSolutionLimit)


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


def _set_option(highs: highs_core._Highs, name: str,
                value: Union[bool, float]) -> None:
    if highs.setOptionValue(name, value) == _ERROR:
        raise ValueError(f"HiGHS refuses {name} = {value!r}")


def _run(instance: ProblemInstance, integral: bool,
         time_limit: float | None, mip_rel_gap: float | None) -> LpSolution:
    """Build *instance*'s model and solve it with HiGHS: the MILP when
    *integral*, else its rational relaxation.

    Raises :class:`InfeasibleProblemError` when HiGHS proves the model
    infeasible, and :class:`SolverError` when HiGHS refuses the model,
    fails, or stops without a solution: an LP only counts when optimal,
    a MILP also at a time, iteration or solution limit with an incumbent.
    """
    with obs.span("lp.solve") as span:
        if obs.enabled():
            span.annotate(integral=integral,
                          services=instance.num_services,
                          nodes=instance.num_nodes)
        form = build_formulation(instance, integral=integral)
        start = time.perf_counter()
        highs = highs_core._Highs()
        _set_option(highs, "log_to_console", False)
        if time_limit is not None:
            _set_option(highs, "time_limit", float(time_limit))
        if mip_rel_gap is not None:
            _set_option(highs, "mip_rel_gap", float(mip_rel_gap))
        if highs.passModel(
                form.num_vars, form.num_rows, form.a_value.size,
                highs_core.MatrixFormat.kColwise,
                highs_core.ObjSense.kMinimize, 0.0, form.objective,
                form.col_lower, form.col_upper, form.row_lower,
                form.row_upper, form.a_start, form.a_index, form.a_value,
                form.integrality) == _ERROR:
            raise SolverError("HiGHS refused the model")
        failed = highs.run() == _ERROR
        status = highs.getModelStatus()
        if obs.enabled():
            span.annotate(status=status.name)
        if failed:
            raise SolverError(
                f"HiGHS failed: {highs.modelStatusToString(status)}")
        if status == _Status.kInfeasible:
            raise InfeasibleProblemError(
                "no placement satisfies the rigid requirements")
        if not (status == _Status.kOptimal
                or (integral and status in _LIMITS
                    and highs.getInfo().objective_function_value
                    != highs_core.kHighsInf)):
            raise SolverError(f"HiGHS found no solution: "
                              f"{highs.modelStatusToString(status)}")
        x = np.array(highs.getSolution().col_value)
        elapsed = time.perf_counter() - start
    e, y, min_yield = form.split_solution(x)
    return LpSolution(
        instance=instance,
        min_yield=min_yield,
        e=e,
        y=y,
        integral=integral,
        solve_seconds=elapsed,
        forbidden=form.forbidden,
    )


def solve_exact(instance: ProblemInstance, time_limit: float | None = None,
                mip_rel_gap: float | None = None) -> LpSolution:
    """Solve the MILP exactly (§3.2).  Exponential time; small instances only.

    Raises :class:`InfeasibleProblemError` when the rigid requirements
    cannot all be met.
    """
    return _run(instance, True, time_limit, mip_rel_gap)


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
            outcome = _run(instance, False, time_limit, None)
        except InfeasibleProblemError as exc:
            outcome = exc
        if memo is not None:
            memo[key] = (instance, outcome)
    if isinstance(outcome, InfeasibleProblemError):
        raise outcome
    return outcome
