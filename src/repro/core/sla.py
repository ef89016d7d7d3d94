"""Service-level-agreement classes with differentiated yield floors.

The paper optimizes one global objective — the minimum yield over all
services — which implicitly treats every service as equally important.
Real hosting platforms sell differentiated service levels instead
(QoS-based resource partitioning, see PAPERS.md): a *gold* tenant buys a
guaranteed fraction of its stated need, *silver* a weaker one, and
*best-effort* rides along on whatever is left.

This module defines the class vocabulary shared by the dynamic
simulator (per-step violation accounting), the workload generators
(per-service class annotation), and the service daemon (violation
counters on ``/metrics``).  A violation is simply a service whose
achieved yield falls below its class floor — including services left
unplaced, whose achieved yield is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .resources import STRICT_FIT_ATOL

__all__ = [
    "SLAClass",
    "SLA_CLASSES",
    "SLA_NAMES",
    "DEFAULT_SLA",
    "SLA_FLOOR_ATOL",
    "sla_floor",
    "sla_floors",
    "violates_floor",
    "draw_sla_classes",
]

#: Slack applied when comparing an achieved yield against a floor, so a
#: solver answer sitting exactly on the floor is never counted as a
#: violation through float noise alone.
SLA_FLOOR_ATOL: float = STRICT_FIT_ATOL


@dataclass(frozen=True)
class SLAClass:
    """One service level: a name and the minimum acceptable yield."""

    name: str
    min_yield: float


#: The three classes the reproduction models.  Floors are fractions of
#: the service's *stated need* actually delivered (the paper's yield):
#: gold is a hard half, silver a quarter, best-effort has no floor.
SLA_CLASSES: dict[str, SLAClass] = {
    "gold": SLAClass("gold", 0.5),
    "silver": SLAClass("silver", 0.25),
    "best-effort": SLAClass("best-effort", 0.0),
}

#: Deterministic class order (strongest first) for iteration/reporting.
SLA_NAMES: tuple[str, ...] = ("gold", "silver", "best-effort")

DEFAULT_SLA: str = "best-effort"


def sla_floor(name: str) -> float:
    """Minimum-yield floor of class *name* (raises on unknown names)."""
    try:
        return SLA_CLASSES[name].min_yield
    except KeyError:
        raise ValueError(
            f"unknown SLA class {name!r}; expected one of {SLA_NAMES}"
        ) from None


def sla_floors(names: Sequence[str]) -> np.ndarray:
    """``(N,)`` float64 floor vector for a per-service class list."""
    return np.array([sla_floor(n) for n in names], dtype=np.float64)


def violates_floor(achieved: float | np.ndarray,
                   floor: float | np.ndarray) -> bool | np.ndarray:
    """Whether an *achieved* yield falls below its SLA *floor*.

    Takes scalars (one service) or arrays (elementwise, numpy
    broadcasting).  A yield within :data:`SLA_FLOOR_ATOL` below the floor
    is not a violation.
    """
    return achieved < floor - SLA_FLOOR_ATOL


def draw_sla_classes(count: int, mix: Mapping[str, float],
                     rng: np.random.Generator) -> tuple[str, ...]:
    """Draw *count* class names from a weighted *mix*.

    The mix keys are validated against :data:`SLA_CLASSES`; weights are
    normalized, so ``{"gold": 1, "silver": 3}`` means a 1:3 split.  The
    draw order is deterministic given the generator state.
    """
    if not mix:
        raise ValueError("SLA mix must name at least one class")
    names = [n for n in SLA_NAMES if n in mix]
    if len(names) != len(mix):
        unknown = sorted(set(mix) - set(SLA_NAMES))
        raise ValueError(f"unknown SLA class(es) in mix: {unknown}")
    weights = np.array([float(mix[n]) for n in names], dtype=np.float64)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("SLA mix weights must be non-negative, sum > 0")
    picks = rng.choice(len(names), size=count, p=weights / weights.sum())
    return tuple(names[int(i)] for i in picks)
