"""Evaluation metrics (§5).

Algorithms differ both in how often they find *any* solution (success
rate) and in how good the found solutions are (minimum yield), so the
paper compares them pairwise:

* ``Y_{A,B}`` — average percent minimum-yield difference of A relative to
  B, over the instances where **both** succeed;
* ``S_{A,B}`` — percentage of instances where A succeeds and B fails,
  minus the percentage where B succeeds and A fails.

Positive values favor A.  Throughout the harness an algorithm's result on
an instance is its achieved minimum yield, or ``None`` on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["PairwiseComparison", "pairwise_comparison", "success_rate",
           "average_yield"]

Result = Optional[float]


@dataclass(frozen=True)
class PairwiseComparison:
    """``(Y_{A,B}, S_{A,B})`` plus the underlying counts."""

    yield_gain_pct: float       # Y_{A,B}, in percent
    success_gain_pct: float     # S_{A,B}, in percentage points
    both_succeed: int
    only_a: int
    only_b: int
    total: int


def pairwise_comparison(results_a: Sequence[Result],
                        results_b: Sequence[Result]) -> PairwiseComparison:
    """Compute ``(Y_{A,B}, S_{A,B})`` from per-instance minimum yields."""
    if len(results_a) != len(results_b):
        raise ValueError("result vectors must cover the same instances")
    total = len(results_a)
    if total == 0:
        raise ValueError("no instances to compare")
    diffs = []
    only_a = only_b = both = 0
    for a, b in zip(results_a, results_b):
        if a is not None and b is not None:
            both += 1
            if b > 0:
                diffs.append((a - b) / b * 100.0)
            elif a > 0:
                # B found a zero-yield solution, A strictly better: count
                # as the maximum representable relative gain.
                diffs.append(np.inf)
            else:
                diffs.append(0.0)
        elif a is not None:
            only_a += 1
        elif b is not None:
            only_b += 1
    yield_gain = float(np.mean(diffs)) if diffs else 0.0
    success_gain = (only_a - only_b) / total * 100.0
    return PairwiseComparison(
        yield_gain_pct=yield_gain,
        success_gain_pct=success_gain,
        both_succeed=both,
        only_a=only_a,
        only_b=only_b,
        total=total,
    )


def success_rate(results: Sequence[Result]) -> float:
    """Fraction of instances solved, in [0, 1]."""
    if not results:
        raise ValueError("no results")
    return sum(r is not None for r in results) / len(results)


def average_yield(results: Sequence[Result]) -> float:
    """Mean minimum yield over the solved instances (0 if none solved)."""
    solved = [r for r in results if r is not None]
    return float(np.mean(solved)) if solved else 0.0
