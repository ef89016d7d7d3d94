"""Exact MILP and rational relaxation of the placement problem (§3.1-3.2)."""

from .formulation import MilpFormulation, build_formulation
from .relaxation import placement_probabilities
from .solver import (LpSolution, shared_relaxations, solve_exact,
                     solve_relaxation)

__all__ = [
    "LpSolution",
    "MilpFormulation",
    "build_formulation",
    "placement_probabilities",
    "shared_relaxations",
    "solve_exact",
    "solve_relaxation",
]
