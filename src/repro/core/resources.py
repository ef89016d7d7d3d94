"""Resource-vector primitives.

Every node capacity, service requirement, and service need in the paper is an
*ordered pair* of D-dimensional vectors: an **elementary** component (per
resource element, e.g. a single core) and an **aggregate** component (total
over all elements of that type).  This module provides the small amount of
shared machinery for validating and manipulating such pairs; the heavy
numerical work elsewhere operates on raw ``numpy`` arrays extracted from
these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import DimensionMismatchError, InvalidCapacityError

__all__ = [
    "FEASIBILITY_ATOL",
    "FEASIBILITY_RTOL",
    "STRICT_FIT_ATOL",
    "VectorPair",
    "as_vector",
    "check_same_dimensions",
]

# Numerical slack used throughout feasibility checks.  Capacity comparisons
# in the packing heuristics and allocation validation allow this much
# overshoot so that allocations constructed at the edge of feasibility (e.g.
# by the binary-search yield driver) are not rejected for round-off reasons.
FEASIBILITY_RTOL = 1e-9
FEASIBILITY_ATOL = 1e-9

# Absolute-only fit slack of the seed-faithful paths: the greedy/rounding/
# sharing element-fit checks, the yield-domain bound, and the incremental
# best-fit all ship with the seed implementation's 1e-12.  Deliberately
# tighter than the scaled ``capacity_tolerance()`` used by the packing
# kernels — widening it would shift golden-file results at feasibility
# boundaries, so the two tolerances stay distinct named constants.
STRICT_FIT_ATOL = 1e-12


def as_vector(values: Sequence[float] | np.ndarray | float, dims: int | None = None) -> np.ndarray:
    """Coerce *values* to a 1-D float64 array.

    A scalar is broadcast to ``dims`` entries (``dims`` must then be given).
    The returned array is always a fresh, C-contiguous copy so callers can
    mutate it without aliasing surprises.
    """
    if np.isscalar(values):
        if dims is None:
            raise ValueError("scalar vector value requires an explicit dims")
        return np.full(dims, float(values), dtype=np.float64)
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"resource vector must be 1-D, got shape {arr.shape}")
    if dims is not None and arr.shape[0] != dims:
        raise DimensionMismatchError(dims, arr.shape[0])
    return arr


def check_same_dimensions(*vectors: np.ndarray, what: str = "vector") -> int:
    """Return the common length of *vectors*, raising on mismatch."""
    if not vectors:
        raise ValueError("need at least one vector")
    dims = vectors[0].shape[0]
    for v in vectors[1:]:
        if v.shape[0] != dims:
            raise DimensionMismatchError(dims, v.shape[0], what=what)
    return dims


@dataclass(frozen=True)
class VectorPair:
    """An (elementary, aggregate) pair of D-dimensional resource vectors.

    Invariants enforced at construction:

    * both vectors have the same dimension count;
    * all entries are finite and non-negative;
    * ``aggregate >= elementary`` component-wise when ``require_dominance``
      (true for capacities: a node's total capacity in a dimension is at
      least the capacity of one element; service requirement/need pairs also
      satisfy this in the paper's model, where the aggregate counts all
      virtual elements).

    Note the paper explicitly does *not* require the aggregate to be an
    integer multiple of the elementary value, and neither do we.
    """

    elementary: np.ndarray
    aggregate: np.ndarray
    require_dominance: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        elem = as_vector(self.elementary)
        agg = as_vector(self.aggregate)
        check_same_dimensions(elem, agg, what="VectorPair component")
        if not (np.isfinite(elem).all() and np.isfinite(agg).all()):
            raise InvalidCapacityError("vector pair contains non-finite entries")
        if (elem < 0).any() or (agg < 0).any():
            raise InvalidCapacityError("vector pair contains negative entries")
        if self.require_dominance and (agg < elem - FEASIBILITY_ATOL).any():
            raise InvalidCapacityError(
                f"aggregate {agg} is smaller than elementary {elem} in some dimension"
            )
        # Freeze the arrays: dataclass(frozen=True) protects rebinding only.
        elem.setflags(write=False)
        agg.setflags(write=False)
        object.__setattr__(self, "elementary", elem)
        object.__setattr__(self, "aggregate", agg)

    @property
    def dims(self) -> int:
        return self.elementary.shape[0]

    def scaled(self, factor: float | np.ndarray) -> "VectorPair":
        """Return a new pair with both components multiplied by *factor*.

        *factor* may be a scalar or a per-dimension vector.
        """
        return VectorPair(self.elementary * factor, self.aggregate * factor,
                          require_dominance=self.require_dominance)

    def __add__(self, other: "VectorPair") -> "VectorPair":
        if not isinstance(other, VectorPair):
            return NotImplemented
        return VectorPair(self.elementary + other.elementary,
                          self.aggregate + other.aggregate,
                          require_dominance=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorPair):
            return NotImplemented
        return (np.array_equal(self.elementary, other.elementary)
                and np.array_equal(self.aggregate, other.aggregate))

    def __hash__(self) -> int:
        return hash((self.elementary.tobytes(), self.aggregate.tobytes()))
