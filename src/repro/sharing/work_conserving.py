"""Work-conserving proportional-share CPU scheduler (§6).

Models the weighted fair scheduler of modern hypervisors (e.g. Xen's
credit scheduler in work-conserving mode): each competing service is first
offered a share of the resource proportional to its weight; any portion a
service leaves unused (because its actual demand is smaller) is pooled and
redistributed to the still-unsatisfied services, again by weight, until
everyone is satisfied or the resource is exhausted.  The paper's iterative
formulation stops shares from shrinking below an epsilon to avoid infinite
recursion; we keep the same guard.
"""

from __future__ import annotations

import numpy as np

__all__ = ["work_conserving_shares", "DEFAULT_EPSILON", "SHARE_ATOL"]

DEFAULT_EPSILON = 1e-4

# Absolute slack when deciding a service's remaining need fits inside its
# offered share.  Shares are normalized to the max weight before division
# (see below), so round-off lives near machine epsilon — any looser and
# barely-unsatisfied services would grab a full extra round.
SHARE_ATOL = 1e-15


def work_conserving_shares(
    weights: np.ndarray,
    demands: np.ndarray,
    capacity: float,
    epsilon: float = DEFAULT_EPSILON,
) -> np.ndarray:
    """Resource consumed by each service under work-conserving sharing.

    Parameters
    ----------
    weights:
        Non-negative scheduler weights, shape ``(J,)``.  All-zero weights
        are treated as equal weights (the scheduler must still be
        work-conserving).
    demands:
        Actual resource demand of each service (its consumption if it ran
        alone), shape ``(J,)``.
    capacity:
        Total resource available.
    epsilon:
        Minimum allocatable share; redistribution stops once the pool of
        reclaimable resource drops below it (paper: 0.0001).

    Returns
    -------
    ``(J,)`` array of consumptions.  Invariants (tested property-based):

    * ``0 <= consumed <= demand`` element-wise;
    * ``consumed.sum() <= capacity`` (+ float tolerance);
    * work conservation: if ``demands.sum() >= capacity`` then
      ``consumed.sum() == capacity`` up to ``epsilon``;
    * a service is capped below its demand only if the resource ran out.
    """
    weights = np.asarray(weights, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    if weights.shape != demands.shape or weights.ndim != 1:
        raise ValueError("weights and demands must be 1-D of equal length")
    if (weights < 0).any() or (demands < 0).any():
        raise ValueError("weights and demands must be non-negative")
    J = weights.shape[0]
    if J == 0:
        return np.zeros(0)
    capacity = float(capacity)
    if capacity <= 0.0:
        return np.zeros(J)

    if demands.sum() <= capacity:
        # Enough for everyone: a work-conserving scheduler satisfies all.
        return demands.copy()

    consumed = np.zeros(J)
    unsatisfied = np.ones(J, dtype=bool)
    pool = capacity
    # Each round either satisfies at least one service (at most J rounds)
    # or hands every unsatisfied service its final share and stops.
    while pool > epsilon and unsatisfied.any():
        w = weights[unsatisfied]
        wmax = w.max()
        if wmax <= 0.0:
            # Work conservation trumps weights: zero-weight stragglers
            # still split whatever the weighted services left behind.
            w = np.ones_like(w)
        else:
            # Normalize by the max first: denormal-range weights lose so
            # much precision in w / w.sum() that shares can oversubscribe
            # the pool.
            w = w / wmax
        share = pool * (w / w.sum())
        need_left = demands[unsatisfied] - consumed[unsatisfied]
        newly_satisfied = need_left <= share + SHARE_ATOL
        if not newly_satisfied.any():
            # Nobody satisfied: give everyone their share and finish.
            consumed[unsatisfied] += share
            pool = 0.0
            break
        take = np.where(newly_satisfied, need_left, share)
        consumed[unsatisfied] += take
        pool -= take.sum()
        idx = np.flatnonzero(unsatisfied)
        unsatisfied[idx[newly_satisfied]] = False

    return np.minimum(consumed, demands)
