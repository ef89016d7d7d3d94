"""Binary search over the uniform yield (§3.5), with warm starts.

For a fixed yield ``y`` every service's demand is fixed at
``(r^e + y n^e, r^a + y n^a)``, so any bin-packing heuristic answers the
feasibility question "can all services be placed at yield ``y``?".  Since
the objective is the *minimum* yield, it is WLOG to give all services the
same yield during the search; we binary-search for the largest feasible
``y``, stopping when the bracket is narrower than ``tolerance`` (the paper
uses 0.0001).  A search probes the capacity bound, then yield 0, then
bisects between them.

**Warm starts.**  A cold search spends ``2 + log2(ub/tolerance)`` probes
(≈16 at the paper's tolerance).  When the caller already knows roughly
where the answer lies — the previous epoch of a dynamic simulation, the
same instance under slightly different estimates, a sibling algorithm's
result on the same instance — it can pass that value as *hint*.  The
search then descends the *same* dyadic probe grid the cold search uses,
but probe-free, to a small bracket around the hint, verifies the
bracket's endpoints with real probes (expanding back out along the
ancestor chain when the hint was wrong, and falling back to a
probe-memoized cold restart once the expansion budget is spent), and
bisects only the remaining gap: ~4-6 probes for a good hint; an
arbitrarily bad one costs at most the wasted warm probes over the cold
count — bounded by the bracket depth plus the expansion budget, ~8
probes at the defaults (fuzz-verified).  Because every probed value
lies on the cold grid, a monotone oracle certifies *exactly* the cold
yield; the META* oracles are monotone in practice, and warm ≡ cold
equivalence is asserted by the test suite on reference grids.  A search
with no hint *is* that cold restart, with nothing memoized yet.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import obs
from ..core.allocation import Allocation
from ..core.instance import ProblemInstance

__all__ = ["binary_search_max_yield", "DEFAULT_TOLERANCE",
           "DEFAULT_HINT_WINDOW"]

DEFAULT_TOLERANCE = 1e-4

#: Width of the initial warm bracket, in multiples of the tolerance.
#: 8 leaves ~3 bisection probes when the hint lands inside the bracket.
DEFAULT_HINT_WINDOW = 8.0

#: Ancestor-expansion budget of a warm search.  Each step doubles the
#: distance covered, so the budget handles hints wrong by ~2^4 bracket
#: widths; a hint worse than that triggers the memoized cold restart.
MAX_HINT_EXPANSIONS = 4

# A packer answers: "placement achieving uniform yield y, or None".  It may
# be a plain function or a stateful callable (e.g. the adaptive
# MetaProbeEngine, which carries a strategy hint between probes) — the
# search only relies on call-by-call answers.
Packer = Callable[[ProblemInstance, float], Optional[np.ndarray]]


def binary_search_max_yield(
    instance: ProblemInstance,
    packer: Packer,
    tolerance: float = DEFAULT_TOLERANCE,
    improve: bool = True,
    hint: Optional[float] = None,
    stats: Optional[dict] = None,
) -> Optional[Allocation]:
    """Maximize the uniform yield achievable by *packer*.

    Parameters
    ----------
    instance:
        The problem to solve.
    packer:
        Feasibility oracle: returns a placement array at the queried yield
        or ``None``.  Monotonicity is *not* assumed — heuristic packers can
        fail at an easier yield after succeeding at a harder one — but the
        search treats any success as a new lower bound, exactly as in the
        paper.
    tolerance:
        Stop when ``hi - lo`` falls below this (paper: 0.0001).  Must be
        finite and positive: the bisection could not end at 0 or below,
        and NaN or infinity would end it before it starts.
    improve:
        Post-process the final placement with the per-node closed-form
        max-min yield (never lowers the certified uniform yield).
    hint:
        Optional advisory guess at the answer (see module docstring).  A
        hint outside ``(0, upper bound)`` is ignored.  Correctness never
        depends on the hint — a bad one only costs probes.  The warm
        bracket starts :data:`DEFAULT_HINT_WINDOW` tolerances wide.
    stats:
        Optional dict; on return it holds ``probes`` (oracle calls),
        ``certified`` (the search's feasible lower bound, before
        improvement — the natural hint for a neighboring solve) and
        ``hint_used``.

    Returns the best allocation found, or ``None`` when even yield 0 (the
    rigid requirements alone) cannot be packed.  Raises ``ValueError``
    for a *tolerance* that is not finite and positive, before any probe.
    """
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(
            f"tolerance must be finite and positive, got {tolerance!r}")
    if not obs.enabled():
        return _binary_search_impl(instance, packer, tolerance, improve,
                                   hint, stats)
    # Tracing on: run with a stats dict (borrowing the caller's when
    # given) so the span can report the probe accounting.
    local = stats if stats is not None else {}
    with obs.span("yield.search") as sp:
        alloc = _binary_search_impl(instance, packer, tolerance, improve,
                                    hint, local)
        certified = local.get("certified")
        sp.annotate(
            services=len(instance.services),
            hosts=len(instance.nodes),
            probes=local.get("probes", 0),
            hint_used=bool(local.get("hint_used", False)),
            feasible=alloc is not None,
            certified=None if certified is None else round(certified, 6),
        )
    return alloc


def _binary_search_impl(
    instance: ProblemInstance,
    packer: Packer,
    tolerance: float,
    improve: bool,
    hint: Optional[float],
    stats: Optional[dict],
) -> Optional[Allocation]:
    """The search itself; :func:`binary_search_max_yield` adds tracing."""
    probes = 0
    # Every answer is memoized: a restart revisits the grid points the
    # warm phase probed, and with a capacity bound of 0 the cold sequence
    # asks for y = 0 twice.
    seen: dict[float, Optional[np.ndarray]] = {}

    def probe(y: float) -> Optional[np.ndarray]:
        nonlocal probes
        if y not in seen:
            probes += 1
            seen[y] = packer(instance, y)
        return seen[y]

    def finish(placement, lo: float) -> Allocation:
        if stats is not None:
            stats["probes"] = probes
            stats["certified"] = lo
        alloc = Allocation.uniform(instance, placement, lo)
        return alloc.improve_yields() if improve else alloc

    def give_up() -> None:
        if stats is not None:
            stats["probes"] = probes
        return None

    hi_cap = hi = instance.yield_upper_bound()
    use_hint = (hint is not None and np.isfinite(hint)
                and 0.0 < hint < hi)
    if stats is not None:
        stats["probes"] = probes
        stats["certified"] = None
        stats["hint_used"] = use_hint

    best_placement = None
    restart = not use_hint
    if use_hint:
        # Descend the cold search's dyadic grid — probe-free — to the
        # bracket of width ~DEFAULT_HINT_WINDOW*tolerance containing the
        # hint.  The stacks remember the ancestor boundaries for expansion.
        target = DEFAULT_HINT_WINDOW * tolerance
        los = [0.0]
        his = [hi]
        lo, hi_w = 0.0, hi
        while hi_w - lo > target:
            mid = 0.5 * (lo + hi_w)
            if not (lo < mid < hi_w):  # float exhaustion
                break
            if hint >= mid:
                lo = mid
                los.append(mid)
            else:
                hi_w = mid
                his.append(mid)
        hi = hi_w
        # Optimistic bisection with deferred endpoint verification: the
        # bracket endpoints are *assumed* (lo feasible, hi infeasible)
        # until a probe answer depends on them.  A verified-wrong floor
        # descends the ancestor chain *eagerly* (each failed value is a
        # proven ceiling); a binding-but-unrefuted ceiling climbs it
        # eagerly while it keeps packing; a single bisection then
        # finishes the verified bracket.  Expansion is *bounded*: after
        # MAX_HINT_EXPANSIONS ancestor steps the hint is hopeless and
        # the search restarts as a plain cold bisection whose probes are
        # answered from the memo where the warm phase already visited
        # them — so a bad hint costs at most the wasted pre-restart
        # probes (a small constant) over the cold count.  Every probed
        # value lies on the cold search's dyadic grid, so a monotone
        # oracle certifies exactly the cold yield.
        hi_unverified = True  # nothing above the bracket is probed yet
        failed = False
        expansions = 0

        def verify_floor() -> bool:
            """Probe ancestors until one packs; False = nothing does."""
            nonlocal lo, hi, hi_unverified, best_placement
            nonlocal expansions, restart
            while True:
                placement = probe(los[-1])
                if placement is not None:
                    best_placement, lo = placement, los[-1]
                    return True
                if los[-1] == 0.0:
                    return False
                hi = los[-1]
                hi_unverified = False
                los.pop()
                lo = los[-1]
                expansions += 1
                if expansions > MAX_HINT_EXPANSIONS:
                    restart = True
                    return True

        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):  # float exhaustion
                break
            placement = probe(mid)
            if placement is not None:
                lo, best_placement = mid, placement
                continue
            hi = mid
            hi_unverified = False
            if best_placement is None:
                # First refutation with an unverified floor: check the
                # floor now rather than bisecting toward a value that
                # may itself be infeasible.
                if not verify_floor():
                    failed = True
                if failed or restart:
                    break
        if not failed and not restart and best_placement is None \
                and not verify_floor():
            failed = True
        if failed:
            return give_up()
        if not restart and hi_unverified:
            # The assumed ceiling was never refuted by a probe — the
            # answer may lie above it.  Climb while it keeps packing
            # (reaching a packable capacity bound ends the search, as in
            # the cold sequence), then bisect the last verified bracket.
            while True:
                top = his[-1]
                placement = probe(top)
                if placement is None:
                    hi = top
                    break
                if top == hi_cap:
                    return finish(placement, hi_cap)
                best_placement, lo = placement, top
                his.pop()
                expansions += 1
                if expansions > MAX_HINT_EXPANSIONS:
                    restart = True
                    break
    if restart:
        # The cold sequence: a search with no hint, or one whose hint
        # was wrong by far more than the bracket width.  Try the
        # capacity bound outright — in slack instances (or when all
        # needs are satisfiable) the search collapses to one probe; a
        # warm search defers this probe, since a hint strictly below the
        # bound says the caller expects the bound to be out of reach —
        # then yield 0, then bisect between them.
        placement = probe(hi_cap)
        if placement is not None:
            return finish(placement, hi_cap)
        placement = probe(0.0)
        if placement is None:
            return give_up()
        best_placement, lo, hi = placement, 0.0, hi_cap
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):  # float exhaustion
            break
        placement = probe(mid)
        if placement is not None:
            lo, best_placement = mid, placement
        else:
            hi = mid

    return finish(best_placement, lo)
