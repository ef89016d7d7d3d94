"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces a layer's public entry points with timing
wrappers, each installed at the name its caller looks up (a function
imported by name is patched in the importing module, a method on its
class).  Every wrapped call is a *frame*; a frame's self time is its
duration minus the time of the frames nested inside it, so a layer that
calls another (``rounding`` → ``lp``) is never counted twice.  Frames
nest per thread, which keeps the daemon's handler threads apart.

The root frame of a measured pass is not a layer: its self time is the
wall clock no layer claimed (``trace.unattributed_frac``).

:func:`install_layers` knows the program's layer boundaries; workloads
add their own frames with :meth:`Tracer.frame` around calls they make
themselves (input generation, the placer of a simulation).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: Layers whose per-call durations are kept (for percentiles).
_SAMPLED = frozenset({"persistence", "service.journal"})

#: Kernel-backend entry points (see ``repro.kernels.api``).
KERNEL_METHODS = ("first_fit", "best_fit", "permutation_pack",
                  "affine_fit_thresholds", "batch_fit_thresholds",
                  "incremental_best_fit", "probe_scan")


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.samples: list[float] = []


class Tracer:
    ROOT = "<root>"

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- frames ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def frame(self, layer: str) -> Iterator[None]:
        stack = self._stack()
        child = [0.0]
        stack.append(child)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            with self._lock:
                st = self.layers.get(layer)
                if st is None:
                    st = self.layers[layer] = LayerStats()
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - child[0]
                if layer in _SAMPLED:
                    st.samples.append(dur)

    def reset(self) -> None:
        """Forget everything recorded so far (the patches stay)."""
        with self._lock:
            self.layers.clear()
            self.counters.clear()

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    # -- patching --------------------------------------------------------
    def wrap(self, owner: Any, attr: str, layer: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Time every call of ``owner.attr`` as a *layer* frame; *after*
        sees ``(args, kwargs, result)`` of each call that returned."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.frame(layer):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def replace(self, owner: Any, attr: str,
                make: Callable[[Any], Callable]) -> None:
        """Install ``make(original)`` at ``owner.attr`` (custom wrappers)."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- summaries -------------------------------------------------------
    def stats(self, layer: str) -> LayerStats:
        return self.layers.get(layer) or LayerStats()

    def self_s(self, *layers: str) -> float:
        return sum(self.stats(name).self_s for name in layers)

    def unattributed_frac(self) -> float:
        root = self.stats(self.ROOT)
        return root.self_s / root.total_s if root.total_s else 0.0

    @classmethod
    def from_json(cls, data: dict) -> "Tracer":
        """Rebuild a tracer's totals from :meth:`as_json` output."""
        tracer = cls()
        for name, rec in data["layers"].items():
            st = tracer.layers[name] = LayerStats()
            st.calls = rec["calls"]
            st.total_s = rec["total_s"]
            st.self_s = rec["self_s"]
            st.samples = rec["samples"]
        tracer.counters = dict(data["counters"])
        return tracer

    def as_json(self) -> dict:
        return {"layers": {name: {"calls": st.calls, "total_s": st.total_s,
                                  "self_s": st.self_s,
                                  "samples": st.samples}
                           for name, st in self.layers.items()},
                "counters": dict(self.counters)}


def install_layers(tracer: Tracer) -> None:
    """Wrap the program's layer entry points (call after importing it and
    pinning the kernel backend, before any solver object is built)."""
    from repro import kernels
    from repro.algorithms import greedy, rounding
    from repro.algorithms.vector_packing import (
        batch_solve, meta, probe_engine)
    from repro.core.allocation import Allocation
    from repro.dynamic import simulator
    from repro.experiments import persistence, runner
    from repro.service import journal

    t = tracer

    # workloads: instance generation inside the grid runner's tasks.
    t.wrap(runner, "generate_instance", "workloads")
    # runner: one grid task (instance generation and solves nested).
    t.wrap(runner, "_run_task", "runner")

    # Algorithm entry points, through the runner's timing helper: the
    # callee names the layer the whole solve belongs to.
    def timed_call(original):
        def call(fn, *args, **kwargs):
            name = getattr(fn, "name", "")
            layer = {"RRND": "rounding", "RRNZ": "rounding",
                     "METAGREEDY": "greedy"}.get(name, "vector_packing")
            with t.frame(layer):
                result, seconds = original(fn, *args, **kwargs)
            if layer == "rounding":
                t.count("rounding.solves")
                t.count("rounding.placed", result is not None)
            return result, seconds
        return call

    t.replace(runner, "timed_call", timed_call)

    def lp_done(args, kwargs, result):
        t.count("lp.calls")

    t.wrap(rounding, "solve_relaxation", "lp", lp_done)

    def greedy_done(args, kwargs, result):
        t.count("greedy.passes")
        t.count("greedy.placed", result is not None)

    t.wrap(greedy, "_greedy_place", "greedy", greedy_done)
    t.wrap(Allocation, "improve_yields", "allocation")

    # yield_search: the binary search, wherever META* calls it.
    def search(original):
        def run(*args, **kwargs):
            if kwargs.get("stats") is None:
                kwargs["stats"] = {}
            st = kwargs["stats"]
            with t.frame("yield_search"):
                result = original(*args, **kwargs)
            t.count("yield_search.solves")
            t.count("yield_search.probes", st.get("probes", 0))
            t.count("yield_search.hint_used", bool(st.get("hint_used")))
            return result
        return run

    t.replace(meta, "binary_search_max_yield", search)
    t.replace(batch_solve, "binary_search_max_yield", search)

    # vector_packing: one feasibility probe of either META* engine.
    def probe(original):
        def call(engine, *args, **kwargs):
            runs = engine.strategy_runs
            with t.frame("vector_packing"):
                placement = original(engine, *args, **kwargs)
            t.count("vector_packing.probes")
            t.count("vector_packing.strategy_runs",
                    engine.strategy_runs - runs)
            t.count("vector_packing.probe_success", placement is not None)
            return placement
        return call

    t.replace(probe_engine.MetaProbeEngine, "__call__", probe)
    t.replace(batch_solve.FusedProbeEngine, "__call__", probe)

    def batch_done(args, kwargs, result):
        t.count("kernels.batches")
        t.count("kernels.batch_items", len(args[0]))

    t.wrap(meta, "_solve_many", "vector_packing", batch_done)

    # kernels: every backend entry point, on the active backend object.
    backend = kernels.get_backend()
    for name in KERNEL_METHODS:
        t.wrap(backend, name, "kernels")

    # persistence: one durable checkpoint line (write + flush + fsync).
    def appended(args, kwargs, result):
        t.count("persistence.appends")
        t.count("persistence.bytes", len(args[1]))

    t.wrap(persistence, "_durable_append", "persistence", appended)

    # dynamic and sharing.
    t.wrap(simulator.DynamicSimulator, "run", "dynamic")
    t.wrap(simulator, "evaluate_actual_yields", "sharing")

    # service journal (daemon process only; harmless elsewhere).
    t.wrap(journal.EventJournal, "append", "service.journal")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics every in-process workload shares."""
    t = tracer
    c = t.counters

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    kern = t.stats("kernels")
    return {
        "lp.calls": c.get("lp.calls", 0),
        "lp.busy_s": t.self_s("lp"),
        "rounding.busy_s": t.self_s("rounding"),
        "rounding.success_ratio": ratio("rounding.placed",
                                        "rounding.solves"),
        "greedy.passes": c.get("greedy.passes", 0),
        "greedy.busy_s": t.self_s("greedy"),
        "greedy.feasible_ratio": ratio("greedy.placed", "greedy.passes"),
        "allocation.improve_calls": t.stats("allocation").calls,
        "allocation.improve_busy_s": t.self_s("allocation"),
        "yield_search.solves": c.get("yield_search.solves", 0),
        "yield_search.probes_per_solve": ratio("yield_search.probes",
                                               "yield_search.solves"),
        "yield_search.hint_used_ratio": ratio("yield_search.hint_used",
                                              "yield_search.solves"),
        "vector_packing.busy_s": t.self_s("vector_packing"),
        "vector_packing.strategy_runs_per_probe": ratio(
            "vector_packing.strategy_runs", "vector_packing.probes"),
        "vector_packing.probe_success_ratio": ratio(
            "vector_packing.probe_success", "vector_packing.probes"),
        "kernels.calls": kern.calls,
        "kernels.busy_s": kern.self_s,
        "kernels.batch_size_mean": ratio("kernels.batch_items",
                                         "kernels.batches"),
        "workloads.generate_s": t.self_s("workloads"),
        "runner.dispatch_s": t.self_s("runner"),
        "persistence.appends": c.get("persistence.appends", 0),
        "persistence.bytes": c.get("persistence.bytes", 0),
        "sharing.busy_s": t.self_s("sharing"),
        "trace.unattributed_frac": t.unattributed_frac(),
    }
