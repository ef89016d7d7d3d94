"""Parallel experiment runner.

Workers receive *picklable task descriptors* — a :class:`ScenarioConfig`
plus algorithm names — regenerate their instance locally from the derived
seed, run the algorithms, and return plain floats.  No arrays or
generators cross process boundaries (the scatter/gather discipline of the
HPC guides).

:func:`iter_grid` is the streaming engine: it submits tasks to the pool in
a bounded window (constant memory for million-task grids), optionally
appends every completed :class:`TaskResult` to a JSONL checkpoint, and on
``resume=True`` answers already-completed coordinates from the checkpoint
instead of recomputing — yielding results in input order either way, so a
resumed sweep is identical to an uninterrupted one.  :func:`run_grid` is
the materializing wrapper kept for existing callers.  Both stream through
:func:`stream_tasks`, the checkpointed loop every
:class:`~.spec.ExperimentSpec` runs on as well.
"""

from __future__ import annotations

import json
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    Optional, Sequence, Union)

import numpy as np

from ..algorithms import (
    metagreedy,
    metahvp,
    metahvp_light,
    metavp,
    milp_exact,
    random_placement,
    rrnd,
    rrnz,
)
from ..algorithms.base import NamedAlgorithm
from ..lp.solver import shared_relaxations
from ..util.parallel import parallel_imap_cached
from ..util.rng import derive_seed
from ..util.timing import timed_call
from ..workloads import ScenarioConfig, generate_instance

if TYPE_CHECKING:
    from .persistence import CheckpointStore, RecordCodec

__all__ = ["ALGORITHM_FACTORIES", "AlgorithmResult", "TaskResult",
           "grid_task_key", "iter_grid", "run_grid", "make_algorithms",
           "stream_tasks"]

#: Callback invoked per yielded result: ``progress(result, cached)`` where
#: *cached* is True when the result came from the checkpoint.
ProgressCallback = Callable[["TaskResult", bool], None]

#: Paper-name → zero-argument factory.  Factories (not instances) keep the
#: task descriptors picklable and let every worker build fresh closures.
ALGORITHM_FACTORIES: dict[str, Callable[[], NamedAlgorithm]] = {
    "RRND": rrnd,
    "RRNZ": rrnz,
    "METAGREEDY": metagreedy,
    "METAVP": metavp,
    "METAHVP": metahvp,
    "METAHVPLIGHT": metahvp_light,
    # Extra baselines beyond the paper's Table 1 (see their modules):
    "RANDOM": random_placement,
    "MILP": milp_exact,
}

#: Alphabetical registry rank per algorithm, fixed at import time.  These
#: feed :func:`derive_seed`, so the table must never depend on registry
#: mutation order — and computing it once here (instead of re-sorting the
#: registry for every algorithm of every task) keeps the per-task setup
#: cost flat.
_ALGO_STREAM_IDS: dict[str, int] = {
    name: rank for rank, name in enumerate(sorted(ALGORITHM_FACTORIES))
}


def make_algorithms(names: Sequence[str]) -> list[NamedAlgorithm]:
    unknown = [n for n in names if n not in ALGORITHM_FACTORIES]
    if unknown:
        raise KeyError(f"unknown algorithm(s): {unknown}; "
                       f"choose from {sorted(ALGORITHM_FACTORIES)}")
    return [ALGORITHM_FACTORIES[n]() for n in names]


@dataclass(frozen=True)
class AlgorithmResult:
    """One algorithm's outcome on one instance."""

    algorithm: str
    min_yield: Optional[float]
    seconds: float

    @property
    def succeeded(self) -> bool:
        return self.min_yield is not None


@dataclass(frozen=True)
class TaskResult:
    """All requested algorithms' outcomes on one instance."""

    config: ScenarioConfig
    results: tuple[AlgorithmResult, ...]

    def by_algorithm(self) -> dict[str, AlgorithmResult]:
        return {r.algorithm: r for r in self.results}


@dataclass(frozen=True)
class _Task:
    config: ScenarioConfig
    algorithms: tuple[str, ...]
    #: Seed each warm-capable solve with the best yield an earlier
    #: algorithm certified on the same instance.  Off for timing tables,
    #: which must measure standalone solves.
    warm_chain: bool = True


def _lp_scope(warm_chain: bool) -> AbstractContextManager[None]:
    # A warm-chain task's algorithms share one LP relaxation per
    # instance (RRND and RRNZ both round it); timing tables run cold,
    # so each of their rounding solves pays for its own LP.
    return shared_relaxations() if warm_chain else nullcontext()


def _run_task(task: _Task) -> TaskResult:
    with _lp_scope(task.warm_chain):
        instance = generate_instance(task.config)
        out = []
        hint: float | None = None
        for name in task.algorithms:
            algo = ALGORITHM_FACTORIES[name]()
            fn = getattr(algo, "fn", algo)
            if task.warm_chain and getattr(fn, "supports_hint", False):
                # All algorithms in a task solve the *same* instance, so the
                # best yield an earlier one certified is a strong seed for
                # this one's binary search.  The chain stays inside the
                # task, so results are independent of worker scheduling and
                # checkpoint resume.  Warm and cold searches certify equal
                # yields; the winning *strategy* at the final probe can
                # differ, so placement-derived values may shift within the
                # usual envelope of the engines' adaptive ordering.
                stats: dict = {}
                alloc, seconds = timed_call(
                    fn.solve_with_hint, instance, hint=hint, stats=stats)
                certified = stats.get("certified")
                if certified is not None and (hint is None
                                              or certified > hint):
                    hint = certified
            else:
                # Stochastic algorithms get a stream derived from the
                # instance coordinates plus the algorithm name, so
                # adding/removing algorithms never perturbs the others'
                # draws.
                rng = np.random.default_rng(
                    derive_seed(task.config.seed,
                                task.config.instance_index,
                                _algo_stream_id(name)))
                alloc, seconds = timed_call(algo, instance, rng=rng)
            min_yield = None if alloc is None else alloc.minimum_yield()
            if (not getattr(fn, "supports_hint", False)
                    and min_yield is not None
                    and (hint is None or min_yield > hint)):
                # Non-searching algorithms only offer their (post-improve)
                # allocation yield; still a usable advisory seed.
                hint = min_yield
            out.append(AlgorithmResult(name, min_yield, seconds))
        return TaskResult(task.config, tuple(out))


def _algo_stream_id(name: str) -> int:
    # Stable small integer per algorithm name (alphabetical registry rank).
    return _ALGO_STREAM_IDS[name]


def _run_task_batch(tasks: Sequence[_Task]) -> list[TaskResult]:
    """Run a block of tasks, batching warm solves through ``solve_many``.

    Produces exactly the results of ``[_run_task(t) for t in tasks]``:
    instances are generated per task, hint chains stay *within* each
    task (per instance, across the algorithm list), and stochastic
    algorithms draw from the same coordinate-derived streams.  Only the
    dispatch changes: for each hint-capable algorithm the whole block
    of instances goes through one :meth:`solve_many` call.
    """
    tasks = list(tasks)
    if len(tasks) == 1:
        return [_run_task(tasks[0])]
    shared = tasks[0]
    if any(t.algorithms != shared.algorithms
           or t.warm_chain != shared.warm_chain for t in tasks):
        # Mixed blocks can't share a solve_many call; grids never
        # produce them, but stay correct if a caller does.
        return [_run_task(t) for t in tasks]
    with _lp_scope(shared.warm_chain):
        instances = [generate_instance(t.config) for t in tasks]
        B = len(tasks)
        rows: list[list[AlgorithmResult]] = [[] for _ in range(B)]
        hints: list[float | None] = [None] * B
        for name in shared.algorithms:
            algo = ALGORITHM_FACTORIES[name]()
            fn = getattr(algo, "fn", algo)
            if getattr(fn, "supports_hint", False):
                # Every hint-capable algorithm is a MetaSolver.  Batched even
                # when the warm chain is off — hints simply stay None,
                # matching the cold per-instance calls.
                stats_list: list[dict] = [{} for _ in range(B)]
                allocs = fn.solve_many(
                    instances,
                    hints=list(hints) if shared.warm_chain else None,
                    stats=stats_list)
                for i in range(B):
                    stats = stats_list[i]
                    certified = stats.get("certified")
                    if shared.warm_chain and certified is not None \
                            and (hints[i] is None or certified > hints[i]):
                        hints[i] = certified
                    alloc = allocs[i]
                    min_yield = None if alloc is None else alloc.minimum_yield()
                    rows[i].append(AlgorithmResult(
                        name, min_yield, stats["seconds"]))
            else:
                for i, task in enumerate(tasks):
                    rng = np.random.default_rng(
                        derive_seed(task.config.seed,
                                    task.config.instance_index,
                                    _algo_stream_id(name)))
                    alloc, seconds = timed_call(algo, instances[i], rng=rng)
                    min_yield = None if alloc is None else alloc.minimum_yield()
                    if (min_yield is not None
                            and (hints[i] is None or min_yield > hints[i])):
                        hints[i] = min_yield
                    rows[i].append(AlgorithmResult(name, min_yield, seconds))
        return [TaskResult(t.config, tuple(rows[i]))
                for i, t in enumerate(tasks)]


def grid_task_key(task: _Task) -> tuple:
    """Checkpoint and shard key of one grid task (see
    :func:`~.persistence.task_key`)."""
    from .persistence import task_key  # deferred: circular
    return task_key(task.config, task.algorithms)


def stream_tasks(worker: Callable[[Any], Any], tasks: Iterable[Any],
                 key: Callable[[Any], object], codec: "RecordCodec",
                 workers: int | None = None,
                 *,
                 window: int | None = None,
                 checkpoint: Union[str, "CheckpointStore", None] = None,
                 resume: bool = False,
                 progress: Optional[Callable[[Any, bool], None]] = None,
                 **dispatch: Any) -> Iterator[Any]:
    """Stream ``worker(task)`` for every task, in input order, through an
    optional checkpoint of *codec* records.

    *key* maps a task to its JSON-able key.  With *checkpoint* (a JSONL
    path or an open :class:`~.persistence.CheckpointStore`), every
    computed result is appended — flushed and fsynced — before it is
    yielded, so an interrupted run loses at most the tasks still in
    flight.  With ``resume=True`` the checkpoint is indexed first and
    tasks whose key it holds are answered from it instead of recomputed.
    A path with ``resume=False`` drops the codec's old records.
    *dispatch* (``chunk``/``chunk_fn``) passes through to
    :func:`parallel_imap_cached`.
    """
    from .persistence import as_result_store, canonical_key  # circular

    store = as_result_store(checkpoint, resume=resume, codec=codec)
    stream = parallel_imap_cached(
        worker, tasks, {} if store is None else store.completed,
        key=lambda task: canonical_key(key(task)),
        workers=workers, window=window,
        on_computed=None if store is None else (
            lambda canon, value: store.append(json.loads(canon), value)),
        progress=progress, **dispatch)
    try:
        yield from stream
    finally:
        stream.close()
        if store is not None and store is not checkpoint:
            store.close()  # we opened it from a path, so we close it


def iter_grid(configs: Iterable[ScenarioConfig],
              algorithms: Sequence[str],
              workers: int | None = None,
              *,
              window: int | None = None,
              checkpoint: Union[str, "CheckpointStore", None] = None,
              resume: bool = False,
              progress: Optional[ProgressCallback] = None,
              warm_chain: bool = True,
              batch: int = 1,
              ) -> Iterator[TaskResult]:
    """Stream :class:`TaskResult`s for *configs* in input order.

    *configs* may be an arbitrarily large lazy iterable; only ``window``
    tasks (default ``4 × workers``) are in flight at once.

    With ``batch > 1``, each worker dispatch covers up to *batch*
    consecutive tasks and warm META* solves go through
    ``MetaSolver.solve_many`` — results, checkpoint rows, and resume
    behavior are identical to ``batch=1`` apart from wall-clock.

    *checkpoint* and *resume* work as in :func:`stream_tasks`: a task is
    answered from the checkpoint when its coordinates (scenario cell +
    algorithm tuple) are already present, and because instances are
    regenerated from their coordinates, the resumed stream is exactly the
    uninterrupted one.

    *progress* is invoked as ``progress(result, cached)`` for every
    yielded result.
    """
    from .persistence import TASK_RECORDS  # deferred: circular

    algorithms = tuple(algorithms)
    make_algorithms(algorithms)  # validate names up front
    tasks = (_Task(cfg, algorithms, warm_chain) for cfg in configs)
    yield from stream_tasks(
        _run_task, tasks, grid_task_key, TASK_RECORDS, workers,
        window=window, checkpoint=checkpoint, resume=resume,
        progress=progress, chunk=batch,
        chunk_fn=_run_task_batch if batch > 1 else None)


def run_grid(configs: Iterable[ScenarioConfig],
             algorithms: Sequence[str],
             workers: int | None = None,
             *,
             window: int | None = None,
             checkpoint: Union[str, "CheckpointStore", None] = None,
             resume: bool = False,
             progress: Optional[ProgressCallback] = None,
             warm_chain: bool = True,
             batch: int = 1) -> list[TaskResult]:
    """Run *algorithms* on every config; order of results matches input.

    Materializing wrapper around :func:`iter_grid`; the keyword-only
    checkpoint/resume/progress options are forwarded unchanged.
    """
    return list(iter_grid(configs, algorithms, workers, window=window,
                          checkpoint=checkpoint, resume=resume,
                          progress=progress, warm_chain=warm_chain,
                          batch=batch))
