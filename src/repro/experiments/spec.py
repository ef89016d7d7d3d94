"""Declarative experiment specifications and machine-level sharding.

Every experiment in this repository — the Table 1/2 sweeps, the CoV and
error figure families, the §5.1 strategy ranking — is one *scenario space*
evaluated a particular way.  An :class:`ExperimentSpec` captures that
shape declaratively: a deterministic, stably-ordered **task list** (each
task carrying a JSON-able coordinate key), a **worker** that computes one
task, a **reducer** that folds the completed stream into the experiment's
data object, and a **formatter** that renders it.  The drivers in
``table1.py``, ``table2.py``, ``figures_cov.py``, ``figures_error.py``
and ``strategy_ranking.py`` are now thin builders of these specs;
enumeration, checkpointing, resume and warm-start hint chaining live once
in :func:`~.runner.iter_grid` and :func:`~..util.parallel.
parallel_imap_cached`.

Two concrete spec families cover every driver:

* :class:`GridExperiment` — tasks are :class:`~..workloads.
  ScenarioConfig` cells solved by a fixed algorithm set; results are
  :class:`~.runner.TaskResult` rows persisted by :class:`~.persistence.
  ResultStore`.
* :class:`CheckpointExperiment` — tasks are arbitrary picklable
  descriptors (error-figure instances, strategy indices) whose payloads
  are persisted by :class:`~.persistence.JsonlCheckpoint` under a spec
  fingerprint.

**Sharding.**  Because a spec's task order is deterministic and every
task key is canonical JSON, any experiment can be partitioned across
machines: :class:`Shard` assigns each task to ``sha1(key) mod n``, each
shard streams its share into its own JSONL checkpoint
(``repro shard --index i --of n ...``), and :meth:`ExperimentSpec.collect`
rebuilds the *exact* unsharded reduction from the merged shard files
(``repro merge``) — tasks are self-contained (hint chains never cross
task boundaries), so the merged table or figure is byte-identical to an
unsharded run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .persistence import (
    JsonlCheckpoint,
    as_jsonl_checkpoint,
    fingerprinted_cache,
    load_results,
    task_key,
)
from .runner import ProgressCallback, TaskResult, iter_grid

__all__ = [
    "CheckpointExperiment",
    "ExperimentSpec",
    "GridExperiment",
    "IncompleteResultsError",
    "Shard",
    "shard_index",
]


def shard_index(key: object, of: int) -> int:
    """Deterministic shard owner of a task *key*, identical on every
    machine and Python version (canonical JSON + SHA-1, never ``hash()``,
    which is salted per process)."""
    canon = json.dumps(key, sort_keys=True)
    digest = hashlib.sha1(canon.encode()).digest()
    return int.from_bytes(digest[:8], "big") % of


@dataclass(frozen=True)
class Shard:
    """One slice (``index`` of ``of``) of an experiment's task list.

    Every task belongs to exactly one shard, so the union of all ``of``
    shards is an exact partition — the property the shard/merge tests
    assert for every spec.
    """

    index: int
    of: int

    def __post_init__(self) -> None:
        if self.of < 1:
            raise ValueError(f"shard count must be >= 1, got {self.of}")
        if not 0 <= self.index < self.of:
            raise ValueError(
                f"shard index must lie in [0, {self.of}), got {self.index}")

    def owns(self, key: object) -> bool:
        return shard_index(key, self.of) == self.index


class IncompleteResultsError(RuntimeError):
    """``collect`` found shard checkpoints missing some of the spec's
    tasks — a shard is absent, unfinished, or was run for different
    coordinates (other grid, other workload model)."""

    def __init__(self, name: str, missing: int, total: int, example: object):
        super().__init__(
            f"{name}: shard checkpoints cover {total - missing} of {total} "
            f"tasks; first missing key: {json.dumps(example)}.  Run the "
            f"missing shard(s) to completion, or check that every shard "
            f"used the same grid/workload arguments.")
        self.missing = missing
        self.total = total


class ExperimentSpec:
    """Interface shared by :class:`GridExperiment` and
    :class:`CheckpointExperiment` (see module docstring)."""

    name: str

    def task_keys(self) -> Iterator[object]:
        """The spec's task coordinates, in its canonical order."""
        raise NotImplementedError

    def task_count(self) -> int:
        return sum(1 for _ in self.task_keys())

    def run(self, workers: int | None = None, *,
            checkpoint=None, resume: bool = False,
            window: int | None = None,
            progress: Optional[ProgressCallback] = None,
            batch: int = 1):
        """Run every task and reduce the stream into the data object.

        *batch* groups tasks into kernel batches per worker dispatch
        where the spec supports it (grid experiments); results are
        identical to ``batch=1``.
        """
        raise NotImplementedError

    def run_shard(self, shard: Shard, workers: int | None = None, *,
                  checkpoint=None, resume: bool = False,
                  window: int | None = None,
                  progress: Optional[ProgressCallback] = None,
                  batch: int = 1) -> int:
        """Run only *shard*'s tasks (checkpointing them); returns the
        number of tasks completed, resumed entries included."""
        raise NotImplementedError

    def collect(self, sources: Sequence[str]):
        """Reduce the full experiment from checkpoint files alone.

        *sources* are shard (or merged) JSONL paths.  Every task in the
        spec's list must be present; raises
        :class:`IncompleteResultsError` otherwise.  Because the reducer
        sees results in the spec's canonical order, the returned data —
        and its rendering — is identical to an unsharded :meth:`run`.
        """
        raise NotImplementedError

    def render(self, data) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class GridExperiment(ExperimentSpec):
    """Spec over a scenario grid solved by a fixed algorithm set.

    ``configs`` is a zero-argument callable yielding the grid's
    :class:`ScenarioConfig` cells in canonical order (lazy, so paper-scale
    grids never materialize).  ``reduce`` folds an in-order stream of
    :class:`TaskResult` into the experiment's data object; it receives the
    spec itself for access to the algorithm set.
    """

    name: str
    configs: Callable[[], Iterable]
    algorithms: tuple[str, ...]
    reduce: Callable[["GridExperiment", Iterator[TaskResult]], object]
    formatter: Callable[[object], str]
    warm_chain: bool = True

    def iter_configs(self) -> Iterator:
        return iter(self.configs())

    def task_keys(self) -> Iterator[object]:
        for cfg in self.iter_configs():
            yield task_key(cfg, self.algorithms)

    def _stream(self, configs: Iterable, workers, checkpoint, resume,
                window, progress, batch: int = 1) -> Iterator[TaskResult]:
        return iter_grid(configs, self.algorithms, workers, window=window,
                         checkpoint=checkpoint, resume=resume,
                         progress=progress, warm_chain=self.warm_chain,
                         batch=batch)

    def run(self, workers: int | None = None, *,
            checkpoint=None, resume: bool = False,
            window: int | None = None,
            progress: Optional[ProgressCallback] = None,
            batch: int = 1):
        stream = self._stream(self.iter_configs(), workers, checkpoint,
                              resume, window, progress, batch)
        return self.reduce(self, stream)

    def run_shard(self, shard: Shard, workers: int | None = None, *,
                  checkpoint=None, resume: bool = False,
                  window: int | None = None,
                  progress: Optional[ProgressCallback] = None,
                  batch: int = 1) -> int:
        configs = (cfg for cfg in self.iter_configs()
                   if shard.owns(task_key(cfg, self.algorithms)))
        stream = self._stream(configs, workers, checkpoint, resume,
                              window, progress, batch)
        return sum(1 for _ in stream)

    def collect(self, sources: Sequence[str]):
        completed: dict[tuple, TaskResult] = {}
        for path in sources:
            for task in load_results(path):
                algos = tuple(r.algorithm for r in task.results)
                completed.setdefault(task_key(task.config, algos), task)

        def ordered() -> Iterator[TaskResult]:
            missing = 0
            total = 0
            example = None
            for cfg in self.iter_configs():
                total += 1
                key = task_key(cfg, self.algorithms)
                task = completed.get(key)
                if task is None:
                    missing += 1
                    example = example or key
                    continue
                yield task
            if missing:
                raise IncompleteResultsError(self.name, missing, total,
                                             example)

        return self.reduce(self, ordered())

    def render(self, data) -> str:
        return self.formatter(data)


@dataclass(frozen=True)
class CheckpointExperiment(ExperimentSpec):
    """Spec whose tasks persist as fingerprinted key→payload records.

    ``tasks`` are picklable descriptors in canonical order; ``index_of``
    maps a descriptor to its position (the second element of its
    ``[fingerprint, index]`` checkpoint key).  ``worker`` computes one
    task's payload object; ``encode``/``decode`` convert payloads to/from
    their JSON form; ``reduce`` folds the full in-order payload list into
    the data object.  The fingerprint covers everything that shapes a
    payload — scenario coordinates, workload model, search flags — so
    foreign checkpoints can never alias.
    """

    name: str
    kind: str
    fingerprint: str
    tasks: tuple
    worker: Callable
    index_of: Callable[[object], int]
    encode: Callable[[object], object]
    decode: Callable[[int, object], object]
    reduce: Callable[["CheckpointExperiment", Sequence], object]
    formatter: Callable[[object], str]

    def task_keys(self) -> Iterator[object]:
        for task in self.tasks:
            yield [self.fingerprint, self.index_of(task)]

    def task_count(self) -> int:
        return len(self.tasks)

    def _key(self, task) -> str:
        return json.dumps([self.fingerprint, self.index_of(task)],
                          sort_keys=True)

    def _payloads(self, tasks: Sequence, workers, checkpoint, resume,
                  window, progress) -> Iterator:
        """Stream payload objects for *tasks* in order, checkpointing."""
        from ..util.parallel import parallel_imap_cached

        ckpt = as_jsonl_checkpoint(checkpoint, kind=self.kind, resume=resume)
        cache = fingerprinted_cache(
            ckpt, self.fingerprint,
            lambda key, payload: self.decode(key[1], payload))

        def on_computed(key: str, value) -> None:
            ckpt.append(json.loads(key), self.encode(value))

        stream = parallel_imap_cached(
            self.worker, tasks, cache, key=self._key,
            workers=workers, window=window,
            on_computed=None if ckpt is None else on_computed,
            progress=progress)
        try:
            yield from stream
        finally:
            stream.close()
            if ckpt is not None and ckpt is not checkpoint:
                ckpt.close()

    def run(self, workers: int | None = None, *,
            checkpoint=None, resume: bool = False,
            window: int | None = None,
            progress: Optional[ProgressCallback] = None,
            batch: int = 1):
        # *batch* accepted for interface parity; checkpoint-experiment
        # workers are arbitrary callables, so there is nothing to fuse.
        payloads = list(self._payloads(self.tasks, workers, checkpoint,
                                       resume, window, progress))
        return self.reduce(self, payloads)

    def run_shard(self, shard: Shard, workers: int | None = None, *,
                  checkpoint=None, resume: bool = False,
                  window: int | None = None,
                  progress: Optional[ProgressCallback] = None,
                  batch: int = 1) -> int:
        mine = [t for t in self.tasks
                if shard.owns([self.fingerprint, self.index_of(t)])]
        return sum(1 for _ in self._payloads(mine, workers, checkpoint,
                                             resume, window, progress))

    def collect(self, sources: Sequence[str]):
        found: dict[int, object] = {}
        for path in sources:
            ckpt = JsonlCheckpoint(path, kind=self.kind, resume=True)
            for canon, payload in ckpt.completed.items():
                key = json.loads(canon)
                if key[0] == self.fingerprint and key[1] not in found:
                    found[key[1]] = self.decode(key[1], payload)
        indices = [self.index_of(t) for t in self.tasks]
        missing = [i for i in indices if i not in found]
        if missing:
            raise IncompleteResultsError(
                self.name, len(missing), len(indices),
                [self.fingerprint, missing[0]])
        return self.reduce(self, [found[i] for i in indices])

    def render(self, data) -> str:
        return self.formatter(data)
