"""Declarative experiment specifications and machine-level sharding.

Every experiment in this repository — the Table 1/2 sweeps, the CoV and
error figure families, the §5.1 strategy ranking, the failure sweep — is
one *scenario space* evaluated a particular way.  An
:class:`ExperimentSpec` captures that shape declaratively: a
deterministic, stably-ordered **task list**, a **task key** (a JSON-able
coordinate per task), a module-level **worker** that computes one task, a
**record codec** that stores one result as a checkpoint line (see
:mod:`.persistence`), a **reducer** that folds the in-order result stream
into the experiment's data object, and a **formatter** that renders it.
The drivers in ``table1.py``, ``table2.py``, ``figures_cov.py``,
``figures_error.py``, ``strategy_ranking.py`` and ``failure_sweep.py``
are thin builders of this one type; enumeration, checkpointing and
resume live once in :func:`~.runner.stream_tasks`.  Grid experiments
(:func:`grid_experiment`) solve scenario cells with a fixed algorithm
set and store task records; the others store keyed payload records under
a spec fingerprint.

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
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .persistence import (
    TASK_RECORDS,
    RecordCodec,
    canonical_key,
    read_completed,
)
from .runner import (
    ProgressCallback,
    TaskResult,
    _run_task,
    _Task,
    grid_task_key,
    make_algorithms,
    stream_tasks,
)

__all__ = [
    "ExperimentSpec",
    "IncompleteResultsError",
    "Shard",
    "grid_experiment",
    "shard_index",
    "spec_fingerprint",
]


def shard_index(key: object, of: int) -> int:
    """Deterministic shard owner of a task *key*, identical on every
    machine and Python version (canonical JSON + SHA-1, never ``hash()``,
    which is salted per process)."""
    digest = hashlib.sha1(canonical_key(key).encode()).digest()
    return int.from_bytes(digest[:8], "big") % of


def spec_fingerprint(spec: Any) -> str:
    """Identity of a payload experiment's records in a shared checkpoint:
    SHA-1 (12 hex digits) of the dataclass *spec*'s fields as sorted JSON.

    ``instances`` is excluded: payloads are per-instance, so growing the
    instance count on resume reuses the ones already computed.
    """
    fields = asdict(spec)
    fields.pop("instances")
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


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


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: its tasks, how to compute, store and reduce them.

    ``tasks`` is a zero-argument callable yielding the task descriptors
    in canonical order (lazy, so paper-scale grids never materialize).
    ``key`` maps a task to its JSON-able coordinate, which picks its shard
    and its checkpoint record.  ``worker`` computes one task's result in
    a pool process, so it must be a module-level function.  ``codec``
    turns a result into a checkpoint record and back, ``reduce`` folds
    the in-order result stream into the data object and ``formatter``
    renders that.
    """

    name: str
    tasks: Callable[[], Iterable[Any]]
    key: Callable[[Any], object]
    worker: Callable[[Any], Any]
    codec: RecordCodec
    reduce: Callable[[Iterator[Any]], Any]
    formatter: Callable[[Any], str]

    def task_keys(self) -> Iterator[object]:
        """The spec's task coordinates, in its canonical order."""
        return (self.key(task) for task in self.tasks())

    def task_count(self) -> int:
        return sum(1 for _ in self.tasks())

    def _stream(self, tasks: Iterable[Any], workers: int | None,
                checkpoint, resume: bool, window: int | None,
                progress: Optional[ProgressCallback]) -> Iterator[Any]:
        return stream_tasks(self.worker, tasks, self.key, self.codec,
                            workers, window=window, checkpoint=checkpoint,
                            resume=resume, progress=progress)

    def run(self, workers: int | None = None, *,
            checkpoint=None, resume: bool = False,
            window: int | None = None,
            progress: Optional[ProgressCallback] = None) -> Any:
        """Run every task and reduce the stream into the data object."""
        return self.reduce(self._stream(self.tasks(), workers, checkpoint,
                                        resume, window, progress))

    def run_shard(self, shard: Shard, workers: int | None = None, *,
                  checkpoint=None, resume: bool = False,
                  window: int | None = None,
                  progress: Optional[ProgressCallback] = None) -> int:
        """Run only *shard*'s tasks (checkpointing them); returns the
        number of tasks completed, resumed entries included."""
        mine = (task for task in self.tasks() if shard.owns(self.key(task)))
        return sum(1 for _ in self._stream(mine, workers, checkpoint, resume,
                                           window, progress))

    def collect(self, sources: Sequence[str]) -> Any:
        """Reduce the full experiment from checkpoint files alone.

        *sources* are shard (or merged) JSONL paths, read but never
        written.  Within a file the last record for a task is current;
        across files the first file listed wins.  Every task in the
        spec's list must be present; raises
        :class:`IncompleteResultsError` otherwise.  Because the reducer
        sees results in the spec's canonical order, the returned data —
        and its rendering — is identical to an unsharded :meth:`run`.
        """
        found = read_completed(sources, self.codec)

        def ordered() -> Iterator[Any]:
            missing = 0
            total = 0
            example = None
            for key in self.task_keys():
                total += 1
                canon = canonical_key(key)
                if canon in found:
                    yield found[canon]
                    continue
                missing += 1
                if example is None:
                    example = key
            if missing:
                raise IncompleteResultsError(self.name, missing, total,
                                             example)

        return self.reduce(ordered())

    def render(self, data: Any) -> str:
        return self.formatter(data)


def grid_experiment(name: str, configs: Callable[[], Iterable],
                    algorithms: Sequence[str],
                    reduce: Callable[[Iterator[TaskResult]], Any],
                    formatter: Callable[[Any], str],
                    warm_chain: bool = True) -> ExperimentSpec:
    """A spec over scenario cells solved by a fixed algorithm set.

    ``configs`` is a zero-argument callable yielding the grid's
    :class:`~..workloads.ScenarioConfig` cells in canonical order.  Each
    cell is one :class:`~.runner.TaskResult`, stored as a task record;
    *warm_chain* is as in :func:`~.runner.iter_grid`.
    """
    algorithms = tuple(algorithms)
    make_algorithms(algorithms)  # validate names up front
    return ExperimentSpec(
        name=name,
        tasks=lambda: (_Task(cfg, algorithms, warm_chain)
                       for cfg in configs()),
        key=grid_task_key,
        worker=_run_task,
        codec=TASK_RECORDS,
        reduce=reduce,
        formatter=formatter,
    )
