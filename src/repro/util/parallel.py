"""Process-pool map for embarrassingly parallel experiment sweeps.

The experiment grids (thousands of independent instances) are the classic
"scatter work, gather results" pattern from the HPC guides.  We use
``concurrent.futures.ProcessPoolExecutor`` with picklable task descriptors
(seeds + parameters, never generator objects or big arrays) so each worker
regenerates its instance locally — the same discipline an MPI scatter would
impose, without requiring an MPI runtime.

:func:`parallel_imap` is a *streaming* generator that keeps only a
bounded window of tasks in flight, so million-task grids run in constant
memory and each result can be checkpointed the moment it completes;
:func:`parallel_imap_cached` answers already-completed tasks from a cache
(the resume path) on the same windowed loop.

Worker failures are wrapped in :class:`TaskError`, which records the index
and a summary of the offending task — with thousands of grid cells, a bare
``ZeroDivisionError`` from the pool is otherwise undiagnosable.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import (
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    TypeVar,
)

from .. import obs

__all__ = ["TaskError", "default_workers", "parallel_imap",
           "parallel_imap_cached"]

T = TypeVar("T")
R = TypeVar("R")

_SUMMARY_LIMIT = 200


class TaskError(RuntimeError):
    """A worker raised while processing one task of a sweep.

    Carries the task's position in the input sequence and a truncated
    ``repr`` of the task descriptor (for grid runs, the scenario config),
    so a failure deep inside a 100k-cell sweep points at the exact cell.
    """

    def __init__(self, index: int, task_summary: str, message: str):
        super().__init__(
            f"task {index} ({task_summary}) failed: {message}")
        self.index = index
        self.task_summary = task_summary
        self.message = message

    def __reduce__(self):  # keep .index/.task_summary across process pickling
        return (TaskError, (self.index, self.task_summary, self.message))


def _summarize(task: object) -> str:
    text = repr(task)
    if len(text) > _SUMMARY_LIMIT:
        text = text[:_SUMMARY_LIMIT - 3] + "..."
    return text


class _IndexedCall:
    """Picklable wrapper: run ``fn`` on an ``(index, task)`` pair, wrapping
    any exception in :class:`TaskError` with the task's coordinates."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, pair):
        index, task = pair
        if not obs.enabled():
            return self._run(index, task)
        # Worker processes re-enable from REPRO_OBS at import, so sweep
        # task spans land in the shared sink whichever side runs them.
        with obs.span("parallel.task") as sp:
            sp.annotate(index=index)
            return self._run(index, task)

    def _run(self, index, task):
        try:
            return self.fn(task)
        except TaskError:
            raise
        except Exception as exc:
            raise TaskError(index, _summarize(task),
                            f"{type(exc).__name__}: {exc}") from exc


def default_workers() -> int:
    """Worker count: all cores, overridable via ``REPRO_WORKERS``."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _imap_pairs(fn: Callable[[T], R], pairs: Iterable[tuple[int, T]],
                workers: int, window: int | None) -> Iterator[R]:
    """Core windowed submit loop over pre-indexed ``(index, task)`` pairs.

    The indices only feed :class:`TaskError` context, so callers that
    filter the task stream (the cached merge) can still report positions
    in the *original* sequence.
    """
    pairs = iter(pairs)
    if workers <= 1:
        call = _IndexedCall(fn)
        for pair in pairs:
            yield call(pair)
        return
    if window is None:
        window = workers * 4
    window = max(1, window)
    call = _IndexedCall(fn)
    head = list(itertools.islice(pairs, window))
    if not head:  # empty input: never start a pool
        return
    # Under the ``fork`` start method the pool starts all its workers at
    # the first submit, and no more than one window of tasks is ever in
    # flight: a stream shorter than the pool gets one process per task.
    workers = min(workers, len(head))
    pool = ProcessPoolExecutor(max_workers=workers)
    # A long-lived span here would leak trace context into the consumer
    # across every ``yield``, so the sweep is summarized by a single
    # end-of-stream event instead (tasks completed, wall time).
    started = time.perf_counter()
    completed = 0
    try:
        inflight: deque = deque()
        for pair in head:
            inflight.append(pool.submit(call, pair))
        while inflight:
            result = inflight.popleft().result()
            for pair in itertools.islice(pairs, 1):
                inflight.append(pool.submit(call, pair))
            completed += 1
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        if obs.enabled():
            obs.event("parallel.sweep", {
                "tasks": completed,
                "workers": workers,
                "window": window,
                "wall_s": round(time.perf_counter() - started, 6),
            })


def parallel_imap(fn: Callable[[T], R], tasks: Iterable[T],
                  workers: int | None = None,
                  window: int | None = None) -> Iterator[R]:
    """Stream ``fn(task)`` results in input order with bounded look-ahead.

    *tasks* may be an arbitrarily long (even infinite) iterable: at most
    *window* tasks are pulled ahead of the consumer and held in flight, so
    memory stays constant regardless of grid size.  Results are yielded
    strictly in submission order — the contract checkpoint/resume relies
    on.

    With one worker the pool is bypassed entirely and tasks are pulled
    lazily one at a time.  Closing the generator early cancels all not-yet-
    started tasks and waits only for the ones already running.
    """
    workers = workers if workers is not None else default_workers()
    return _imap_pairs(fn, enumerate(iter(tasks)), workers, window)


def _flatten_blocks(blocks: Iterator[Sequence[R]]) -> Iterator[R]:
    """Flatten a stream of result blocks, closing it with the consumer."""
    try:
        for block in blocks:
            yield from block
    finally:
        blocks.close()


def parallel_imap_cached(fn: Callable[[T], R], tasks: Iterable[T],
                         cache: Mapping[Hashable, R],
                         key: Callable[[T], Hashable],
                         workers: int | None = None,
                         window: int | None = None,
                         on_computed: Callable[[Hashable, R], None]
                         | None = None,
                         progress: Callable[[R, bool], None]
                         | None = None,
                         chunk: int = 1,
                         chunk_fn: Callable[[Sequence[T]], Sequence[R]]
                         | None = None) -> Iterator[R]:
    """Like :func:`parallel_imap`, but tasks whose ``key(task)`` is present
    in *cache* are answered from the cache instead of being executed.

    Results come back in input order regardless of the cached/computed mix,
    so a resumed sweep is indistinguishable from an uninterrupted one.
    Freshly computed values are handed to ``on_computed(key, value)`` as
    they complete — the hook the JSONL checkpoint writers plug into — and
    every value passes through ``progress(value, cached)`` just before it
    is yielded.  A :class:`TaskError` still reports the failing task's
    position in the *original* sequence, cache hits included.  Cached
    values may legitimately be ``None``; membership, not truthiness,
    decides a hit.

    With ``chunk > 1`` and a *chunk_fn*, cache misses are grouped into
    blocks of up to *chunk* consecutive tasks and each block is handed to
    ``chunk_fn(list_of_tasks)``, which must return one result per task in
    order — the hook batched kernel dispatch plugs into.  Checkpointing,
    ordering, and the cached merge are unaffected: results are flattened
    back into the per-task stream before the bookkeeping above runs.
    """
    # In input order: (True, cached_value) for hits, (False, key) for
    # misses.  The pool pulls ahead of the consumer (window filling), so
    # this deque buffers the hits encountered along the way.
    flags: deque = deque()

    def pending() -> Iterator[tuple[int, T]]:
        for index, task in enumerate(tasks):
            k = key(task)
            if k in cache:
                flags.append((True, cache[k]))
            else:
                flags.append((False, k))
                yield index, task

    def emit(value: R, cached: bool) -> R:
        if progress is not None:
            progress(value, cached)
        return value

    workers = workers if workers is not None else default_workers()
    if chunk > 1 and chunk_fn is not None:
        def chunked() -> Iterator[tuple[int, list[T]]]:
            pairs = pending()
            while True:
                block = list(itertools.islice(pairs, chunk))
                if not block:
                    return
                # The block reports errors at its first task's position.
                yield block[0][0], [task for _, task in block]

        computed = _flatten_blocks(
            _imap_pairs(chunk_fn, chunked(), workers, window))
    else:
        computed = _imap_pairs(fn, pending(), workers, window)
    try:
        while True:
            while flags and flags[0][0]:
                yield emit(flags.popleft()[1], True)
            try:
                value = next(computed)
            except StopIteration:
                break
            # Filling the window may have buffered more hits that precede
            # the miss this result answers; flush them before it.
            while flags and flags[0][0]:
                yield emit(flags.popleft()[1], True)
            _, k = flags.popleft()
            if on_computed is not None:
                on_computed(k, value)
            yield emit(value, False)
        while flags:  # trailing cache hits after the last computed task
            yield emit(flags.popleft()[1], True)
    finally:
        computed.close()
