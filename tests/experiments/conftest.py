"""Shared helpers for the experiment tests."""

from repro.experiments.persistence import (TASK_RECORDS, CheckpointStore,
                                           task_key)


def append_tasks(path, tasks):
    """Append *tasks* to *path* as grid task records, through the same
    fsynced store a sweep's checkpoint uses (earlier records are kept)."""
    with CheckpointStore(path, TASK_RECORDS, resume=True) as store:
        for task in tasks:
            algorithms = tuple(r.algorithm for r in task.results)
            store.append(task_key(task.config, algorithms), task)
