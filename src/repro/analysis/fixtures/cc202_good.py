# repro-fixture: rule=CC202 count=0 path=repro/experiments/example.py
# ruff: noqa
"""Known-good: module-level picklable workers."""
from repro.util.parallel import parallel_imap_cached


def _solve_task(task):
    return task * 2


def run_sweep(tasks, cache):
    fresh = list(parallel_imap_cached(_solve_task, tasks, {},
                                      key=lambda t: t))
    resumed = list(parallel_imap_cached(_solve_task, tasks, cache,
                                        key=lambda t: t))
    return fresh, resumed
