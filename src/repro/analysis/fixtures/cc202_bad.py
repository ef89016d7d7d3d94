# repro-fixture: rule=CC202 count=2 path=repro/experiments/example.py
# ruff: noqa
"""Known-bad: closure workers crossing the process-pool boundary."""
from repro.util.parallel import parallel_imap_cached


def run_sweep(tasks, scale):
    results = []

    def worker(task):
        results.append(task)  # mutated copy: never visible to the parent
        return task * scale

    doubled = list(parallel_imap_cached(lambda t: t * 2, tasks, {},
                                        key=lambda t: t))
    scaled = list(parallel_imap_cached(worker, tasks, {}, key=lambda t: t))
    return doubled, scaled, results
