"""Deterministic random-number plumbing.

Every stochastic component in the library accepts either an integer seed or
a ``numpy.random.Generator``.  Experiment drivers need *independent* streams
per instance so that (a) results are reproducible regardless of execution
order and (b) parallel workers do not share state.  :func:`derive_seed`
gives each grid position its own ``SeedSequence`` spawn key, which
provides statistically independent child streams.
"""

from __future__ import annotations


import numpy as np

__all__ = ["as_generator", "derive_seed"]


def as_generator(rng: int | np.random.Generator | np.random.SeedSequence | None
                 ) -> np.random.Generator:
    """Coerce *rng* to a ``numpy.random.Generator``.

    ``None`` yields a fresh nondeterministic generator; an existing
    generator is returned as-is (shared state, caller's choice).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    return np.random.default_rng(rng)


def derive_seed(root: int, *path: int) -> np.random.SeedSequence:
    """A ``SeedSequence`` for a position in a fixed experiment grid.

    ``derive_seed(root, scenario, instance)`` is stable across runs and
    across processes, so a worker can regenerate exactly its own instance
    without receiving generator objects over IPC.
    """
    return np.random.SeedSequence(entropy=root, spawn_key=tuple(path))
