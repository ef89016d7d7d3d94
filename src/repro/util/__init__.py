"""Shared utilities: deterministic RNG streams, timing, the sweep pool
(:mod:`.parallel`)."""

from .parallel import default_workers
from .rng import as_generator, derive_seed
from .timing import timed_call

__all__ = [
    "as_generator",
    "default_workers",
    "derive_seed",
    "timed_call",
]
