"""Heavy-tailed synthetic workload family.

The Google-trace marginals of :mod:`.google_model` are *bounded*: requested
cores top out at 8 and the memory log-normal is light enough that the §4
slack rescaling dominates instance difficulty.  Real consolidation traces —
and the robustness studies that follow the paper (resource allocation over
virtual clusters, memory-pressure follow-ups) — are closer to power laws:
a few services want orders of magnitude more CPU or memory than the
median.  This model draws both marginals from Pareto (or truncated
log-normal) distributions with configurable tail indices, so allocators
can be stress-tested on instances where one service may rival a whole
node.

The descriptors are built the Google model's way
(:func:`~repro.workloads.google_model.services_from_marginals`), so
everything downstream (§4 rescaling, packers, experiment drivers) is
unchanged: aggregate CPU need ∝ requested cores, elementary CPU need is
the per-core share, memory is a rigid requirement, and the elementary
CPU requirement is one shared reference value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.service import ServiceArray
from ..util.rng import as_generator
from .google_model import services_from_marginals

__all__ = ["HeavyTailedWorkloadModel"]


@dataclass(frozen=True)
class HeavyTailedWorkloadModel:
    """Pareto/log-normal service marginals with configurable tail indices.

    Attributes
    ----------
    cpu_tail_index:
        Pareto shape (α) of the requested-core distribution.  Smaller is
        heavier; α ≤ 1 has infinite mean, α ≤ 2 infinite variance.
    cores_min / cores_max:
        Scale (minimum) and truncation cap of the core distribution.
    integer_cores:
        Round requested cores to whole cores (the trace-like default).
        ``False`` keeps the raw continuous draw — useful for tail-index
        estimation, where rounding would bias the estimator.
    mem_dist:
        ``"pareto"`` or ``"lognormal"`` memory-fraction distribution.
    mem_tail_index / mem_scale:
        Pareto shape and scale of the memory fraction (``mem_dist ==
        "pareto"``).
    mem_log_mean / mem_log_sigma:
        Log-normal parameters (``mem_dist == "lognormal"``); the default
        sigma is heavier than the Google model's 0.6.
    mem_min / mem_max:
        Truncation bounds of the memory fraction.
    elementary_cpu_requirement:
        Shared reference elementary CPU requirement (§4).
    """

    cpu_tail_index: float = 1.5
    cores_min: float = 1.0
    cores_max: float = 64.0
    integer_cores: bool = True
    mem_dist: str = "pareto"
    mem_tail_index: float = 2.0
    mem_scale: float = 0.01
    mem_log_mean: float = -3.5
    mem_log_sigma: float = 1.2
    mem_min: float = 1e-4
    mem_max: float = 1.0
    elementary_cpu_requirement: float = 0.01

    def __post_init__(self) -> None:
        if self.cpu_tail_index <= 0 or self.mem_tail_index <= 0:
            raise ValueError("tail indices must be positive")
        if not 0 < self.cores_min <= self.cores_max:
            raise ValueError("need 0 < cores_min <= cores_max")
        if self.mem_dist not in ("pareto", "lognormal"):
            raise ValueError(f"unknown mem_dist: {self.mem_dist!r}")
        if not 0 < self.mem_min <= self.mem_max:
            raise ValueError("need 0 < mem_min <= mem_max")

    def sample_cores(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Pareto-distributed requested cores, truncated to ``cores_max``."""
        raw = self.cores_min * (1.0 + rng.pareto(self.cpu_tail_index, size=n))
        cores = np.minimum(raw, self.cores_max)
        if self.integer_cores:
            cores = np.maximum(np.rint(cores), 1.0)
        return cores

    def sample_memory(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.mem_dist == "pareto":
            mem = self.mem_scale * (1.0 + rng.pareto(self.mem_tail_index,
                                                     size=n))
        else:
            mem = rng.lognormal(self.mem_log_mean, self.mem_log_sigma, size=n)
        return np.clip(mem, self.mem_min, self.mem_max)

    def generate_services(self, n: int,
                          rng: np.random.Generator | int | None = None
                          ) -> ServiceArray:
        """Draw *n* raw (pre-scaling) service descriptors.

        Same unit conventions as the Google model: CPU needs in "core
        units" (aggregate = requested cores, elementary = 1), rescaled
        downstream by :func:`repro.workloads.scaling.normalize_cpu_needs`.
        """
        if n < 1:
            raise ValueError("need at least one service")
        rng = as_generator(rng)
        cores = self.sample_cores(rng, n).astype(np.float64)
        mem = self.sample_memory(rng, n)
        return services_from_marginals(cores, mem,
                                       self.elementary_cpu_requirement)
