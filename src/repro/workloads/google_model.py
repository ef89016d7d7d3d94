"""Synthetic Google-trace-like service generator (§4).

The paper instantiates service resource descriptors from the 2010 Google
cluster dataset [19], which exposes two marginals per task: the **number of
requested cores** and the **fraction of system memory used**.  The dataset
itself is not redistributable here, so we model the two marginals directly
(see DESIGN.md §3 for the substitution argument — both marginals are
rescaled downstream, so only their *shapes* influence the experiments):

* requested cores concentrate on small powers of two, dominated by
  single-core tasks (the published trace analyses report a heavily skewed
  discrete distribution);
* memory fractions are small and right-skewed; we use a truncated
  log-normal.

Per the paper's construction, a service's **aggregate CPU need** is
proportional to its requested cores (one "core-unit" each before the
normalization of §4 rescales the total), its **elementary CPU need** is
the per-core share, and its **elementary CPU requirement** is one common
reference value for all services.  Memory is a rigid requirement with no
fluid need.  :func:`services_from_marginals` is that construction, and
every workload model in this package builds its descriptors with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.resources import FEASIBILITY_RTOL
from ..core.service import ServiceArray
from ..util.rng import as_generator

__all__ = ["CPU", "MEM", "GoogleWorkloadModel", "DEFAULT_MODEL",
           "services_from_marginals"]

#: Dimension indices of the 2-D evaluation setup, for every workload
#: model and the §4 rescalings.
CPU, MEM = 0, 1


def services_from_marginals(cores: np.ndarray, mem: np.ndarray,
                            elementary_cpu_requirement: float
                            ) -> ServiceArray:
    """Raw (pre-scaling) descriptors of services with *cores* requested
    cores and memory fractions *mem*, by the paper's construction (see
    the module docstring).

    CPU needs are in "core units" (aggregate = requested cores,
    elementary = 1), which :func:`repro.workloads.scaling.
    normalize_cpu_needs` rescales against the platform; memory is a
    rigid requirement whose aggregate equals its elementary value.
    """
    n = len(cores)
    req_elem = np.zeros((n, 2))
    req_agg = np.zeros((n, 2))
    need_elem = np.zeros((n, 2))
    need_agg = np.zeros((n, 2))

    req_elem[:, CPU] = elementary_cpu_requirement
    req_elem[:, MEM] = mem
    req_agg[:, MEM] = mem              # memory pools: agg == elem
    need_agg[:, CPU] = cores           # ∝ requested cores
    need_elem[:, CPU] = 1.0            # per-core share of the need

    return ServiceArray.from_arrays(req_elem, req_agg, need_elem, need_agg)


@dataclass(frozen=True)
class GoogleWorkloadModel:
    """Statistical model of the Google-trace marginals.

    Attributes
    ----------
    core_choices / core_weights:
        Discrete distribution of requested core counts.
    mem_log_mean / mem_log_sigma:
        Parameters of the log-normal memory-fraction distribution (of the
        underlying normal), truncated to ``[mem_min, mem_max]``.
    elementary_cpu_requirement:
        The common reference elementary CPU requirement (§4: "elementary
        CPU requirements are equal to the same reference value for all
        services").
    """

    core_choices: tuple[int, ...] = (1, 2, 4, 8)
    core_weights: tuple[float, ...] = (0.60, 0.25, 0.12, 0.03)
    mem_log_mean: float = -3.5
    # Calibrated so that the §4 slack rescaling produces the paper's
    # difficulty gradient: 100-service instances frequently infeasible at
    # low slack, 250+-service instances almost always feasible.  Heavier
    # tails (sigma ≳ 0.75) make nearly every 100-service instance
    # unsolvable, lighter ones make low-slack instances trivial.
    mem_log_sigma: float = 0.6
    mem_min: float = 1e-4
    mem_max: float = 1.0
    elementary_cpu_requirement: float = 0.01

    def __post_init__(self) -> None:
        if len(self.core_choices) != len(self.core_weights):
            raise ValueError("core_choices and core_weights length mismatch")
        if abs(sum(self.core_weights) - 1.0) > FEASIBILITY_RTOL:
            raise ValueError("core_weights must sum to 1")
        if min(self.core_choices) < 1:
            raise ValueError("core counts must be positive")

    def sample_cores(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(np.array(self.core_choices), size=n,
                          p=np.array(self.core_weights))

    def sample_memory(self, rng: np.random.Generator, n: int) -> np.ndarray:
        mem = rng.lognormal(self.mem_log_mean, self.mem_log_sigma, size=n)
        return np.clip(mem, self.mem_min, self.mem_max)

    def generate_services(self, n: int,
                          rng: np.random.Generator | int | None = None
                          ) -> ServiceArray:
        """Draw *n* raw (pre-scaling) service descriptors
        (:func:`services_from_marginals`)."""
        if n < 1:
            raise ValueError("need at least one service")
        rng = as_generator(rng)
        cores = self.sample_cores(rng, n).astype(np.float64)
        mem = self.sample_memory(rng, n)
        return services_from_marginals(cores, mem,
                                       self.elementary_cpu_requirement)


#: Default model used by the experiment drivers.
DEFAULT_MODEL = GoogleWorkloadModel()
