"""Instance scaling: memory slack and CPU-need normalization (§4).

Two rescalings turn raw (platform, services) draws into controlled
experiment instances:

* **memory slack** — memory requirements are scaled so that a successful
  allocation leaves ``slack`` of the total memory free:
  ``Σ mem_req = (1 − slack) · Σ mem_capacity``.  Low slack means a hard
  memory bin-packing problem; the paper sweeps 0.1-0.9.
* **CPU-need normalization** — aggregate CPU needs are scaled so their sum
  equals the platform's total CPU capacity (elementary needs keep their
  proportion).  This pins contention at "exactly enough CPU if everything
  could be split perfectly", making minimum-yield values comparable across
  instances.

A live platform has no fixed total to normalize against, so the dynamic
simulator and the allocation daemon scale CPU needs by a fixed
``cpu_need_scale`` instead; both go through :func:`scale_cpu_needs`, as
the normalization does.
"""

from __future__ import annotations


from ..core.instance import ProblemInstance
from ..core.service import ServiceArray
from .google_model import CPU, MEM

__all__ = ["scale_memory_to_slack", "scale_cpu_needs", "normalize_cpu_needs",
           "scale_instance"]


def scale_memory_to_slack(instance: ProblemInstance, slack: float
                          ) -> ProblemInstance:
    """Rescale memory requirements to hit the target *slack*.

    Raises ``ValueError`` for degenerate inputs (no memory demand at all);
    individual services may still exceed individual node capacities after
    scaling — those instances are simply *hard* (algorithms may fail on
    them), matching the paper's experimental design.
    """
    if not 0.0 <= slack < 1.0:
        raise ValueError(f"slack must lie in [0, 1), got {slack}")
    sv = instance.services
    total_req = sv.req_agg[:, MEM].sum()
    if total_req <= 0:
        raise ValueError("cannot scale: services have no memory requirement")
    target = (1.0 - slack) * instance.nodes.aggregate[:, MEM].sum()
    factor = target / total_req
    req_elem = sv.req_elem.copy()
    req_agg = sv.req_agg.copy()
    req_elem[:, MEM] *= factor
    req_agg[:, MEM] *= factor
    scaled = ServiceArray.from_arrays(req_elem, req_agg,
                                      sv.need_elem, sv.need_agg,
                                      names=sv.names)
    return instance.replace_services(scaled)


def scale_cpu_needs(services: ServiceArray, factor: float) -> ServiceArray:
    """*services* with their elementary and aggregate CPU needs multiplied
    by *factor* (each service keeps its elementary/aggregate proportion,
    its virtual parallelism); requirements, other needs and names stay."""
    need_elem = services.need_elem.copy()
    need_agg = services.need_agg.copy()
    need_elem[:, CPU] *= factor
    need_agg[:, CPU] *= factor
    return ServiceArray.from_arrays(services.req_elem, services.req_agg,
                                    need_elem, need_agg, names=services.names)


def normalize_cpu_needs(instance: ProblemInstance) -> ProblemInstance:
    """Rescale CPU needs (:func:`scale_cpu_needs`) so Σ aggregate needs =
    Σ CPU capacity."""
    sv = instance.services
    total_need = sv.need_agg[:, CPU].sum()
    if total_need <= 0:
        raise ValueError("cannot normalize: services have no CPU need")
    factor = instance.nodes.aggregate[:, CPU].sum() / total_need
    return instance.replace_services(scale_cpu_needs(sv, factor))


def scale_instance(instance: ProblemInstance, slack: float) -> ProblemInstance:
    """Apply both §4 rescalings (memory slack, then CPU normalization)."""
    return normalize_cpu_needs(scale_memory_to_slack(instance, slack))
