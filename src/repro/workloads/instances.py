"""Scenario configuration and end-to-end instance generation (§4).

A :class:`ScenarioConfig` names one cell of the paper's experimental grid:
platform size and heterogeneity, workload size, memory slack, and the
homogeneity pins used by Figures 3-4.  :func:`generate_instance` is the
single entry point used by tests, examples, benchmarks and the experiment
workers; it derives all randomness from the config's seed so any instance
can be regenerated in any process without shipping arrays around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.instance import ProblemInstance
from ..util.rng import derive_seed
from .google_model import DEFAULT_MODEL
from .platforms import generate_platform
from .scaling import scale_instance

__all__ = ["ScenarioConfig", "generate_base_instance", "generate_instance"]


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment cell.

    The paper's defaults: 64 hosts; 100/250/500 services; CoV 0-1 in 0.025
    steps; slack 0.1-0.9 in 0.1 steps; 100 instances per scenario.
    """

    hosts: int = 64
    services: int = 100
    cov: float = 0.5
    slack: float = 0.5
    cpu_homogeneous: bool = False
    mem_homogeneous: bool = False
    seed: int = 0
    instance_index: int = 0
    #: Workload model (any registered family — see ``workloads.registry``);
    #: must be a frozen dataclass exposing ``generate_services(n, rng)``.
    model: object = field(default=DEFAULT_MODEL)

    def label(self) -> str:
        parts = [f"H{self.hosts}", f"J{self.services}",
                 f"cov{self.cov:g}", f"slack{self.slack:g}"]
        if self.cpu_homogeneous:
            parts.append("cpu-hom")
        if self.mem_homogeneous:
            parts.append("mem-hom")
        return "-".join(parts)


def generate_base_instance(config: ScenarioConfig) -> ProblemInstance:
    """Raw platform + services, before the §4 rescalings.

    Platform and workload use independent child streams of the config
    seed, so e.g. changing the service count leaves the platform of a
    given ``(seed, instance_index)`` untouched.
    """
    root = derive_seed(config.seed, config.instance_index)
    platform_ss, services_ss = root.spawn(2)
    nodes = generate_platform(
        config.hosts, config.cov,
        rng=np.random.default_rng(platform_ss),
        cpu_homogeneous=config.cpu_homogeneous,
        mem_homogeneous=config.mem_homogeneous)
    services = config.model.generate_services(
        config.services, rng=np.random.default_rng(services_ss))
    return ProblemInstance(nodes, services)


def generate_instance(config: ScenarioConfig) -> ProblemInstance:
    """Fully scaled experiment instance (memory slack + CPU normalization)."""
    return scale_instance(generate_base_instance(config), config.slack)
