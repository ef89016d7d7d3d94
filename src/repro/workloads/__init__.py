"""Workload and platform generation with the paper's scaling pipeline (§4)."""

from .google_model import DEFAULT_MODEL, GoogleWorkloadModel
from .heavy_tailed import HeavyTailedWorkloadModel
from .instances import ScenarioConfig, generate_base_instance, generate_instance
from .platforms import generate_platform
from .registry import (
    DEFAULT_WORKLOAD,
    make_workload,
    parse_workload,
    register_workload,
    workload_from_json,
    workload_id,
    workload_names,
    workload_to_json,
)
from .scaling import (
    normalize_cpu_needs,
    scale_cpu_needs,
    scale_instance,
    scale_memory_to_slack,
)
from .trace import TraceWorkloadModel, dump_trace, load_trace

__all__ = [
    "DEFAULT_MODEL",
    "DEFAULT_WORKLOAD",
    "GoogleWorkloadModel",
    "HeavyTailedWorkloadModel",
    "ScenarioConfig",
    "TraceWorkloadModel",
    "dump_trace",
    "generate_base_instance",
    "generate_instance",
    "generate_platform",
    "load_trace",
    "make_workload",
    "normalize_cpu_needs",
    "parse_workload",
    "register_workload",
    "scale_cpu_needs",
    "scale_instance",
    "scale_memory_to_slack",
    "workload_from_json",
    "workload_id",
    "workload_names",
    "workload_to_json",
]
