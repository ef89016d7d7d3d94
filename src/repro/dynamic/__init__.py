"""Dynamic hosting-platform simulation (the paper's future-work scenario):
arrivals/departures, node churn, SLA floors, periodic re-allocation,
migrations, runtime sharing."""

from .events import ServiceEvent, WorkloadTrace, generate_trace
from .failures import (
    CapacityChange,
    NodeFailure,
    NodeRecovery,
    PlatformEvent,
    PlatformSchedule,
    generate_platform_events,
)
from .incremental import (
    INCREMENTAL_TOL,
    load_caps,
    masked_fit_tables,
    place_newcomers,
    rebuild_loads,
    up_platform,
)
from .simulator import DynamicSimulator, SimulationResult, StepRecord

__all__ = [
    "CapacityChange",
    "DynamicSimulator",
    "INCREMENTAL_TOL",
    "NodeFailure",
    "NodeRecovery",
    "PlatformEvent",
    "PlatformSchedule",
    "ServiceEvent",
    "SimulationResult",
    "StepRecord",
    "WorkloadTrace",
    "generate_platform_events",
    "generate_trace",
    "load_caps",
    "masked_fit_tables",
    "place_newcomers",
    "rebuild_loads",
    "up_platform",
]
