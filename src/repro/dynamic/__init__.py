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
    best_fit_newcomers,
    masked_fit_tables,
    rebuild_loads,
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
    "best_fit_newcomers",
    "generate_platform_events",
    "generate_trace",
    "masked_fit_tables",
    "rebuild_loads",
]
