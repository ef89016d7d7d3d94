"""Allocation-as-a-service: the online placement daemon.

``repro serve`` wraps the META* solvers and the incremental placement
machinery in a long-running, stdlib-only HTTP daemon: services arrive
(``POST /alloc``) and depart (``DELETE /alloc/{id}``), each mutation
triggers a warm-started incremental re-solve of the live set, and an
admission-control path degrades to a bounded-time greedy probe when the
solve-latency budget is exceeded.  With ``--journal FILE`` every
acknowledged event is fsynced to an append-only log before the reply,
and a restart replays the log back to a digest-identical cluster state;
``--faults`` injects solver and journal failures for chaos testing.
See :mod:`.controller` for the solving semantics, :mod:`.http` for the
endpoint surface, :mod:`.journal` for the durability discipline and
:mod:`.faults` for the injection knobs.
"""

from .controller import PROBATION_PERIOD, AllocationController, ServiceError
from .faults import (
    CRASH_EXIT_CODE,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    InjectedJournalError,
)
from .http import AllocationHTTPServer, create_server, run_server
from .journal import EventJournal, JournalError, load_journal
from .state import ClusterState, ServiceSpec, StateSnapshot

__all__ = [
    "AllocationController",
    "AllocationHTTPServer",
    "CRASH_EXIT_CODE",
    "ClusterState",
    "EventJournal",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "InjectedJournalError",
    "JournalError",
    "PROBATION_PERIOD",
    "ServiceError",
    "ServiceSpec",
    "StateSnapshot",
    "create_server",
    "load_journal",
    "run_server",
]
