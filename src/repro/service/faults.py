"""Fault injection hooks for the allocation daemon.

Chaos testing needs *controllable* failure: a solver that hangs or
throws, a journal write that hits a full disk, a process that dies
between an fsync and its HTTP reply.  This module is that control
surface — a :class:`FaultPlan` parsed from ``repro serve --faults``,
and a :class:`FaultInjector` the controller and journal consult at their
fault points:

* ``solver_delay_ms=X``  — every solver call sleeps X ms first.
* ``solver_fail=N``      — the first N solver calls raise
  :class:`InjectedFault` (exercising the bounded retry-with-backoff and
  the greedy/retained fallbacks).
* ``journal_fail=N``     — the first N journal appends raise
  :class:`InjectedJournalError` (the event must be refused with a 503
  and the state rolled back).
* ``crash_at_event=N``   — the process dies with :data:`CRASH_EXIT_CODE`
  via ``os._exit`` immediately after journal record N commits, *before*
  the client is answered — the crash-recovery scenario: the journal
  holds the event, the reply never went out.

With no plan configured every hook is a no-op; the daemon pays one
``None`` check per fault point.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedJournalError",
]

#: Exit status of an injected crash — distinguishable from a clean stop
#: (0) and from Python tracebacks (1) in the chaos driver and CI logs.
CRASH_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """A solver failure injected by the fault plan."""


class InjectedJournalError(OSError):
    """A journal-write failure injected by the fault plan."""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault configuration (all fields default to 'off')."""

    solver_delay_ms: float = 0.0
    solver_fail: int = 0
    journal_fail: int = 0
    crash_at_event: int | None = None

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``"key=value,key=value"`` (e.g. from ``--faults``)."""
        fields: dict[str, float | int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"fault spec needs key=value, got {part!r}")
            if key == "solver_delay_ms":
                fields[key] = float(value)
            elif key in ("solver_fail", "journal_fail", "crash_at_event"):
                fields[key] = int(value)
            else:
                raise ValueError(
                    f"unknown fault knob {key!r}; expected solver_delay_ms, "
                    "solver_fail, journal_fail, crash_at_event")
        return cls(**fields)  # type: ignore[arg-type]

    def active(self) -> bool:
        return (self.solver_delay_ms > 0 or self.solver_fail > 0
                or self.journal_fail > 0 or self.crash_at_event is not None)


class FaultInjector:
    """Counts fault points hit and fires the plan's injections.

    The counters are mutated under the controller lock (the solver and
    journal fault points live inside the controller's transaction path
    and its strategy switch), so no extra synchronization is needed.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.solver_calls = 0
        self.journal_writes = 0

    def on_solve(self) -> None:
        """Fault point: right before a full solver invocation."""
        self.solver_calls += 1
        if self.plan.solver_delay_ms > 0:
            time.sleep(self.plan.solver_delay_ms / 1e3)
        if self.solver_calls <= self.plan.solver_fail:
            raise InjectedFault(
                f"injected solver failure {self.solver_calls} of "
                f"{self.plan.solver_fail}")

    def on_journal_write(self) -> None:
        """Fault point: right before a journal append's durable write."""
        self.journal_writes += 1
        if self.journal_writes <= self.plan.journal_fail:
            raise InjectedJournalError(
                f"injected journal-write failure {self.journal_writes} of "
                f"{self.plan.journal_fail}")

    def on_event_committed(self, seq: int) -> None:
        """Fault point: after journal record *seq* is durable and the
        state mutation committed, before the reply.  ``os._exit`` skips
        every finally/atexit — as close to ``kill -9`` as Python gets."""
        if self.plan.crash_at_event is not None \
                and seq >= self.plan.crash_at_event:
            os._exit(CRASH_EXIT_CODE)
