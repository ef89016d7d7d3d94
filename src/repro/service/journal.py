"""Append-only event journal for the allocation daemon.

The daemon's cluster state is a fold over its admission events: admits,
departs, strategy switches, drains, node additions.  Journaling each
*acknowledged* event — durably, before the client hears back — makes the
state crash-recoverable: ``repro serve --journal FILE`` replays the log
on startup and resumes with a byte-identical :class:`ClusterState`
(verified by digest in the chaos tests).

The write discipline reuses :mod:`repro.experiments.persistence`: every
record is one JSON line, appended with write + flush + fsync
(:func:`~repro.experiments.persistence.durable_append`), and a
crash-damaged tail (partial final line, missing trailing newline) is
repaired in place on reopen
(:func:`~repro.experiments.persistence.recover_records`).

Record format (one per line)::

    {"v": 1, "kind": "service-event", "seq": N, "event": {...}}

``seq`` starts at 0 and must be contiguous — a gap means lost history
and replay refuses to guess.  Replay correctness hinges on two
controller invariants: events that never reach the journal also never
mutate state (any failure before the append ⇒ full rollback; a journal
failure answers 503), and each journal record names the outcome
actually taken (solve mode, ``resolved``), so replay forces it instead
of re-evaluating latency heuristics or solver failures.
"""

from __future__ import annotations

import json
import os
from typing import IO, Mapping

from ..experiments.persistence import (durable_append, open_append,
                                       recover_records)
from .faults import FaultInjector

__all__ = ["JOURNAL_VERSION", "JournalError", "EventJournal", "load_journal"]

JOURNAL_VERSION = 1

RECORD_KIND = "service-event"


class JournalError(ValueError):
    """A journal file that cannot be trusted (gap, bad version/kind)."""


def load_journal(path: str) -> list[dict]:
    """Load the event payloads from *path*, repairing the tail in place.

    Returns the events in append order.  A missing file is an empty
    history (fresh start).  Sequence numbers must be contiguous from 0;
    anything else raises :class:`JournalError` rather than replaying a
    log with holes.
    """
    if not os.path.exists(path):
        return []
    events: list[dict] = []
    for i, record in enumerate(recover_records(path)):
        if record.get("kind") != RECORD_KIND:
            raise JournalError(
                f"{path}: record {i} has kind {record.get('kind')!r}, "
                f"expected {RECORD_KIND!r}")
        if record.get("v") != JOURNAL_VERSION:
            raise JournalError(
                f"{path}: record {i} has version {record.get('v')!r}, "
                f"this build reads version {JOURNAL_VERSION}")
        if record.get("seq") != i:
            raise JournalError(
                f"{path}: record {i} carries seq {record.get('seq')!r} — "
                "journal has a gap or reordering; refusing to replay")
        event = record.get("event")
        if not isinstance(event, Mapping):
            raise JournalError(f"{path}: record {i} has no event payload")
        events.append(dict(event))
    return events


class EventJournal:
    """Durable append-only journal of acknowledged service events.

    Opens lazily on first append (so constructing one for a journal that
    is never written leaves no file behind) and appends with fsync —
    when :meth:`append` returns, the record survives a crash.  After
    :meth:`close` (clean shutdown), further appends raise, which the
    controller surfaces as a 503: a draining daemon acknowledges nothing
    it cannot journal.
    """

    def __init__(self, path: str, faults: FaultInjector | None = None,
                 start_seq: int = 0):
        self.path = path
        self._faults = faults
        self._next_seq = start_seq
        self._fh: IO[str] | None = None
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def append(self, event: Mapping) -> int:
        """Durably append one event; returns its sequence number.

        Raises on any failure (injected or real) *without* advancing the
        sequence — the caller must roll back the state mutation and
        refuse the event.
        """
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed (draining)")
        if self._faults is not None:
            self._faults.on_journal_write()
        if self._fh is None:
            self._fh = open_append(self.path)
        seq = self._next_seq
        record = {"v": JOURNAL_VERSION, "kind": RECORD_KIND,
                  "seq": seq, "event": dict(event)}
        durable_append(self._fh, json.dumps(record) + "\n")
        self._next_seq = seq + 1
        return seq

    def close(self) -> None:
        """Flush and close; the journal refuses appends afterwards."""
        self._closed = True
        if self._fh is not None:
            self._fh.close()
            self._fh = None
