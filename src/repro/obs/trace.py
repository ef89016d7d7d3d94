"""Structured tracing: lightweight spans emitted as JSONL.

One process-wide *sink* (a JSONL file, configured via the ``--obs-log``
CLI flag or the ``REPRO_OBS`` environment variable) receives one record
per finished span::

    {"kind": "span", "name": "yield.search", "trace": "6f…", "span":
     "ab12cd34", "parent": "9e…", "ts": 1754550000.123456,
     "dur_ms": 4.211, "pid": 4242, "tags": {"probes": 5, …}}

Design constraints, in order:

* **Disabled is free.**  When no sink is configured, :func:`span`
  returns a shared no-op singleton — no object allocation, no clock
  read, no context-variable traffic.  The instrumented hot paths
  (probe loops, checkpoint appends) additionally guard their tag
  construction behind :func:`enabled`, so a disabled run does only a
  global-bool check per instrumentation site (< 2% of the META sweep
  benchmark; gated in ``benchmarks/test_bench_meta_speed.py``).

* **Correct nesting and propagation.**  Span parentage rides a
  :mod:`contextvars` variable, so spans nest across function calls and
  threads started with a copied context; :class:`trace_context`
  pins an explicit trace id for a region (the daemon uses one per HTTP
  request) whether or not a sink is configured, so trace ids can be
  returned to clients even when tracing is off.

* **Multi-process safe enough.**  Records are single ``write()`` calls
  of one ``\\n``-terminated line to an append-mode file; worker
  processes (which inherit ``REPRO_OBS`` or the forked sink) interleave
  whole lines.  Every record carries ``pid``.

:func:`timed_span` is the bridge for the pre-existing timing helpers
(:mod:`repro.util.timing`): it always *measures* — the caller reads
``.duration`` — but only *emits* when tracing is enabled, so Table 2
timings and trace records share one clock path (``time.perf_counter``).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextvars import ContextVar
from typing import Optional

__all__ = [
    "ENV_VAR",
    "Span",
    "configure",
    "current_trace_id",
    "disable",
    "enabled",
    "event",
    "new_trace_id",
    "span",
    "timed_span",
    "trace_context",
]

#: Environment variable naming the JSONL sink (read once at import, and
#: again by worker processes importing this module fresh).
ENV_VAR = "REPRO_OBS"

#: ``(trace_id, innermost span_id | None)`` for the current context.
_current: ContextVar[Optional[tuple]] = ContextVar("repro_obs_current",
                                                   default=None)

_enabled = False
_sink: Optional["_Sink"] = None
_state_lock = threading.Lock()


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (also usable as a request id)."""
    return os.urandom(8).hex()


def _new_span_id() -> str:
    return os.urandom(4).hex()


class _Sink:
    """Thread-safe append-only JSONL writer."""

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "a")
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._fh is None:  # closed concurrently: drop silently
                return
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def configure(path: str, persist_env: bool = False) -> None:
    """Enable tracing to JSONL file *path* (appending).

    With ``persist_env`` the path is also exported as ``REPRO_OBS`` so
    spawned worker processes (experiment pools, the daemon under the
    soak driver) trace into the same file.
    """
    global _sink, _enabled
    with _state_lock:
        old = _sink
        _sink = _Sink(path)
        _enabled = True
    if old is not None:
        old.close()
    if persist_env:
        os.environ[ENV_VAR] = path


def disable() -> None:
    """Stop tracing, close the sink, and clear ``REPRO_OBS``."""
    global _sink, _enabled
    with _state_lock:
        old = _sink
        _sink = None
        _enabled = False
    if old is not None:
        old.close()
    os.environ.pop(ENV_VAR, None)


def enabled() -> bool:
    """True when a sink is configured.  The fast-path guard: hot code
    builds tags only behind this check."""
    return _enabled


def current_trace_id() -> Optional[str]:
    """Trace id of the enclosing span/:class:`trace_context`, if any."""
    cur = _current.get()
    return None if cur is None else cur[0]


class Span:
    """One timed region.  Use via :func:`span` / :func:`timed_span`.

    Context-manager protocol; :meth:`annotate` attaches tags that are
    written with the record at exit.  ``duration`` reads the running
    elapsed seconds while open and freezes at exit.
    """

    __slots__ = ("name", "tags", "trace_id", "span_id", "parent_id",
                 "_emit", "_token", "_t0", "_t1", "_wall")

    def __init__(self, name: str, tags: Optional[dict] = None,
                 emit: bool = True):
        self.name = name
        self.tags = dict(tags) if tags else None
        self.trace_id = self.span_id = self.parent_id = None
        self._emit = emit
        self._token = None
        self._t0 = 0.0
        self._t1 = 0.0

    def annotate(self, **tags: object) -> "Span":
        """Merge *tags* into the record written at exit."""
        if self.tags is None:
            self.tags = tags
        else:
            self.tags.update(tags)
        return self

    @property
    def duration(self) -> float:
        """Elapsed seconds: running while open, frozen after exit."""
        return (self._t1 or time.perf_counter()) - self._t0

    def __enter__(self) -> "Span":
        if self._emit:
            cur = _current.get()
            if cur is None:
                self.trace_id = new_trace_id()
            else:
                self.trace_id, self.parent_id = cur
            self.span_id = _new_span_id()
            self._token = _current.set((self.trace_id, self.span_id))
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._t1 = time.perf_counter()
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        sink = _sink
        if self._emit and sink is not None:
            record = {
                "kind": "span",
                "name": self.name,
                "trace": self.trace_id,
                "span": self.span_id,
                "ts": round(self._wall, 6),
                "dur_ms": round((self._t1 - self._t0) * 1e3, 6),
                "pid": os.getpid(),
            }
            if self.parent_id is not None:
                record["parent"] = self.parent_id
            if exc_type is not None:
                record["error"] = exc_type.__name__
            if self.tags:
                record["tags"] = self.tags
            sink.write(record)
        return False


class _NoopSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    duration = 0.0
    name = trace_id = span_id = parent_id = tags = None

    def annotate(self, **tags: object) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def span(name: str, tags: Optional[dict] = None) -> "Span | _NoopSpan":
    """A traced region: ``with obs.span("meta.solve", tags={...}) as sp``.

    When tracing is disabled this returns a shared no-op singleton —
    the zero-allocation fast path.
    """
    if not _enabled:
        return _NOOP_SPAN
    return Span(name, tags)


def timed_span(name: str, tags: Optional[dict] = None) -> Span:
    """A span that always *measures* but only *emits* when enabled.

    The timing helpers (:mod:`repro.util.timing`) are built on this, so
    wall-clock numbers and trace records come from the same clock reads.
    """
    return Span(name, tags, emit=_enabled)


def event(name: str, tags: Optional[dict] = None) -> None:
    """A zero-duration record (configuration facts, sweep summaries)."""
    sink = _sink
    if sink is None:
        return
    cur = _current.get()
    record = {
        "kind": "event",
        "name": name,
        "ts": round(time.time(), 6),
        "pid": os.getpid(),
    }
    if cur is not None:
        record["trace"] = cur[0]
        if cur[1] is not None:
            record["parent"] = cur[1]
    if tags:
        record["tags"] = tags
    sink.write(record)


class trace_context:
    """Pin the current trace id for a region, sink or no sink.

    The daemon wraps every HTTP request in one of these so the id it
    returns in ``X-Repro-Trace`` is the id all spans of that request
    carry — and so :func:`current_trace_id` works (e.g. to attach the
    id to a stored allocation) even when tracing is disabled.
    """

    __slots__ = ("trace_id", "_token")

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or new_trace_id()
        self._token = None

    def __enter__(self) -> "trace_context":
        self._token = _current.set((self.trace_id, None))
        return self

    def __exit__(self, *exc: object) -> bool:
        _current.reset(self._token)
        self._token = None
        return False


def _init_from_env() -> None:
    path = os.environ.get(ENV_VAR)
    if path:
        configure(path)


_init_from_env()
atexit.register(lambda: _sink is not None and _sink.close())
