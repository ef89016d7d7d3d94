"""Shared metrics registry: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` holds *families* keyed by metric name; a
family with labels hands out per-label-set children via
``family.labels(endpoint="alloc")`` (children are cached, so hot paths
can look one up once and hold it).  All mutation is lock-protected —
``+=`` on a Python float is not atomic across the bytecode boundary, so
24 threads hammering one counter would otherwise drop increments.

:meth:`MetricsRegistry.render` produces Prometheus text exposition
format 0.0.4 (``# HELP`` / ``# TYPE`` lines, cumulative histogram
buckets with a ``+Inf`` bound, label-value escaping), which is what the
daemon serves at ``GET /metrics``.  The checker in
:mod:`repro.obs.promcheck` validates exactly this dialect in CI.

Everything here is stdlib-only and importable from any layer without
cycles (this module imports nothing from :mod:`repro`).
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import (Callable, Dict, Iterator, Optional, Sequence, Tuple,
                    Type, TypeVar)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_F = TypeVar("_F", bound="_Family")

#: Solve latencies at this scale run ~1 ms-1 s; log-ish spacing in
#: seconds, matching Prometheus convention for ``*_seconds`` metrics.
DEFAULT_LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                           0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_suffix(labels: Tuple[Tuple[str, str], ...],
                  extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"'
                    for k, v in pairs)
    return "{" + body + "}"


class _Family:
    """Common machinery: label validation and child caching."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], "_Family"] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: object) -> "_Family":
        """The child metric for this label set (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(labels)}")
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _make_child(self) -> "_Family":
        raise NotImplementedError

    def _render_series(self, name: str,
                       label_pairs: Tuple[Tuple[str, str], ...]
                       ) -> Iterator[str]:
        raise NotImplementedError

    def children(self) -> Dict[Tuple[str, ...], "_Family"]:
        """Snapshot of label-value tuple → child metric (labelled
        families only; unlabelled families have no children)."""
        with self._lock:
            return dict(self._children)

    def _samples(self) -> Iterator[
            Tuple[Tuple[Tuple[str, str], ...], "_Family"]]:
        """Yield ``(label_pairs, child)`` for every series."""
        if self.label_names:
            with self._lock:
                items = list(self._children.items())
            for key, child in items:
                yield tuple(zip(self.label_names, key)), child
        else:
            yield (), self

    def render(self) -> str:
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} {self.kind}"]
        for label_pairs, child in self._samples():
            lines.extend(child._render_series(self.name, label_pairs))
        return "\n".join(lines)


class Counter(_Family):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()):
        super().__init__(name, help_text, label_names)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help_text)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _render_series(self, name: str,
                       label_pairs: Tuple[Tuple[str, str], ...]
                       ) -> Iterator[str]:
        yield (f"{name}{_label_suffix(label_pairs)} "
               f"{_format_value(self.value)}")


class Gauge(_Family):
    """A value that goes up and down, or is computed at scrape time."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()):
        super().__init__(name, help_text, label_names)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help_text)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Compute the value lazily at read time (e.g. uptime)."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def _render_series(self, name: str,
                       label_pairs: Tuple[Tuple[str, str], ...]
                       ) -> Iterator[str]:
        yield (f"{name}{_label_suffix(label_pairs)} "
               f"{_format_value(self.value)}")


class Histogram(_Family):
    """Fixed-bucket histogram with cumulative Prometheus rendering.

    Buckets are upper bounds in ascending order; an implicit ``+Inf``
    bucket catches the tail.  Only aggregates (bucket counts, sum,
    count) are kept — callers that need exact percentiles (the JSON
    metrics view's p50/p90/p99) retain their own bounded sample window.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(name, help_text, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help_text, buckets=self.bounds)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    return
            self._bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _render_series(self, name: str,
                       label_pairs: Tuple[Tuple[str, str], ...]
                       ) -> Iterator[str]:
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
            acc_sum = self._sum
        cumulative = 0
        for bound, n in zip(self.bounds, counts):
            cumulative += n
            le = (("le", _format_value(bound)),)
            yield (f"{name}_bucket{_label_suffix(label_pairs, le)} "
                   f"{cumulative}")
        yield (f"{name}_bucket{_label_suffix(label_pairs, (('le', '+Inf'),))} "
               f"{total}")
        yield f"{name}_sum{_label_suffix(label_pairs)} {_format_value(acc_sum)}"
        yield f"{name}_count{_label_suffix(label_pairs)} {total}"


class MetricsRegistry:
    """Get-or-create home for metric families; renders them all.

    ``get_or_create`` is idempotent per name (with a kind check), so
    modules can declare their metrics at import/construction time
    without coordinating ownership.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()
        self.created_at = time.time()

    def _get_or_create(self, cls: Type[_F], name: str, help_text: str,
                       label_names: Sequence[str],
                       **kw: Sequence[float]) -> _F:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}, not {cls.kind}")
                return family
            family = cls(name, help_text, label_names, **kw)  # type: ignore[call-arg]
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, label_names)

    def gauge(self, name: str, help_text: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, label_names)

    def histogram(self, name: str, help_text: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text,
                                   label_names, buckets=buckets)

    def render(self) -> str:
        """Prometheus text exposition (format 0.0.4), one blob."""
        with self._lock:
            families = sorted(self._families.values(),
                              key=lambda f: f.name)
        blocks = [family.render() for family in families]
        return "\n".join(blocks) + "\n" if blocks else ""
