"""``timed_call`` is folded onto obs spans: its API and semantics are
unchanged with tracing disabled, and each call additionally lands in the
trace when enabled.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.util.timing import timed_call


@pytest.fixture
def sink(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.configure(str(path))
    yield path
    obs.disable()


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _fail(message):
    raise RuntimeError(message)


class TestDisabledEquivalence:
    """With tracing off, behaviour matches the pre-obs implementation."""

    def test_timed_call_returns_result_and_seconds(self):
        result, seconds = timed_call(lambda x: x * 2, 21)
        assert result == 42
        assert seconds >= 0.0

    def test_raising_call_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            timed_call(_fail, "boom")


class TestEnabledEmission:
    def test_timed_call_emits_its_span(self, sink):
        timed_call(lambda: None)
        names = [r["name"] for r in read_records(sink)]
        assert names == ["timed.call"]

    def test_reported_duration_matches_trace_record(self, sink):
        _, seconds = timed_call(time.sleep, 0.002)
        (record,) = read_records(sink)
        assert record["dur_ms"] == pytest.approx(seconds * 1e3, rel=1e-6)

    def test_raising_call_still_emits_its_span(self, sink):
        with pytest.raises(RuntimeError):
            timed_call(_fail, "boom")
        (record,) = read_records(sink)
        assert record["name"] == "timed.call"
        assert record["error"] == "RuntimeError"
