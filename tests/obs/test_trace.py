"""Tracing core: spans, nesting, propagation, sinks, disabled no-op."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro import obs
from repro.obs import trace as trace_mod


@pytest.fixture
def sink(tmp_path):
    """Enable tracing into a temp file; always disable afterwards."""
    path = tmp_path / "trace.jsonl"
    obs.configure(str(path))
    yield path
    obs.disable()


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestDisabled:
    def test_disabled_span_is_shared_noop_singleton(self):
        assert not obs.enabled()
        first = obs.span("a")
        second = obs.span("b", tags={"k": 1})
        # Zero allocation on the fast path: same object every call.
        assert first is second
        assert first is trace_mod._NOOP_SPAN

    def test_disabled_span_context_protocol_is_inert(self):
        with obs.span("outer") as sp:
            assert sp.annotate(x=1) is sp
            assert sp.duration == 0.0
            assert obs.current_trace_id() is None

    def test_disabled_event_is_a_noop(self, tmp_path):
        obs.event("nothing", {"tags": True})  # must not raise

    def test_timed_span_measures_without_emitting(self):
        span = obs.timed_span("t")
        with span:
            pass
        assert span.duration >= 0.0
        assert span.trace_id is None  # never entered the context chain

    def test_trace_context_pins_an_id_even_when_disabled(self):
        assert obs.current_trace_id() is None
        with obs.trace_context() as tc:
            assert obs.current_trace_id() == tc.trace_id
            assert len(tc.trace_id) == 16
        assert obs.current_trace_id() is None


class TestEnabled:
    def test_span_record_shape(self, sink):
        with obs.span("unit.work", tags={"a": 1}) as sp:
            sp.annotate(b=2)
        (record,) = read_records(sink)
        assert record["kind"] == "span"
        assert record["name"] == "unit.work"
        assert record["tags"] == {"a": 1, "b": 2}
        assert record["dur_ms"] >= 0.0
        assert len(record["trace"]) == 16
        assert len(record["span"]) == 8
        assert "parent" not in record

    def test_nesting_links_parent_and_shares_trace(self, sink):
        with obs.span("outer"):
            outer_trace = obs.current_trace_id()
            with obs.span("inner"):
                assert obs.current_trace_id() == outer_trace
        inner, outer = read_records(sink)  # inner exits first
        assert inner["name"] == "inner"
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]

    def test_exception_recorded_and_propagated(self, sink):
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("nope")
        (record,) = read_records(sink)
        assert record["error"] == "ValueError"

    def test_event_inherits_enclosing_span(self, sink):
        with obs.span("outer"):
            obs.event("note", {"x": 1})
        event, span = read_records(sink)
        assert event["kind"] == "event"
        assert event["trace"] == span["trace"]
        assert event["parent"] == span["span"]
        assert event["tags"] == {"x": 1}

    def test_trace_context_pins_explicit_id(self, sink):
        with obs.trace_context("f" * 16):
            with obs.span("work"):
                pass
        (record,) = read_records(sink)
        assert record["trace"] == "f" * 16

    def test_sibling_spans_get_distinct_ids(self, sink):
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        a, b = read_records(sink)
        assert a["span"] != b["span"]
        assert a["trace"] != b["trace"]  # separate top-level traces

    def test_threads_do_not_share_span_context(self, sink):
        seen = {}

        def worker():
            # A fresh thread starts with no inherited span context.
            seen["trace"] = obs.current_trace_id()
            with obs.span("thread.child"):
                pass

        with obs.span("main.parent"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["trace"] is None
        child = next(r for r in read_records(sink)
                     if r["name"] == "thread.child")
        assert "parent" not in child

    def test_configure_persist_env_and_disable_clears(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "env_trace.jsonl"
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        obs.configure(str(path), persist_env=True)
        try:
            assert os.environ[obs.ENV_VAR] == str(path)
        finally:
            obs.disable()
        assert obs.ENV_VAR not in os.environ
        assert not obs.enabled()

    def test_concurrent_writes_interleave_whole_lines(self, sink):
        def hammer(n):
            for i in range(50):
                with obs.span("hammer", tags={"t": n, "i": i}):
                    pass

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = read_records(sink)  # json.loads raises on torn lines
        assert len(records) == 400
