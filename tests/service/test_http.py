"""HTTP endpoint round trips against an in-process server on port 0."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.obs.promcheck import check_prometheus_text
from repro.service import EventJournal, create_server, load_journal

from .conftest import make_controller


@contextmanager
def serving(controller):
    srv = create_server(controller, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture
def server():
    with serving(make_controller(hosts=8)) as srv:
        yield srv


@pytest.fixture
def journaled_server(tmp_path):
    """A served controller with a journal; yields (server, journal path)."""
    ctl = make_controller(hosts=4)
    path = tmp_path / "events.jsonl"
    ctl.attach_journal(EventJournal(path))
    with serving(ctl) as srv:
        yield srv, path


def call_full(srv, method: str, path: str, body: dict | None = None,
              raw: bytes | None = None):
    """One request; returns (status, headers, raw body bytes)."""
    host, port = srv.server_address[:2]
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None)
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def call(srv, method: str, path: str, body: dict | None = None,
         raw: bytes | None = None):
    """One request; returns (status, decoded JSON payload)."""
    status, _, payload = call_full(srv, method, path, body, raw)
    return status, json.loads(payload)


def call_with_length(srv, method: str, path: str, length: str):
    """One request with a hand-set Content-Length header and no body;
    returns (status, headers, decoded JSON payload)."""
    host, port = srv.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest(method, path)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), json.loads(resp.read())
    finally:
        conn.close()


class TestEndpoints:
    def test_port_zero_binds_an_ephemeral_port(self, server):
        assert server.server_address[1] > 0

    def test_healthz(self, server):
        status, body = call(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["active"] == 0

    def test_alloc_delete_round_trip(self, server):
        status, admitted = call(server, "POST", "/alloc", {"sample": True})
        assert status == 200
        assert admitted["active"] == 1
        assert admitted["node"] >= 0
        assert 0.0 < admitted["yield"] <= 1.0
        assert admitted["certified_yield"] is not None

        status, state = call(server, "GET", "/state")
        assert status == 200
        assert state["services"][admitted["id"]]["node"] == admitted["node"]

        status, gone = call(server, "DELETE", f"/alloc/{admitted['id']}")
        assert status == 200
        assert gone["active"] == 0

    def test_alloc_with_explicit_vectors_and_id(self, server):
        # req_elem must fit a node's *elementary* capacity (~0.06-0.2
        # CPU on the seed-7 platforms), not just the aggregate.
        spec = {"id": "web-1",
                "req_elem": [0.05, 0.1], "req_agg": [0.05, 0.1],
                "need_elem": [0.3, 0.0], "need_agg": [0.3, 0.0]}
        status, body = call(server, "POST", "/alloc", spec)
        assert status == 200
        assert body["id"] == "web-1"
        # Same id again → conflict, state unchanged.
        status, body = call(server, "POST", "/alloc", spec)
        assert status == 409
        _, state = call(server, "GET", "/state")
        assert state["active"] == 1

    def test_strategy_get_and_switch(self, server):
        status, body = call(server, "GET", "/strategy")
        assert status == 200
        assert body["strategy"] == "METAHVPLIGHT"
        assert "METAVP" in body["available"]

        status, body = call(server, "POST", "/strategy",
                            {"strategy": "METAVP"})
        assert status == 200
        assert body["strategy"] == "METAVP"

        status, body = call(server, "POST", "/strategy",
                            {"strategy": "NOPE"})
        assert status == 400
        _, body = call(server, "GET", "/strategy")
        assert body["strategy"] == "METAVP"

    def test_metrics_shape(self, server):
        call(server, "POST", "/alloc", {"sample": True})
        status, m = call(server, "GET", "/metrics?format=json")
        assert status == 200
        assert m["admission"]["admitted"] == 1
        assert m["solver"]["full_solves"] == 1
        assert m["solver"]["total_probes"] > 0
        assert m["solve_latency_ms"]["count"] == 1
        assert m["requests"]["alloc"] == 1

    def test_metrics_prometheus_default(self, server):
        call(server, "POST", "/alloc", {"sample": True})
        status, headers, body = call_full(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        errors = check_prometheus_text(text)
        assert errors == []
        assert "# TYPE repro_solves_total counter" in text
        assert 'repro_solves_total{mode="full"} 1' in text
        assert "repro_active_services 1" in text
        assert "# TYPE repro_solve_latency_seconds histogram" in text
        assert 'le="+Inf"' in text

    def test_trace_header_on_every_reply(self, server):
        traces = set()
        for method, path, body in (
                ("GET", "/healthz", None),
                ("POST", "/alloc", {"sample": True}),
                ("GET", "/nope", None)):
            _, headers, _ = call_full(server, method, path, body)
            trace = headers.get("X-Repro-Trace")
            assert trace and len(trace) == 16
            traces.add(trace)
        assert len(traces) == 3  # ids are per-request

    def test_trace_attached_to_stored_allocation(self, server):
        status, headers, body = call_full(server, "POST", "/alloc",
                                          {"sample": True})
        assert status == 200
        trace = headers["X-Repro-Trace"]
        admitted = json.loads(body)
        assert admitted["trace"] == trace
        _, state = call(server, "GET", "/state")
        assert state["services"][admitted["id"]]["trace"] == trace
        assert state["solve_trace"] == trace


class TestErrors:
    def test_unknown_route_404(self, server):
        status, body = call(server, "GET", "/nope")
        assert status == 404
        assert "error" in body

    def test_delete_unknown_service_404(self, server):
        status, body = call(server, "DELETE", "/alloc/ghost")
        assert status == 404
        assert body["id"] == "ghost"

    def test_malformed_json_400(self, server):
        status, body = call(server, "POST", "/alloc", raw=b"{not json")
        assert status == 400
        assert "invalid JSON" in body["error"]

    def test_missing_vectors_400(self, server):
        status, body = call(server, "POST", "/alloc", {"req_elem": [1, 1]})
        assert status == 400
        assert "req_agg" in body["error"]

    def test_non_object_body_400(self, server):
        status, body = call(server, "POST", "/alloc", raw=b"[1, 2]")
        assert status == 400

    def test_bad_vector_shape_400(self, server):
        status, body = call(server, "POST", "/alloc",
                            {"req_elem": [0.1], "req_agg": [0.1],
                             "need_elem": [0.1], "need_agg": [0.1]})
        assert status == 400

    def test_infeasible_service_409(self, server):
        status, body = call(server, "POST", "/alloc",
                            {"req_elem": [99, 99], "req_agg": [99, 99],
                             "need_elem": [0, 0], "need_agg": [0, 0]})
        assert status == 409
        assert "reason" in body
        _, state = call(server, "GET", "/state")
        assert state["active"] == 0


class TestMalformedInput:
    """Bad requests get a 4xx, change no state, and journal nothing."""

    @staticmethod
    def digest(srv) -> str:
        return call(srv, "GET", "/state")[1]["digest"]

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_bad_content_length_400(self, journaled_server, length):
        srv, path = journaled_server
        before = self.digest(srv)
        status, headers, body = call_with_length(srv, "POST", "/alloc",
                                                 length)
        assert status == 400
        assert "Content-Length" in body["error"]
        # The unread body leaves the stream unframed: the server closes.
        assert headers["Connection"] == "close"
        assert self.digest(srv) == before
        assert load_journal(path) == []

    @pytest.mark.parametrize("name", ["node-0", "1"])
    def test_ambiguous_node_name_400(self, journaled_server, name):
        """A taken name would drain the first node of that name, and an
        all-digit one would resolve as an index."""
        srv, path = journaled_server
        before = self.digest(srv)
        status, body = call(srv, "POST", "/nodes",
                            {"elementary": [0.1, 0.1],
                             "aggregate": [0.2, 0.2], "name": name})
        assert status == 400
        assert repr(name) in body["error"]
        assert self.digest(srv) == before
        assert load_journal(path) == []


class TestConcurrency:
    def test_concurrent_requests_are_serialized(self, server):
        """24 parallel sampled arrivals: every one lands, the solver
        lock keeps the solve loop strictly serial, and the final state
        is internally consistent."""
        def one(_):
            return call(server, "POST", "/alloc", {"sample": True})

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(one, range(24)))

        assert [status for status, _ in results] == [200] * 24
        ids = {body["id"] for _, body in results}
        assert len(ids) == 24  # no duplicate ids under contention

        _, m = call(server, "GET", "/metrics?format=json")
        assert m["solver"]["max_concurrent_solves"] == 1
        assert m["admission"]["admitted"] == 24
        _, state = call(server, "GET", "/state")
        assert state["active"] == 24
        assert set(state["services"]) == ids
