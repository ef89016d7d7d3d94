"""HTTP endpoint round trips against an in-process server on port 0."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.algorithms.vector_packing import meta
from repro.obs.promcheck import check_prometheus_text
from repro.service import (
    EventJournal,
    FaultInjector,
    FaultPlan,
    create_server,
    load_journal,
)
from repro.service.http import _Handler

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
def faulty_server(tmp_path):
    """A served controller with a journal and a fault injector the test
    may arm; yields (server, injector, journal path)."""
    faults = FaultInjector(FaultPlan())
    ctl = make_controller(hosts=4, faults=faults)
    path = tmp_path / "events.jsonl"
    ctl.attach_journal(EventJournal(path, faults=faults))
    with serving(ctl) as srv:
        yield srv, faults, path
    ctl.quiesce()


@pytest.fixture
def journaled_server(faulty_server):
    """A served controller with a journal; yields (server, journal path)."""
    srv, _, path = faulty_server
    return srv, path


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


def raw_exchange(srv, request: bytes) -> str:
    """Send raw *request* bytes on a fresh socket; return everything the
    server sends back until it closes the connection."""
    host, port = srv.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(4096):
            chunks.append(chunk)
    return b"".join(chunks).decode("iso-8859-1")


def scrape(text: str) -> dict[str, float]:
    """Prometheus exposition text -> {series: value}."""
    return {series: float(value) for series, value in
            (line.rsplit(" ", 1) for line in text.splitlines()
             if line and not line.startswith("#"))}


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

    def test_accepted_sockets_set_tcp_nodelay(self, server, monkeypatch):
        """A reply is two writes (headers, body); with Nagle on, a
        keep-alive reply's body waits for the client's delayed ACK."""
        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(2):  # back to back on one keep-alive socket
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
        finally:
            conn.close()
        assert nodelay and all(nodelay), nodelay

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

    @pytest.mark.parametrize("line, status", [
        (b"GARBAGE", 400),
        (b"GET", 400),
        (b"GET /healthz HTTP/9.9", 505),
    ], ids=["garbage", "no-path", "http-9.9"])
    def test_malformed_request_line(self, journaled_server, capsys,
                                    line, status):
        """A request line the stdlib rejects gets an HTTP/1.1 status
        line and a close, not a dropped connection."""
        srv, path = journaled_server
        before = self.digest(srv)
        reply = raw_exchange(srv, line + b"\r\n\r\n")
        status_line, _, rest = reply.partition("\r\n")
        headers = rest.partition("\r\n\r\n")[0].lower().splitlines()
        assert status_line.startswith(f"HTTP/1.1 {status} "), reply
        assert "connection: close" in headers
        assert self.digest(srv) == before
        assert load_journal(path) == []
        assert call(srv, "GET", "/healthz")[0] == 200
        assert "Traceback" not in capsys.readouterr().err

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


class TestReadsOffTheLock:
    """``GET /state`` never waits for a solve in flight: it serves the
    last committed state, which holds every acknowledged write and no
    refused one."""

    @staticmethod
    def read_state(srv) -> dict:
        """``GET /state`` with a 5 s client timeout (a read queued
        behind the blocked solve times out instead of hanging)."""
        host, port = srv.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request("GET", "/state")
            resp = conn.getresponse()
            assert resp.status == 200
            return json.loads(resp.read())
        finally:
            conn.close()

    @pytest.mark.parametrize("outcome", [200, 409, 503],
                             ids=["admitted", "rejected", "journal-failure"])
    def test_read_while_an_admit_solves(self, faulty_server, monkeypatch,
                                        outcome):
        srv, faults, path = faulty_server
        solving, release = threading.Event(), threading.Event()
        make_engine = meta.make_engine

        def blocking_engine(instance, strategies, *args):
            """The real oracle (or, for the rejection, one that never
            packs) behind a gate the test opens."""
            oracle = make_engine(instance, strategies, *args)

            def probe(instance, y):
                solving.set()
                release.wait(60)
                return None if outcome == 409 else oracle(instance, y)
            return probe

        replies: list = []
        assert call(srv, "POST", "/alloc", {"sample": True})[0] == 200
        before = self.read_state(srv)
        if outcome == 503:
            faults.plan = FaultPlan(journal_fail=faults.journal_writes + 1)
        monkeypatch.setattr(meta, "make_engine", blocking_engine)
        writer = threading.Thread(target=lambda: replies.append(
            call(srv, "POST", "/alloc", {"id": "late", "sample": True})))
        writer.start()
        try:
            assert solving.wait(30), "the admit never reached its solve"
            during = self.read_state(srv)
        finally:
            release.set()
            writer.join(60)
        assert not writer.is_alive()
        assert during["digest"] == before["digest"]
        assert "late" not in during["services"]

        [(status, reply)] = replies
        assert status == outcome, reply
        after = self.read_state(srv)
        if outcome == 200:  # read-your-writes
            assert after["digest"] != before["digest"]
            assert after["services"]["late"]["node"] == reply["node"]
        else:
            assert after["digest"] == before["digest"]
            assert "late" not in after["services"]
        assert len(load_journal(path)) == (2 if outcome == 200 else 1)


class TestRequestSplit:
    PARTS = ("lock_wait", "solve", "journal", "other")

    def test_write_parts_add_up_to_the_request(self, journaled_server):
        """Over a scripted mix on one keep-alive connection, every write
        request observes each part once and the parts sum to the write
        endpoints' request time."""
        srv, _ = journaled_server
        host, port = srv.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)

        def send(method: str, target: str, body: bytes | None = None):
            conn.request(method, target, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()

        admit = json.dumps({"sample": True}).encode()
        writes = reads = 0
        ids = []
        try:
            for step in range(8):
                status, body = send("POST", "/alloc", admit)
                assert status == 200
                ids.append(json.loads(body)["id"])
                writes += 1
                if step % 2:
                    assert send("GET", "/state")[0] == 200
                    assert send("GET", "/healthz")[0] == 200
                    reads += 2
            for sid in ids[:3]:
                assert send("DELETE", f"/alloc/{sid}")[0] == 200
                writes += 1
            # Refusals are write requests too: their time is "other".
            assert send("DELETE", "/alloc/ghost")[0] == 404
            assert send("POST", "/alloc", b"{not json")[0] == 400
            writes += 2
            # On the same connection, so every request above has been
            # observed before this one is handled.
            status, body = send("GET", "/metrics")
            assert status == 200
        finally:
            conn.close()

        text = body.decode()
        assert check_prometheus_text(text) == []
        series = scrape(text)
        part = 'repro_request_part_seconds_{}{{part="{}"}}'
        request = 'repro_request_seconds_{}{{endpoint="{}"}}'
        for name in self.PARTS:
            assert series[part.format("count", name)] == writes, name
        assert series[part.format("sum", "solve")] > 0
        assert series[part.format("sum", "journal")] > 0
        parts_sum = sum(series[part.format("sum", name)]
                        for name in self.PARTS)
        write_sum = sum(series[request.format("sum", endpoint)]
                        for endpoint in ("alloc", "delete"))
        assert parts_sum == pytest.approx(write_sum, rel=0,
                                          abs=1e-6 * writes)
        assert sum(series[request.format("count", endpoint)]
                   for endpoint in ("alloc", "delete")) == writes
        for endpoint, n in (("state", reads // 2), ("healthz", reads // 2)):
            assert series[request.format("count", endpoint)] == n
            assert series[f'repro_requests_total{{endpoint="{endpoint}"}}'] == n
