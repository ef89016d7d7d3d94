"""Stdlib HTTP front end of the allocation service.

A :class:`ThreadingHTTPServer` (one thread per connection, no new
dependencies) routing to an :class:`AllocationController`.  The HTTP
layer is deliberately thin: parse JSON, call the controller, serialize
the answer — all placement logic and locking lives in the controller.
Read endpoints take no lock: ``GET /state`` renders the snapshot the
controller published at its last commit, so a read never waits for a
solve in flight.

Every accepted socket gets ``TCP_NODELAY`` (``disable_nagle_algorithm``).
A reply is two writes, the headers and then the body.  On a keep-alive
connection Nagle's algorithm holds the body back until the client ACKs
the headers, and the client delays that ACK (~40 ms on Linux), so
without it every request after the first on a connection stalled for
the delayed-ACK timeout, several times the cost of a solve.

A request line the stdlib rejects — bad syntax (``400``) or an
unsupported HTTP version (``505``) — is answered with a status line and
``Connection: close``.

Endpoints::

    POST   /alloc             admit a service (explicit vectors or sampled)
    DELETE /alloc/{id}        departure + incremental re-solve
    POST   /nodes             add a node to the platform (re-solves)
    POST   /nodes/{id}/drain  evacuate a node (409 if infeasible)
    GET    /state             placement, per-node loads, yields, digest
    GET    /strategy          current solver strategy
    POST   /strategy          switch the solver strategy at runtime
    GET    /healthz           liveness
    GET    /metrics           Prometheus text exposition (scrape target);
                              ``?format=json`` keeps the legacy JSON view

Every request runs under a fresh trace id, returned in an
``X-Repro-Trace`` response header (and, for admissions, attached to the
stored allocation), so a client error report can be joined against the
daemon's ``--obs-log`` trace and its logs.  Request logs go through the
``repro.serve`` logger (``--log-level`` / ``--log-json``); the
``/healthz`` and ``/metrics`` pollers CI loops run are logged at DEBUG
so the default INFO level stays readable.

Binding to port 0 picks an ephemeral port; :func:`run_server` prints the
actual bound address on stdout before serving (CI and parallel local
runs parse it).

``SIGTERM`` triggers a clean drain: the serve loop stops, in-flight
requests finish, the event journal is flushed and closed under the
controller lock, and the process exits 0 — the lifecycle tests assert
exactly this, and that a restart from the journal reproduces the state.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs

from .. import obs
from ..workloads.registry import workload_id
from .controller import AllocationController, ServiceError
from .state import ServiceSpec

__all__ = ["AllocationHTTPServer", "create_server", "run_server"]

logger = logging.getLogger("repro.serve")

#: Poller endpoints whose request lines are demoted to DEBUG.
_QUIET_PATHS = ("/healthz", "/metrics")

#: Cap request bodies well above any honest descriptor payload.
MAX_BODY_BYTES = 1 << 20


class AllocationHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the controller."""

    daemon_threads = True

    def __init__(self, address, controller: AllocationController):
        super().__init__(address, _Handler)
        self.controller = controller


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/0.2"
    protocol_version = "HTTP/1.1"  # keep-alive; every reply sets a length
    disable_nagle_algorithm = True  # TCP_NODELAY: see the module docstring
    # A rejected request line is answered with a status line; the stdlib
    # default, HTTP/0.9, would send a bare HTML body.
    default_request_version = "HTTP/1.0"

    # -- plumbing ------------------------------------------------------
    @property
    def controller(self) -> AllocationController:
        return self.server.controller

    def _reply(self, status: int, payload: dict) -> None:
        self._reply_bytes(status, json.dumps(payload).encode(),
                          "application/json")

    def _reply_bytes(self, status: int, body: bytes,
                     content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            self.send_header("X-Repro-Trace", trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body is left unread, so the stream has lost its
            # framing: answer, then close the connection.
            self.close_connection = True
            if length < 0:
                raise ServiceError(
                    400, "Content-Length must be a non-negative integer")
            raise ServiceError(413, "request body too large")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise ServiceError(400, "JSON body must be an object")
        return body

    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        endpoint, handler = _resolve(method, path)
        # One trace id per request, even with tracing disabled — the
        # X-Repro-Trace header must always be answerable.  The request
        # is counted and timed from here until its reply is sent.
        with obs.trace_context() as tc, \
                self.controller.request(endpoint, write=method != "GET"):
            self._trace_id = tc.trace_id
            if not obs.enabled():
                return self._dispatch(method, path, handler)
            with obs.span("http.request") as sp:
                sp.annotate(method=method, path=path)
                self._dispatch(method, path, handler)

    def _dispatch(self, method: str, path: str,
                  handler: Callable[["_Handler"], None]) -> None:
        try:
            handler(self)
        except ServiceError as exc:
            self._reply(exc.status, exc.payload)
        except Exception as exc:  # never kill the connection thread
            logger.exception("unhandled error handling %s %s", method, path)
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")

    def log_message(self, format: str, *args) -> None:
        # Request lines go through the ``repro.serve`` logger (text or
        # JSON, per ``repro serve --log-json``); the health/metrics
        # pollers CI loops run are demoted to DEBUG under both formats.
        # A request line the stdlib rejected never set ``path``.
        path = getattr(self, "path", "").split("?", 1)[0].rstrip("/") or "/"
        level = (logging.DEBUG if path in _QUIET_PATHS else logging.INFO)
        logger.log(level, "%s %s", self.address_string(), format % args)

    # -- endpoints -----------------------------------------------------
    def _get_healthz(self) -> None:
        self._reply(200, self.controller.healthz())

    def _get_metrics(self) -> None:
        ctl = self.controller
        query = parse_qs(self.path.partition("?")[2])
        if query.get("format", [""])[0] == "json":
            return self._reply(200, ctl.metrics())
        self._reply_bytes(
            200, ctl.render_metrics().encode(),
            "text/plain; version=0.0.4; charset=utf-8")

    def _get_state(self) -> None:
        self._reply(200, self.controller.snapshot())

    def _get_strategy(self) -> None:
        ctl = self.controller
        self._reply(200, {"strategy": ctl.strategy,
                          "available": list(ctl.available_strategies())})

    def _post_strategy(self) -> None:
        ctl = self.controller
        body = self._read_json()
        name = body.get("strategy")
        if not isinstance(name, str):
            raise ServiceError(400, "body must carry a 'strategy' string")
        ctl.set_strategy(name)
        self._reply(200, {"strategy": ctl.strategy,
                          "available": list(ctl.available_strategies())})

    def _post_alloc(self) -> None:
        ctl = self.controller
        body = self._read_json()
        sid = body.get("id")
        if sid is not None and not isinstance(sid, str):
            raise ServiceError(400, "'id' must be a string")
        sla = body.get("sla", "best-effort")
        if not isinstance(sla, str):
            raise ServiceError(400, "'sla' must be a string")
        if body.get("sample"):
            spec = ctl.sample_spec(sid, sla=sla)
        else:
            missing = [k for k in ("req_elem", "req_agg",
                                   "need_elem", "need_agg")
                       if k not in body]
            if missing:
                raise ServiceError(
                    400, f"missing descriptor vectors {missing} "
                         "(or pass \"sample\": true)")
            try:
                spec = ServiceSpec.from_vectors(
                    sid or ctl.next_service_id(),
                    body["req_elem"], body["req_agg"],
                    body["need_elem"], body["need_agg"],
                    dims=ctl.state.nodes.dims, sla=sla)
            except (TypeError, ValueError) as exc:
                raise ServiceError(400, str(exc)) from None
        self._reply(200, ctl.admit(spec))

    def _delete_alloc(self, sid: str) -> None:
        ctl = self.controller
        if not sid:
            raise ServiceError(400, "DELETE /alloc/{id} needs a service id")
        self._reply(200, ctl.depart(sid))

    def _post_nodes(self) -> None:
        ctl = self.controller
        body = self._read_json()
        missing = [k for k in ("elementary", "aggregate") if k not in body]
        if missing:
            raise ServiceError(400, f"missing capacity vectors {missing}")
        name = body.get("name")
        if name is not None and not isinstance(name, str):
            raise ServiceError(400, "'name' must be a string")
        try:
            result = ctl.add_node(body["elementary"], body["aggregate"], name)
        except TypeError as exc:
            raise ServiceError(400, str(exc)) from None
        self._reply(200, result)

    def _post_drain(self, ident: str) -> None:
        ctl = self.controller
        if not ident:
            raise ServiceError(400, "POST /nodes/{id}/drain needs a node "
                                    "index or name")
        self._reply(200, ctl.drain_node(ident))


_Route = tuple[str | None, Callable[[_Handler], None]]

#: ``(method, path)`` -> (endpoint label, handler).
_ROUTES: dict[tuple[str, str], _Route] = {
    ("GET", "/healthz"): ("healthz", _Handler._get_healthz),
    ("GET", "/metrics"): ("metrics", _Handler._get_metrics),
    ("GET", "/state"): ("state", _Handler._get_state),
    ("GET", "/strategy"): ("strategy", _Handler._get_strategy),
    ("POST", "/strategy"): ("strategy", _Handler._post_strategy),
    ("POST", "/alloc"): ("alloc", _Handler._post_alloc),
    ("POST", "/nodes"): ("nodes", _Handler._post_nodes),
}


def _resolve(method: str, path: str) -> _Route:
    """The endpoint label and handler of a request; an unrouted one gets
    no label and a handler that answers 404."""
    route = _ROUTES.get((method, path))
    if route is not None:
        return route
    if method == "DELETE" and path.startswith("/alloc/"):
        sid = path[len("/alloc/"):]
        return "delete", lambda handler: handler._delete_alloc(sid)
    if (method == "POST" and path.startswith("/nodes/")
            and path.endswith("/drain")):
        ident = path[len("/nodes/"):-len("/drain")]
        return "drain", lambda handler: handler._post_drain(ident)

    def unrouted(handler: _Handler) -> None:
        raise ServiceError(404, f"no route for {method} {path}")
    return None, unrouted


def create_server(controller: AllocationController,
                  host: str = "127.0.0.1",
                  port: int = 0) -> AllocationHTTPServer:
    """Bind (port 0 = ephemeral) without starting the serve loop.

    The actual bound port is ``server.server_address[1]``.
    """
    return AllocationHTTPServer((host, port), controller)


def run_server(server: AllocationHTTPServer) -> None:
    """Print the bound address on stdout, then serve until interrupted.

    The stdout line is machine-parseable on purpose — ``--port 0`` runs
    (CI smoke, parallel local daemons) grep the port out of it.

    ``SIGTERM`` (when running on the main thread) and ``Ctrl-C`` both
    drain cleanly: stop accepting, let in-flight requests finish, close
    the journal under the controller lock, exit 0.  ``server.shutdown``
    must not be called from the serve thread itself, so the signal
    handler hands it to a helper thread.
    """
    host, port = server.server_address[:2]
    ctl = server.controller
    print(f"repro serve: listening on http://{host}:{port} "  # repro: noqa[LY301]
          f"(strategy {ctl.strategy}, {len(ctl.state.nodes)} hosts, "
          f"workload {workload_id(ctl.workload)})", flush=True)

    def _on_sigterm(signum: int, frame: object) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    prev_handler: object = None
    installed = False
    if threading.current_thread() is threading.main_thread():
        prev_handler = signal.signal(signal.SIGTERM, _on_sigterm)
        installed = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        ctl.quiesce()
        if installed:
            signal.signal(signal.SIGTERM, prev_handler)  # type: ignore[arg-type]
        print("repro serve: drained and stopped", flush=True)  # repro: noqa[LY301]
