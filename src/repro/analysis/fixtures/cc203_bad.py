# repro-fixture: rule=CC203 count=2 path=repro/service/http.py
# ruff: noqa
"""Known-bad: GET handlers whose read path takes the controller lock,
so a read queues behind whatever solve holds it."""
import threading


class ClusterState:
    def __init__(self):
        self.services = {}

    def snapshot(self):
        return {"active": len(self.services)}


class AllocationController:
    def __init__(self):
        self._lock = threading.RLock()
        self.state = ClusterState()

    def snapshot(self):
        with self._lock:  # GET /state waits for the solve in flight
            return self.state.snapshot()

    def _active(self):
        with self._lock:  # reached through healthz()
            return len(self.state.services)

    def healthz(self):
        return {"status": "ok", "active": self._active()}


class _Handler:
    @property
    def controller(self):
        return self.server.controller

    def _reply(self, status, payload):
        self.wfile.write(repr((status, payload)).encode())

    def _get_state(self):
        ctl = self.controller
        self._reply(200, ctl.snapshot())

    def _get_healthz(self):
        self._reply(200, self.controller.healthz())
