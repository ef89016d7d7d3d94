# repro-fixture: rule=CC203 count=0 path=repro/service/http.py
# ruff: noqa
"""Known-good: writes take the lock and publish the committed state;
GET handlers render the published snapshot and never take the lock."""
import threading


class ClusterState:
    def __init__(self):
        self.services = {}

    def checkpoint(self):
        return dict(self.services)

    def snapshot(self):
        return {"active": len(self.services)}


class AllocationController:
    def __init__(self):
        self._lock = threading.RLock()
        self.state = ClusterState()
        self._committed = self.state.checkpoint()

    def _transact(self, sid, spec):
        with self._lock:  # the write path: reached from POST only
            self.state.services[sid] = spec
            self._committed = self.state.checkpoint()

    def admit(self, sid, spec):
        self._transact(sid, spec)

    def snapshot(self):
        return {"active": len(self._committed)}


class _Handler:
    @property
    def controller(self):
        return self.server.controller

    def _reply(self, status, payload):
        self.wfile.write(repr((status, payload)).encode())

    def _get_state(self):
        ctl = self.controller
        self._reply(200, ctl.snapshot())

    def _post_alloc(self):
        ctl = self.controller
        ctl.admit("svc-0", {})
        self._reply(200, ctl.snapshot())
