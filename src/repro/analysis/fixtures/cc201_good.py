# repro-fixture: rule=CC201 count=0 path=repro/service/example.py
# ruff: noqa
"""Known-good: checkpoints and solves stay on the one transaction path
(_transact); other lock regions touch in-memory state only."""
import threading


class Controller:
    def __init__(self, state, solver):
        self._lock = threading.RLock()
        self.state = state
        self.solver = solver

    def _transact(self, mutate):
        with self._lock:  # sanctioned: the one transaction path
            snap = self.state.checkpoint()
            try:
                mutate()
                return self.solver.solve_many([self.state.instance()])[0]
            except BaseException:
                self.state.restore(snap)
                raise

    def admit(self, spec):
        return self._transact(lambda: self.state.add(spec))

    def depart(self, sid):
        return self._transact(lambda: self.state.remove(sid))

    def view(self):
        with self._lock:
            return len(self.state)
