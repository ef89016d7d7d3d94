"""Run ``repro serve`` with the benchmark's layer tracer installed.

Usage: ``python serve_host.py OUT.json [repro CLI arguments...]``

Used only by the traced daemon-open run: the wrappers time the daemon's
solver, kernel and journal layers in the daemon's own process, and the
per-layer totals are written to ``OUT.json`` once the daemon has
drained (``SIGTERM``).  Each HTTP request is a root frame; totals are
reset when the server starts listening, so the journal replay at
start-up is not counted.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_common import BACKEND  # noqa: E402
from bench_trace import Tracer, install_layers  # noqa: E402


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    from repro import kernels, service
    from repro.cli import main as cli_main
    from repro.service import http
    kernels.use_backend(BACKEND)
    tracer = Tracer()
    install_layers(tracer)
    for method in ("do_GET", "do_POST", "do_DELETE"):
        tracer.wrap(http._Handler, method, Tracer.ROOT)
    # The request's own parts, so that they are not unattributed: body
    # parsing and the reply (JSON encoding and the sends), the
    # controller's state-changing calls (lock wait, state, rollback; the
    # solve and journal layers nest inside) and the state snapshot.
    for method in ("_read_json", "_reply"):
        tracer.wrap(http._Handler, method, "service.http")
    for method in ("admit", "depart"):
        tracer.wrap(service.AllocationController, method,
                    "service.controller")
    tracer.wrap(service.AllocationController, "snapshot", "service.state")

    def serve(original):
        def run(server):
            tracer.reset()
            return original(server)
        return run

    tracer.replace(service, "run_server", serve)
    try:
        code = cli_main(args)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.as_json(), fh)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
