"""The failure-policy table: every state-changing op under every fault.

Each row builds the same fixture — a journaled controller with six
admitted services — sends one request, and asserts the observable
effect: the status or reply fields, an unchanged digest on every
refusal, the number of journal records written, the counter deltas, and
that the journal replays to the live digest.  The policies themselves
are tabulated in :mod:`repro.service.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.algorithms.vector_packing import meta
from repro.service import (
    AllocationController,
    EventJournal,
    FaultInjector,
    FaultPlan,
    ServiceError,
    load_journal,
)
from repro.service import controller as controller_module
from repro.util.retry import BackoffPolicy

from .conftest import make_controller

#: Prometheus series each row counts, by short name.
SERIES = {
    "admitted": "repro_admitted_total",
    "rejected": "repro_rejected_total",
    "departed": "repro_departed_total",
    "drain": 'repro_node_events_total{kind="drain"}',
    "add": 'repro_node_events_total{kind="add"}',
    "full": 'repro_solves_total{mode="full"}',
    "degraded": 'repro_solves_total{mode="degraded"}',
    "fallback": 'repro_solves_total{mode="fallback"}',
    "journal_errors": "repro_journal_errors_total",
}

#: In a row's expected reply, "the key is present with any value".
ANY = ...


@dataclass(frozen=True)
class Row:
    op: str
    fault: str
    status: int
    #: Reply (or error payload) fields the answer must carry.
    reply: dict = field(default_factory=dict)
    #: The counters of SERIES that move, by how much; the rest stay.
    deltas: dict = field(default_factory=dict)
    #: Journal records the request appends.
    records: int = 0
    #: Services admitted by the fixture.
    services: int = 6


OK_ADMIT = {"active": 7, "degraded": False}
GREEDY = {"active": 7, "degraded": True, "probes": 0,
          "certified_yield": None}
OK_DEPART = {"active": 5, "degraded": False}
RETAINED = {"active": 5, "degraded": True, "certified_yield": None}
NEW_NODE = {"node": 4, "node_name": "spare", "hosts": 5}

ROWS = [
    Row("admit", "success", 200, OK_ADMIT, {"admitted": 1, "full": 1}, 1),
    Row("admit", "invalid", 409, {"error": "duplicate service id"}),
    Row("admit", "infeasible", 409, {"error": "admission rejected"},
        {"rejected": 1, "full": 1}),
    Row("admit", "solver_outage", 200, {**GREEDY, "solver_error": ANY},
        {"admitted": 1, "degraded": 1}, 1),
    Row("admit", "journal_failure", 503, {},
        {"full": 1, "journal_errors": 1}),
    Row("admit", "degraded", 200, GREEDY, {"admitted": 1, "degraded": 1}, 1),
    # A crash inside the greedy probe leaves no half-applied newcomer.
    Row("admit", "greedy_crash", 500),

    Row("depart", "success", 200, OK_DEPART,
        {"departed": 1, "full": 1}, 1),
    Row("depart", "invalid", 404, {"id": "ghost"}),
    Row("depart", "infeasible", 200, RETAINED,
        {"departed": 1, "full": 1, "fallback": 1}, 1),
    Row("depart", "solver_outage", 200, {**RETAINED, "solver_error": ANY},
        {"departed": 1, "fallback": 1}, 1),
    Row("depart", "journal_failure", 503, {},
        {"full": 1, "journal_errors": 1}),
    Row("depart", "degraded", 200, RETAINED,
        {"departed": 1, "fallback": 1}, 1),
    # No incumbent to retain: the 500 keeps the service and its record.
    Row("depart", "no_incumbent", 500),
    Row("depart", "last_service", 200,
        {"active": 0, "minimum_yield": None, "certified_yield": None,
         "degraded": False}, {"departed": 1}, 1, services=1),

    Row("drain", "success", 200,
        {"node": 0, "drained": [0], "resolved": True},
        {"drain": 1, "full": 1}, 1),
    Row("drain", "invalid", 404),
    Row("drain", "infeasible", 409, {"node": 0}, {"full": 1}),
    Row("drain", "solver_outage", 409, {"node": 0, "solver_error": ANY}),
    Row("drain", "journal_failure", 503, {},
        {"full": 1, "journal_errors": 1}),
    Row("drain", "degraded", 200, {"resolved": True},
        {"drain": 1, "full": 1}, 1),

    Row("add_node", "success", 200, {**NEW_NODE, "resolved": True},
        {"add": 1, "full": 1}, 1),
    Row("add_node", "invalid", 400),
    Row("add_node", "infeasible", 200, {**NEW_NODE, "resolved": False},
        {"add": 1, "full": 1}, 1),
    Row("add_node", "solver_outage", 200, {**NEW_NODE, "resolved": False},
        {"add": 1}, 1),
    Row("add_node", "journal_failure", 503, {},
        {"full": 1, "journal_errors": 1}),
    Row("add_node", "degraded", 200, {**NEW_NODE, "resolved": True},
        {"add": 1, "full": 1}, 1),

    Row("strategy", "success", 200, {"strategy": "METAVP"}, {}, 1),
    Row("strategy", "invalid", 400, {"available": ANY}),
    Row("strategy", "journal_failure", 503, {}, {"journal_errors": 1}),
    Row("strategy", "unchanged", 200, {"strategy": "METAHVPLIGHT"}),
]


@dataclass
class Fixture:
    ctl: AllocationController
    faults: FaultInjector
    path: Path
    sids: list[str]


def build(tmp_path, services: int) -> Fixture:
    faults = FaultInjector(FaultPlan())
    ctl = make_controller(faults=faults,
                          solver_retry=BackoffPolicy(attempts=2,
                                                     base_delay=0.0))
    path = tmp_path / "events.jsonl"
    ctl.attach_journal(EventJournal(path, faults=faults))
    sids = [ctl.admit(ctl.sample_spec())["id"] for _ in range(services)]
    return Fixture(ctl, faults, path, sids)


def counts(ctl: AllocationController) -> dict[str, float]:
    series = dict(line.rsplit(" ", 1)
                  for line in ctl.render_metrics().splitlines()
                  if line and not line.startswith("#"))
    return {short: float(series[name]) for short, name in SERIES.items()}


def never_packs(instance, strategies, *args):
    """A META* oracle for which no strategy packs at any yield."""
    return lambda instance, y: None


def crash(*args, **kwargs):
    raise RuntimeError("greedy probe crashed")


def arm(fault: str, fx: Fixture, patch: pytest.MonkeyPatch) -> None:
    """Make the next request meet *fault*."""
    if fault == "infeasible":  # MetaSolver.solve_with_hint's oracle
        patch.setattr(meta, "make_engine", never_packs)
    elif fault == "solver_outage":  # far past any retry budget
        fx.faults.plan = FaultPlan(solver_fail=fx.faults.solver_calls + 100)
    elif fault == "journal_failure":
        fx.faults.plan = FaultPlan(journal_fail=fx.faults.journal_writes + 1)
    elif fault in ("degraded", "greedy_crash", "no_incumbent"):
        fx.ctl.deadline_ms = 1e-9  # every solve is over budget
        if fault == "greedy_crash":
            patch.setattr(controller_module, "place_newcomers", crash)
        if fault == "no_incumbent":
            patch.setattr(AllocationController, "_retained_allocation",
                          lambda self: None)


def send(op: str, fault: str, fx: Fixture) -> dict:
    """The one request of a row; returns the reply payload."""
    ctl, invalid = fx.ctl, fault == "invalid"
    if op == "admit":
        spec = ctl.state.spec(fx.sids[0]) if invalid else ctl.sample_spec()
        return ctl.admit(spec)
    if op == "depart":
        return ctl.depart("ghost" if invalid else fx.sids[0])
    if op == "drain":
        return ctl.drain_node("nope" if invalid else "0")
    if op == "add_node":
        nodes = ctl.state.nodes
        elementary = [1.0] if invalid else list(nodes.elementary[1])
        return ctl.add_node(elementary, list(nodes.aggregate[1]), "spare")
    name = {"invalid": "NOPE", "unchanged": ctl.strategy}.get(fault, "METAVP")
    ctl.set_strategy(name)
    return {"strategy": ctl.strategy}


def outcome(row: Row, fx: Fixture,
            monkeypatch: pytest.MonkeyPatch) -> tuple[int, dict]:
    """(HTTP status, payload) the request would be answered with."""
    with monkeypatch.context() as patch:
        arm(row.fault, fx, patch)
        try:
            return 200, send(row.op, row.fault, fx)
        except ServiceError as exc:
            return exc.status, exc.payload
        except RuntimeError as exc:  # the HTTP layer's unhandled 500
            return 500, {"error": str(exc)}
        finally:
            fx.faults.plan = FaultPlan()


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r.op}-{r.fault}")
def test_failure_policy(row: Row, tmp_path, monkeypatch):
    fx = build(tmp_path, row.services)
    digest, strategy = fx.ctl.state.digest(), fx.ctl.strategy
    before = counts(fx.ctl)
    records = len(load_journal(fx.path))

    status, reply = outcome(row, fx, monkeypatch)

    assert status == row.status, reply
    for key, want in row.reply.items():
        assert key in reply, (key, reply)
        assert want is ANY or reply[key] == want, (key, reply)
    if status != 200:
        assert fx.ctl.state.digest() == digest
        assert fx.ctl.strategy == strategy
    after = counts(fx.ctl)
    assert {k: after[k] - before[k] for k in SERIES
            if after[k] != before[k]} == row.deltas
    fx.ctl.quiesce()
    events = load_journal(fx.path)
    assert len(events) - records == row.records
    replayed = make_controller(rng=999)
    replayed.replay_events(events)
    assert replayed.state.digest() == fx.ctl.state.digest()
    assert replayed.strategy == fx.ctl.strategy
