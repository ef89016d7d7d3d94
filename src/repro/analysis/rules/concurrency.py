"""Concurrency rules (CC2xx).

``CC201`` — lock discipline in ``repro/service/``.  The
``AllocationController`` serializes every state change behind one RLock,
and every state change runs through one transaction path,
``_transact``: it is the *only* sanctioned place to spend time under the
lock (admissions, departures, node drains and additions, and the journal
replay that re-runs them all go through it).  The rule builds a call
graph over the service package, finds every ``with self._lock:`` region,
and flags lock-held code that can reach a solver entry point, blocking
I/O, or a checkpoint write from any *other* function — the classic
"quick getter grows a solve under the lock" regression.

``CC202`` — objects crossing ``parallel_imap_cached`` worker boundaries.
The experiment engine ships picklable task descriptors to a process pool;
a lambda or nested closure as the worker either fails to pickle (spawn)
or silently captures parent state that workers mutate without effect
(fork).  Workers must be module-level callables.

``CC203`` — reads stay off the lock.  ``GET /state`` renders the
snapshot the controller publishes at each commit, so a read never waits
for a solve in flight.  The rule walks the same call graph from every
GET route handler (``_Handler._get_*`` in ``repro/service/http.py``)
and flags each ``with …lock`` region of the service package it can
reach.  Calls on ``self.controller``, or on a local bound to it,
resolve to ``AllocationController`` — without that, ``ctl.snapshot()``
would be ambiguous between the controller's and ``ClusterState``'s.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from ..core import (
    Finding,
    Module,
    Project,
    Rule,
    dotted_name,
    register_rule,
)

__all__ = ["LockDisciplineRule", "ParallelBoundaryRule", "ReadPathRule"]

#: The one function allowed to hold the controller lock across a solve:
#: the transaction every state-changing request (and journal replay on
#: restart) runs through.
_SANCTIONED_LOCK_HOLDERS = frozenset({"_transact"})

#: Call patterns that must not run while the controller lock is held
#: (outside the transaction path).  Matched against the call's dotted
#: name: its last attribute, or dotted prefixes for stdlib I/O.
_SOLVER_TAILS = frozenset({"solve", "solve_with_hint", "solve_many",
                           "binary_search_max_yield"})
_BLOCKING_EXACT = frozenset({"open", "time.sleep", "sleep"})
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "urllib.", "requests.",
                      "http.client.")


#: The GET route handlers whose read paths CC203 keeps off the lock.
_HTTP_MODULE = "repro/service/http.py"
_HANDLER_CLASS = "_Handler"
_GET_PREFIX = "_get_"

#: The HTTP handler's controller, and the class its calls resolve to.
_CONTROLLER = "self.controller"
_CONTROLLER_CLASS = "AllocationController"


def _call_class(name: str) -> str | None:
    """Classify a dotted call name, or ``None`` when benign."""
    tail = name.split(".")[-1]
    if tail in _SOLVER_TAILS:
        return "a solver call"
    if name in _BLOCKING_EXACT or tail == "sleep":
        return "blocking I/O"
    if name.startswith(_BLOCKING_PREFIXES):
        return "blocking I/O"
    if "checkpoint" in name.lower():
        return "a checkpoint write"
    return None


@dataclass
class _FuncInfo:
    """One function in the service package's call graph."""

    module: Module
    node: ast.FunctionDef
    qualname: str          # "AllocationController.admit" or "run_server"
    cls: str | None
    #: expressions naming the controller: ``self.controller`` and every
    #: local bound to it
    controller_names: frozenset[str] = frozenset()
    #: calls made anywhere in the body: (dotted name, line)
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: lock-held regions: (with-stmt, calls inside the region)
    lock_regions: list[tuple[ast.With, list[tuple[str, int]]]] = \
        field(default_factory=list)


def _is_lock_context(item: ast.withitem) -> bool:
    name = dotted_name(item.context_expr)
    if name is None and isinstance(item.context_expr, ast.Call):
        name = dotted_name(item.context_expr.func)
    return bool(name) and name.split(".")[-1].lstrip("_") in ("lock", "rlock")


def _calls_in(node: ast.AST) -> list[tuple[str, int]]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name is not None:
                out.append((name, sub.lineno))
    return out


def _controller_names(func: ast.AST) -> frozenset[str]:
    names = {_CONTROLLER}
    for sub in ast.walk(func):
        if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and dotted_name(sub.value) == _CONTROLLER):
            names.add(sub.targets[0].id)
    return frozenset(names)


def _collect_functions(module: Module) -> list[_FuncInfo]:
    infos: list[_FuncInfo] = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{cls}.{child.name}" if cls else child.name
                info = _FuncInfo(module=module, node=child, qualname=qual,
                                 cls=cls,
                                 controller_names=_controller_names(child),
                                 calls=_calls_in(child))
                for sub in ast.walk(child):
                    if isinstance(sub, ast.With) and \
                            any(_is_lock_context(i) for i in sub.items):
                        info.lock_regions.append((sub, _calls_in(sub)))
                infos.append(info)
                visit(child, cls)  # nested defs keep the class context

    visit(module.tree, None)
    return infos


def _service_call_graph(project: Project
                        ) -> tuple[list[_FuncInfo],
                                   dict[str, list[_FuncInfo]]]:
    """Every service-package function, and the same keyed by name."""
    functions: list[_FuncInfo] = []
    for module in project.modules:
        if module.in_package("service"):
            functions.extend(_collect_functions(module))
    by_method: dict[str, list[_FuncInfo]] = {}
    for info in functions:
        by_method.setdefault(info.node.name, []).append(info)
    return functions, by_method


def _resolve(name: str, by_method: dict[str, list[_FuncInfo]],
             origin: _FuncInfo) -> _FuncInfo | None:
    """Resolve a dotted call to a service-package function.

    A call on the controller prefers an ``AllocationController`` method;
    ``self.foo`` prefers a method of the caller's class; a bare name
    prefers a function in the caller's module; otherwise the unique
    service-package function of that name, if any.
    """
    parts = name.split(".")
    candidates = by_method.get(parts[-1], [])
    if not candidates:
        return None
    if ".".join(parts[:-1]) in origin.controller_names:
        for cand in candidates:
            if cand.cls == _CONTROLLER_CLASS:
                return cand
    if parts[0] == "self" and len(parts) == 2:
        for cand in candidates:
            if cand.cls == origin.cls:
                return cand
    if len(parts) == 1:
        for cand in candidates:
            if cand.module is origin.module and cand.cls is None:
                return cand
    if len(candidates) == 1:
        return candidates[0]
    return None


@register_rule
class LockDisciplineRule(Rule):
    id = "CC201"
    name = "service-lock-discipline"
    summary = ("no solver calls, blocking I/O, or checkpoint writes while "
               "the AllocationController lock is held outside the one "
               "transaction path, _transact (repro/service/)")

    #: transitive-call search depth through the service package.
    MAX_DEPTH = 6

    def check(self, project: Project) -> Iterator[Finding]:
        functions, by_method = _service_call_graph(project)
        for info in functions:
            if info.node.name in _SANCTIONED_LOCK_HOLDERS:
                continue
            for with_stmt, calls in info.lock_regions:
                offense = self._search(calls, by_method, info,
                                       depth=self.MAX_DEPTH, chain=())
                if offense is not None:
                    kind, name, via = offense
                    path = " -> ".join(via + (name,))
                    yield self.finding(
                        info.module, with_stmt,
                        f"{info.qualname} holds the controller lock over "
                        f"{kind} ({path}); only the transaction path "
                        "(_transact) may — move the work outside the lock")

    def _search(self, calls: list[tuple[str, int]],
                by_method: dict[str, list[_FuncInfo]],
                origin: _FuncInfo, depth: int,
                chain: tuple[str, ...],
                visited: set[str] | None = None
                ) -> tuple[str, str, tuple[str, ...]] | None:
        """First (kind, call, via-chain) reachable from *calls*."""
        if visited is None:
            visited = set()
        for name, _line in calls:
            kind = _call_class(name)
            if kind is not None:
                return kind, name, chain
        if depth == 0:
            return None
        for name, _line in calls:
            callee = _resolve(name, by_method, origin)
            if callee is None or callee.qualname in visited:
                continue
            visited.add(callee.qualname)
            found = self._search(callee.calls, by_method, callee,
                                 depth - 1, chain + (callee.qualname,),
                                 visited)
            if found is not None:
                return found
        return None



@register_rule
class ReadPathRule(Rule):
    id = "CC203"
    name = "reads-off-the-lock"
    summary = ("no function reachable from a GET route handler "
               "(_Handler._get_* in repro/service/http.py) may enter a lock "
               "region of repro/service/ — reads serve the snapshot "
               "published at commit and never wait for a solve")

    #: transitive-call search depth through the service package.
    MAX_DEPTH = 6

    def check(self, project: Project) -> Iterator[Finding]:
        functions, by_method = _service_call_graph(project)
        flagged: set[int] = set()
        for root in functions:
            if not (root.module.is_file(_HTTP_MODULE)
                    and root.cls == _HANDLER_CLASS
                    and root.node.name.startswith(_GET_PREFIX)):
                continue
            for info, chain in self._reachable(root, by_method):
                for with_stmt, _calls in info.lock_regions:
                    if id(with_stmt) in flagged:
                        continue
                    flagged.add(id(with_stmt))
                    yield self.finding(
                        info.module, with_stmt,
                        f"{info.qualname} takes a lock on the read path "
                        f"{' -> '.join(chain)}; a GET must not wait for a "
                        "solve — serve the snapshot published at commit")

    def _reachable(self, root: _FuncInfo,
                   by_method: dict[str, list[_FuncInfo]]
                   ) -> Iterator[tuple[_FuncInfo, tuple[str, ...]]]:
        """*root* and every function its calls reach, breadth first,
        each with the call chain that reaches it."""
        seen = {id(root.node)}
        frontier = [(root, (root.qualname,))]
        for _ in range(self.MAX_DEPTH + 1):
            reached = []
            for info, chain in frontier:
                yield info, chain
                for name, _line in info.calls:
                    callee = _resolve(name, by_method, info)
                    if callee is None or id(callee.node) in seen:
                        continue
                    seen.add(id(callee.node))
                    reached.append((callee, chain + (callee.qualname,)))
            frontier = reached


#: The pool entry point whose first positional argument runs in worker
#: processes.
_POOL_ENTRY_POINT = "parallel_imap_cached"


@register_rule
class ParallelBoundaryRule(Rule):
    id = "CC202"
    name = "picklable-pool-workers"
    summary = ("parallel_imap_cached workers must be module-level "
               "callables — lambdas and nested closures capture shared "
               "mutable state that does not survive the process boundary")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            nested = self._nested_function_names(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None \
                        or name.split(".")[-1] != _POOL_ENTRY_POINT:
                    continue
                if not node.args:
                    continue
                worker = node.args[0]
                if isinstance(worker, ast.Lambda):
                    yield self.finding(
                        module, worker,
                        "lambda worker crosses the process-pool boundary; "
                        "hoist it to a module-level function")
                elif isinstance(worker, ast.Name) and worker.id in nested:
                    yield self.finding(
                        module, worker,
                        f"worker {worker.id!r} is a nested closure; its "
                        "captured state is copied, not shared, across "
                        "pool workers — hoist it to module level")

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> frozenset[str]:
        nested: set[str] = set()
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(func):
                    if sub is not func and isinstance(
                            sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        nested.add(sub.name)
        return frozenset(nested)
