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

``CC202`` — objects crossing ``parallel_imap`` worker boundaries.  The
experiment engine ships picklable task descriptors to a process pool;
a lambda or nested closure as the worker either fails to pickle (spawn)
or silently captures parent state that workers mutate without effect
(fork).  Workers must be module-level callables.
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

__all__ = ["LockDisciplineRule", "ParallelBoundaryRule"]

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


def _collect_functions(module: Module) -> list[_FuncInfo]:
    infos: list[_FuncInfo] = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{cls}.{child.name}" if cls else child.name
                info = _FuncInfo(module=module, node=child, qualname=qual,
                                 cls=cls, calls=_calls_in(child))
                for sub in ast.walk(child):
                    if isinstance(sub, ast.With) and \
                            any(_is_lock_context(i) for i in sub.items):
                        info.lock_regions.append((sub, _calls_in(sub)))
                infos.append(info)
                visit(child, cls)  # nested defs keep the class context

    visit(module.tree, None)
    return infos


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
        functions: list[_FuncInfo] = []
        for module in project.modules:
            if module.in_package("service"):
                functions.extend(_collect_functions(module))
        if not functions:
            return
        by_method: dict[str, list[_FuncInfo]] = {}
        for info in functions:
            by_method.setdefault(info.node.name, []).append(info)

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
            callee = self._resolve(name, by_method, origin)
            if callee is None or callee.qualname in visited:
                continue
            visited.add(callee.qualname)
            found = self._search(callee.calls, by_method, callee,
                                 depth - 1, chain + (callee.qualname,),
                                 visited)
            if found is not None:
                return found
        return None

    @staticmethod
    def _resolve(name: str, by_method: dict[str, list[_FuncInfo]],
                 origin: _FuncInfo) -> _FuncInfo | None:
        """Resolve a dotted call to a service-package function.

        ``self.foo`` prefers a method of the caller's class; a bare name
        prefers a function in the caller's module; otherwise the unique
        service-package function of that name, if any.
        """
        parts = name.split(".")
        candidates = by_method.get(parts[-1], [])
        if not candidates:
            return None
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


#: The pool entry points whose first positional argument runs in worker
#: processes.
_POOL_ENTRY_POINTS = frozenset({"parallel_imap", "parallel_imap_cached",
                                "parallel_map"})


@register_rule
class ParallelBoundaryRule(Rule):
    id = "CC202"
    name = "picklable-pool-workers"
    summary = ("parallel_imap/parallel_map workers must be module-level "
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
                        or name.split(".")[-1] not in _POOL_ENTRY_POINTS:
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
