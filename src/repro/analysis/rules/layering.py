"""Layering / observability rules (LY3xx).

``LY301`` — library code does not ``print()``.  Human output belongs to
the CLI layer (``repro/cli.py``, ``main()``-style entry points) or to
``logging``/``repro.obs``; a stray print in a solver corrupts piped
experiment output and bypasses the structured log.

``LY302`` — metrics go through :mod:`repro.obs.metrics`.  PR 7 migrated
every hand-rolled counter dict onto the shared registry; this rule keeps
them from growing back.

``LY303`` — kernels stay leaf modules.  ``repro/kernels/`` may import
the stdlib, numpy, and its own package — nothing else.  A kernel that
reaches into the object model drags python back into the hot loop and
breaks the "backends are interchangeable array programs" contract.
"""

from __future__ import annotations

import ast
import sys
from typing import Iterator

from ..core import (
    Finding,
    Module,
    Project,
    Rule,
    dotted_name,
    register_rule,
)

__all__ = ["NoPrintRule", "MetricsDisciplineRule", "KernelImportRule"]

#: Modules whose whole job is terminal output.
_CLI_FILES = frozenset({"repro/cli.py", "repro/analysis/cli.py"})

#: Function names that are CLI entry points wherever they live
#: (``main(argv)`` in ``python -m``-style tools, ``_cmd_*`` handlers).
_ENTRY_POINT_PREFIXES = ("main", "_cmd_", "_main")


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Map every node id to the name of its nearest enclosing function."""
    owner: dict[int, str] = {}

    def visit(node: ast.AST, current: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            name = current
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if name is not None:
                owner[id(child)] = name
            visit(child, name)

    visit(tree, None)
    return owner


def _stderr_keyword(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "file" and dotted_name(kw.value) == "sys.stderr":
            return True
    return False


def _under_main_guard(tree: ast.Module, node: ast.AST) -> bool:
    """True when *node* sits under ``if __name__ == "__main__":``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.If):
            test = stmt.test
            if isinstance(test, ast.Compare) \
                    and isinstance(test.left, ast.Name) \
                    and test.left.id == "__name__":
                if any(sub is node for sub in ast.walk(stmt)):
                    return True
    return False


@register_rule
class NoPrintRule(Rule):
    id = "LY301"
    name = "no-print-in-library"
    summary = ("no print() in library code — CLI entry points and "
               "stderr diagnostics only; use logging/repro.obs elsewhere")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.relpath in _CLI_FILES:
                continue
            owner = _enclosing_functions(module.tree)
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print"):
                    continue
                if _stderr_keyword(node):
                    continue
                func = owner.get(id(node))
                if func is not None and func.startswith(
                        _ENTRY_POINT_PREFIXES):
                    continue
                if _under_main_guard(module.tree, node):
                    continue
                yield self.finding(
                    module, node,
                    "print() in library code; route through logging/"
                    "repro.obs, or print(file=sys.stderr) for diagnostics")


#: Assignment targets that smell like a metrics store.
_METRIC_NAME_PARTS = ("metric", "counter")

#: Value constructors that make a hand-rolled store out of one.
_DICT_FACTORIES = frozenset({"dict", "defaultdict", "Counter",
                             "OrderedDict"})


@register_rule
class MetricsDisciplineRule(Rule):
    id = "LY302"
    name = "metrics-via-registry"
    summary = ("no hand-rolled metric/counter dicts outside repro/obs/ — "
               "use repro.obs.MetricsRegistry (the PR 7 migration, "
               "enforced forever)")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.in_package("obs"):
                continue
            for node in ast.walk(module.tree):
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = node.targets
                    value = node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                    value = node.value
                else:
                    continue
                if not self._dictish(value):
                    continue
                for target in targets:
                    name = self._target_name(target)
                    if name and any(part in name.lower()
                                    for part in _METRIC_NAME_PARTS):
                        yield self.finding(
                            module, node,
                            f"hand-rolled metrics store {name!r}; use "
                            "repro.obs.MetricsRegistry counters/gauges/"
                            "histograms instead")

    @staticmethod
    def _target_name(target: ast.expr) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    @staticmethod
    def _dictish(value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            return bool(name) and name.split(".")[-1] in _DICT_FACTORIES
        return False


#: Absolute imports a kernel module may use besides the stdlib.
_KERNEL_THIRD_PARTY = frozenset({"numpy"})


@register_rule
class KernelImportRule(Rule):
    id = "LY303"
    name = "kernel-leaf-imports"
    summary = ("repro/kernels/ imports only the stdlib, numpy, and its "
               "own package — kernels are leaf array programs")

    def check(self, project: Project) -> Iterator[Finding]:
        stdlib = sys.stdlib_module_names
        for module in project.modules:
            if not module.in_package("kernels"):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        top = alias.name.split(".")[0]
                        if top not in stdlib \
                                and top not in _KERNEL_THIRD_PARTY:
                            yield self.finding(
                                module, node,
                                f"kernel imports {alias.name!r}; kernels "
                                "may import only stdlib/numpy and "
                                "repro.kernels itself")
                elif isinstance(node, ast.ImportFrom):
                    if node.level >= 2:
                        yield self.finding(
                            module, node,
                            "kernel imports from outside repro/kernels/ "
                            f"(from {'.' * node.level}"
                            f"{node.module or ''} ...); kernels are leaf "
                            "modules")
                    elif node.level == 0 and node.module:
                        top = node.module.split(".")[0]
                        if top == "repro" and not node.module.startswith(
                                "repro.kernels"):
                            yield self.finding(
                                module, node,
                                f"kernel imports {node.module!r}; kernels "
                                "may not depend on the object model")
                        elif top not in stdlib \
                                and top != "repro" \
                                and top not in _KERNEL_THIRD_PARTY:
                            yield self.finding(
                                module, node,
                                f"kernel imports {node.module!r}; kernels "
                                "may import only stdlib/numpy and "
                                "repro.kernels itself")
    # (relative level-1 imports stay inside the package by construction)
