"""The package's public surface: its version string, every ``__all__``,
and no module that only tests import."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(repro.__file__).resolve().parent

#: Modules run directly rather than imported: the console script, and the
#: two that CI runs with ``python -m``.
ENTRY_POINTS = {"repro.cli", "repro.obs.promcheck", "repro.analysis.ratchet"}


def test_version_matches_pyproject():
    # A regex rather than tomllib, which Python 3.10 lacks.
    match = re.search(r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(),
                      re.MULTILINE)
    assert match is not None
    assert repro.__version__ == match.group(1)


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        # Lint fixtures: deliberately bad snippets, never imported.
        if not info.name.startswith("repro.analysis.fixtures"):
            yield importlib.import_module(info.name)


def test_every_all_name_resolves():
    """A stale ``__all__`` entry breaks ``from module import *`` only
    when that import runs, so check every module's list here."""
    modules = list(_modules())
    assert {"repro.experiments.persistence", "repro.util.parallel",
            "repro.service.faults"} <= {m.__name__ for m in modules}
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []


def _source_modules():
    """``{module name: path}`` for every module under ``src/repro``,
    lint fixtures (snippets that are parsed, never imported) excepted."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        if not name.startswith("repro.analysis.fixtures."):
            out[name] = path
    return out


def _imported_names(name, path):
    """Absolute dotted names that *path*'s import statements name,
    ``from`` targets' members included (they may be submodules)."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_imported_by_the_program():
    """A module that no other ``src/repro`` module imports, and that is
    no entry point, runs only under its tests."""
    modules = _source_modules()
    imported = set()
    for name, path in modules.items():
        for target in _imported_names(name, path):
            parts = target.split(".")
            # Importing a.b.c runs a and a.b too.
            imported.update(".".join(parts[:i])
                            for i in range(1, len(parts) + 1)
                            if ".".join(parts[:i]) != name)
    orphans = sorted(set(modules) - imported - ENTRY_POINTS)
    assert orphans == []
