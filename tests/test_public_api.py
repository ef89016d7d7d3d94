"""The package's public surface: its version string and every ``__all__``."""

import importlib
import pkgutil
import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
