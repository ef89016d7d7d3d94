"""The fast examples run to completion, each in a fresh interpreter.

``lp_bounds.py`` is left out: its exact MILP solves take minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_EXAMPLES = ("quickstart.py", "cluster_consolidation.py",
                 "dynamic_hosting.py", "error_mitigation.py")


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "examples" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

