"""Rule behavior, driven by the fixture corpus plus targeted snippets."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.core import all_rules, load_module, run_check
from repro.analysis.selftest import fixture_dir, iter_fixtures, run_selftest


def _check_snippet(tmp_path: Path, virtual_path: str, body: str):
    """Run all rules over *body* as though it lived at *virtual_path*."""
    path = tmp_path / "snippet.py"
    path.write_text(
        f"# repro-fixture: rule=DT101 count=0 path={virtual_path}\n" + body,
        encoding="utf-8")
    return run_check([path])


def _rules_fired(result) -> list[str]:
    return sorted({f.rule for f in result.findings})


# ---------------------------------------------------------------------------
# The corpus is the executable spec


def test_selftest_corpus_passes():
    assert run_selftest() == []


def test_every_rule_has_bad_and_good_coverage():
    by_rule: dict[str, set[int]] = {}
    for path in iter_fixtures():
        pragma = load_module(path).fixture
        counts = by_rule.setdefault(pragma["rule"].upper(), set())
        counts.add(int(pragma["count"]))
    for rule in all_rules():
        assert rule.id in by_rule, f"{rule.id} has no fixtures"
        assert 0 in by_rule[rule.id], f"{rule.id} has no known-good fixture"
        assert any(c > 0 for c in by_rule[rule.id]), \
            f"{rule.id} has no known-bad fixture"


def test_good_fixtures_are_completely_clean():
    for path in iter_fixtures():
        pragma = load_module(path).fixture
        if int(pragma["count"]) == 0:
            result = run_check([path])
            assert result.findings == [], \
                f"{path.name}: {[f.location() for f in result.findings]}"


def test_fixture_corpus_is_not_scanned_by_directory_walks():
    result = run_check([fixture_dir().parent])
    fixture_paths = {load_module(p).relpath for p in iter_fixtures()}
    assert not fixture_paths & {f.path for f in result.findings}


# ---------------------------------------------------------------------------
# Targeted behavior beyond the corpus


def test_dt101_allows_rng_home_itself(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/util/rng.py",
        "import numpy as np\n"
        "g = np.random.default_rng()\n")
    assert "DT101" not in _rules_fired(result)


def test_dt102_allows_obs_layer(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/obs/example.py",
        "import time\n"
        "ts = time.time()\n")
    assert "DT102" not in _rules_fired(result)


def test_dt103_sorted_iteration_is_clean(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/workloads/example.py",
        "def workload_id(params):\n"
        "    return ','.join(f'{k}={v}' for k, v in"
        " sorted(params.items()))\n")
    assert "DT103" not in _rules_fired(result)


def test_dt103_order_free_reduction_is_clean(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/workloads/example.py",
        "def scenario_key(params):\n"
        "    assert all(v is not None for v in params.values())\n"
        "    return max(params.values())\n")
    assert "DT103" not in _rules_fired(result)


def test_dt104_upper_case_binding_is_the_fix(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/algorithms/example.py",
        "_MY_TOL = 1e-12\n"
        "def fits(a, b):\n"
        "    return a <= b + _MY_TOL\n")
    assert "DT104" not in _rules_fired(result)


def test_dt104_flags_lower_case_binding(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/algorithms/example.py",
        "tol = 1e-12\n")
    assert "DT104" in _rules_fired(result)


def test_ly301_stderr_print_is_fine(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/core/example.py",
        "import sys\n"
        "def helper():\n"
        "    print('diag', file=sys.stderr)\n")
    assert "LY301" not in _rules_fired(result)


def test_ly301_entry_point_print_is_fine(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/experiments/example.py",
        "def main(argv=None):\n"
        "    print('report')\n"
        "    return 0\n")
    assert "LY301" not in _rules_fired(result)


def test_ly303_kernel_may_import_stdlib_and_numpy(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/kernels/example.py",
        "import math\n"
        "import numpy as np\n"
        "from . import api\n")
    assert "LY303" not in _rules_fired(result)


def test_ly303_flags_object_model_import(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/kernels/example.py",
        "from repro.core.node import NodeArray\n")
    assert "LY303" in _rules_fired(result)


def test_cc201_sanctions_transact(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/service/example.py",
        "class C:\n"
        "    def _transact(self, spec):\n"
        "        with self._lock:\n"
        "            snap = self.state.checkpoint()\n"
        "            return self.solver.solve(spec)\n")
    assert "CC201" not in _rules_fired(result)


@pytest.mark.parametrize("body", [
    # an op holding the lock itself, outside the transaction path
    "    def admit(self, spec):\n"
    "        with self._lock:\n"
    "            return self.solver.solve_many([spec])[0]\n",
    # a read-side method reaching the solver through a helper
    "    def _full_solve(self):\n"
    "        return self.solver.solve_many([self.instance])[0]\n"
    "\n"
    "    def snapshot(self):\n"
    "        with self._lock:\n"
    "            return self._full_solve()\n",
], ids=["admit", "via-helper"])
def test_cc201_flags_solve_many_outside_transact(tmp_path, body):
    result = _check_snippet(tmp_path, "repro/service/example.py",
                            "class C:\n" + body)
    assert "CC201" in _rules_fired(result)


def test_cc201_flags_unsanctioned_solve_under_lock(tmp_path):
    result = _check_snippet(
        tmp_path, "repro/service/example.py",
        "class C:\n"
        "    def snapshot(self):\n"
        "        with self._lock:\n"
        "            return self.solver.solve(None)\n")
    assert "CC201" in _rules_fired(result)
