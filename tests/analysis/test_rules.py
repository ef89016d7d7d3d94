"""Rule behavior, driven by the fixture corpus plus targeted snippets."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.core import all_rules, load_module, run_check
from repro.analysis.selftest import fixture_dir, iter_fixtures, run_selftest


def _check_modules(tmp_path: Path, modules: dict[str, str]):
    """Run all rules over each body as though it lived at its virtual
    path (one project: rules see the modules together)."""
    paths = []
    for i, (virtual_path, body) in enumerate(modules.items()):
        path = tmp_path / f"snippet{i}.py"
        path.write_text(
            f"# repro-fixture: rule=DT101 count=0 path={virtual_path}\n"
            + body, encoding="utf-8")
        paths.append(path)
    return run_check(paths)


def _check_snippet(tmp_path: Path, virtual_path: str, body: str):
    """Run all rules over *body* as though it lived at *virtual_path*."""
    return _check_modules(tmp_path, {virtual_path: body})


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


def _state_read(get_state: str, snapshot: str) -> dict[str, str]:
    """The ``GET /state`` path across the service modules: the handler
    body *get_state*, the controller's ``snapshot`` body, and the
    ``ClusterState.snapshot`` that makes the method name ambiguous."""
    return {
        "repro/service/http.py": (
            "class _Handler:\n"
            "    @property\n"
            "    def controller(self):\n"
            "        return self.server.controller\n"
            "\n"
            "    def _get_state(self):\n" + get_state),
        "repro/service/controller.py": (
            "class AllocationController:\n"
            "    def count_request(self, endpoint):\n"
            "        self._m_requests.labels(endpoint=endpoint).inc()\n"
            "\n"
            "    def snapshot(self):\n" + snapshot),
        "repro/service/state.py": (
            "class ClusterState:\n"
            "    def snapshot(self):\n"
            "        return {'active': len(self._services)}\n"),
    }


#: The controller's ``snapshot`` before reads left the lock.
_LOCKED_SNAPSHOT = (
    "        with self._lock:\n"
    "            snap = self.state.snapshot()\n"
    "        snap['strategy'] = self._strategy\n"
    "        return snap\n")


@pytest.mark.parametrize("get_state", [
    # the handler before reads left the lock
    "        ctl = self.controller\n"
    "        ctl.count_request('state')\n"
    "        self._reply(200, ctl.snapshot())\n",
    "        self._reply(200, self.controller.snapshot())\n",
], ids=["local", "attribute"])
def test_cc203_flags_a_state_read_under_the_lock(tmp_path, get_state):
    result = _check_modules(tmp_path,
                            _state_read(get_state, _LOCKED_SNAPSHOT))
    [finding] = [f for f in result.findings if f.rule == "CC203"]
    assert finding.path == "repro/service/controller.py"
    assert "_Handler._get_state -> AllocationController.snapshot" \
        in finding.message


def test_cc203_allows_the_published_snapshot(tmp_path):
    result = _check_modules(tmp_path, _state_read(
        "        self._reply(200, self.controller.snapshot())\n",
        "        view = ClusterState(self._committed.nodes)\n"
        "        view.restore(self._committed)\n"
        "        return view.snapshot()\n"))
    assert "CC203" not in _rules_fired(result)


def test_cc203_leaves_write_handlers_alone(tmp_path):
    modules = _state_read("        self._reply(200, {})\n", _LOCKED_SNAPSHOT)
    modules["repro/service/http.py"] += (
        "\n"
        "    def _post_alloc(self):\n"
        "        self._reply(200, self.controller.snapshot())\n")
    assert "CC203" not in _rules_fired(_check_modules(tmp_path, modules))
