"""Checkpoint/resume tests for the streaming experiment engine.

The core guarantee: a grid interrupted mid-run and resumed from its JSONL
checkpoint yields results identical to an uninterrupted run.  ``seconds``
is wall-clock measurement metadata — it can never match across two
processes — so "identical" means byte-identical serialized results with
the timing field zeroed.
"""

import json

import pytest

from repro.experiments import SMOKE_GRID, run_grid
from repro.experiments.persistence import (
    TASK_RECORDS,
    CheckpointStore,
    PayloadRecords,
    canonical_key,
    load_results,
    task_key,
    task_to_dict,
)
from repro.experiments.runner import iter_grid
from repro.experiments import runner as runner_module

ALGOS = ("METAGREEDY",)


def serialize(results, keep_timing=False):
    """Canonical byte form of a result list, timing zeroed by default."""
    dicts = [task_to_dict(t) for t in results]
    if not keep_timing:
        for d in dicts:
            for r in d["results"]:
                r["seconds"] = 0.0
    return json.dumps(dicts)


@pytest.fixture(scope="module")
def uninterrupted():
    return run_grid(SMOKE_GRID.configs(), ALGOS, workers=1)


class TestIterGrid:
    def test_streaming_matches_run_grid(self, uninterrupted):
        streamed = list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1))
        assert serialize(streamed) == serialize(uninterrupted)

    def test_checkpoint_written_incrementally(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        next(stream)
        next(stream)
        # Two results yielded => at least two lines already on disk
        # (flushed+fsynced before the yield).
        assert len(load_results(path)) >= 2
        stream.close()

    def test_interrupt_resume_identical(self, tmp_path, uninterrupted):
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        partial = [next(stream), next(stream)]  # "crash" after 2 of 4
        stream.close()
        assert len(load_results(path)) == 2

        resumed = list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1,
                                 checkpoint=path, resume=True))
        assert serialize(resumed) == serialize(uninterrupted)
        # The resumed prefix is byte-identical *including* timing: it was
        # read back from the checkpoint, not recomputed.
        assert serialize(resumed[:2], keep_timing=True) == \
            serialize(partial, keep_timing=True)
        # The checkpoint now holds the whole grid and doubles as a results
        # file.
        assert serialize(load_results(path)) == serialize(uninterrupted)

    def test_resume_skips_computation(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        next(stream)
        next(stream)
        next(stream)
        stream.close()

        calls = []
        real = runner_module._run_task
        monkeypatch.setattr(runner_module, "_run_task",
                            lambda task: calls.append(task) or real(task))
        resumed = list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1,
                                 checkpoint=path, resume=True))
        assert len(resumed) == 4
        assert len(calls) == 1  # only the missing task ran

    def test_resume_with_completed_checkpoint_runs_nothing(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.jsonl")
        list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path))
        monkeypatch.setattr(runner_module, "_run_task",
                            lambda task: pytest.fail("should not recompute"))
        resumed = list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1,
                                 checkpoint=path, resume=True))
        assert len(resumed) == 4

    def test_parallel_resume_identical(self, tmp_path, uninterrupted):
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 2, checkpoint=path)
        next(stream)
        stream.close()
        resumed = list(iter_grid(SMOKE_GRID.configs(), ALGOS, 2,
                                 checkpoint=path, resume=True))
        assert serialize(resumed) == serialize(uninterrupted)

    def test_truncated_final_line_tolerated(self, tmp_path, uninterrupted):
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        next(stream)
        next(stream)
        stream.close()
        with open(path, "a") as fh:
            fh.write('{"v": 1, "config": {"hosts": 8')  # killed mid-write
        resumed = list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1,
                                 checkpoint=path, resume=True))
        assert serialize(resumed) == serialize(uninterrupted)

    def test_double_interruption_repairs_tail(self, tmp_path, uninterrupted):
        """A resumed store must repair a crash-damaged tail before
        appending, or the new record glues onto the partial line and the
        file rots on the *second* resume."""
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        next(stream)
        stream.close()
        with open(path, "a") as fh:
            fh.write('{"v": 1, "config"')  # crash no.1, mid-write
        # Resume no.1, interrupted again after two more results.
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1,
                           checkpoint=path, resume=True)
        next(stream)
        next(stream)
        next(stream)
        stream.close()
        # Resume no.2 must see 3 intact records and finish identically.
        resumed = list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1,
                                 checkpoint=path, resume=True))
        assert serialize(resumed) == serialize(uninterrupted)
        assert serialize(load_results(path)) == serialize(uninterrupted)

    def test_missing_final_newline_restored(self, tmp_path, uninterrupted):
        """A complete final record that lost only its newline keeps its
        data; the newline is restored so appends don't glue onto it."""
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        next(stream)
        next(stream)
        stream.close()
        with open(path, "rb+") as fh:
            fh.seek(-1, 2)
            assert fh.read(1) == b"\n"
            fh.seek(-1, 2)
            fh.truncate()  # chop the trailing newline only
        resumed = list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1,
                                 checkpoint=path, resume=True))
        assert serialize(resumed) == serialize(uninterrupted)
        assert len(load_results(path)) == 4

    def test_load_results_tolerates_partial_tail(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        next(stream)
        next(stream)
        stream.close()
        with open(path, "a") as fh:
            fh.write('{"v": 1, "conf')
        assert len(load_results(path)) == 2  # merge workflow keeps working

    def test_without_resume_truncates(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path))
        assert len(load_results(path)) == 4
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        next(stream)
        stream.close()
        assert len(load_results(path)) == 1

    def test_checkpoint_keys_include_algorithms(self, tmp_path):
        """A checkpoint for one algorithm set must not answer another's."""
        path = str(tmp_path / "ck.jsonl")
        list(iter_grid(SMOKE_GRID.configs(), ("METAGREEDY",), 1,
                       checkpoint=path))
        resumed = list(iter_grid(SMOKE_GRID.configs(),
                                 ("METAGREEDY", "METAVP"), 1,
                                 checkpoint=path, resume=True))
        for task in resumed:
            assert {r.algorithm for r in task.results} == \
                {"METAGREEDY", "METAVP"}

    def test_run_grid_signature_unchanged(self):
        # The seed-era positional call must keep working.
        results = run_grid(SMOKE_GRID.configs(), ALGOS, 1)
        assert len(results) == 4

    def test_progress_callback_reports_cached(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        stream = iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path)
        next(stream)
        next(stream)
        stream.close()
        events = []
        list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path,
                       resume=True,
                       progress=lambda task, cached: events.append(cached)))
        assert events == [True, True, False, False]


def task_store(path, resume=False):
    return CheckpointStore(path, TASK_RECORDS, resume=resume)


def payload_store(path, kind, resume=False):
    return CheckpointStore(path, PayloadRecords(kind), resume=resume)


class TestTaskRecordStore:
    def test_shared_store_across_grids(self, tmp_path):
        """Drivers pass one open store through several iter_grid calls
        (table1's per-J loop); all results land in one file without the
        second call truncating the first's."""
        path = str(tmp_path / "ck.jsonl")
        with task_store(path) as store:
            list(iter_grid(SMOKE_GRID.configs(), ("METAGREEDY",), 1,
                           checkpoint=store))
            list(iter_grid(SMOKE_GRID.configs(), ("METAVP",), 1,
                           checkpoint=store))
            assert len(store) == 8
        assert len(load_results(path)) == 8
        reopened = task_store(path, resume=True)
        assert len(reopened) == 8

    def test_append_does_not_retain_results(self, tmp_path):
        """Fresh sweeps stay memory-flat: appends are counted, not kept."""
        path = str(tmp_path / "ck.jsonl")
        with task_store(path) as store:
            list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=store))
            assert len(store) == 4
            assert store.completed == {}  # nothing held in memory

    def test_fresh_store_preserves_foreign_records(self, tmp_path):
        """resume=False drops task records but keeps other checkpoints
        sharing the file."""
        path = str(tmp_path / "shared.jsonl")
        with payload_store(path, "other") as ck:
            ck.append(["fp", 0], {"x": 1})
        list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path))
        list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path))
        assert len(load_results(path)) == 4  # second run truncated the first
        ck = payload_store(path, "other", resume=True)
        assert ck.completed[canonical_key(["fp", 0])] == {"x": 1}  # not this

    def test_fresh_checkpoint_preserves_task_records(self, tmp_path):
        path = str(tmp_path / "shared.jsonl")
        list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=path))
        with payload_store(path, "k") as ck:  # resume=False
            ck.append([0], 1)
        with payload_store(path, "k") as ck2:  # drops only kind "k"
            assert len(ck2) == 0
        assert len(load_results(path)) == 4

    def test_store_load_ignores_checkpoint_records(self, tmp_path):
        path = str(tmp_path / "mixed.jsonl")
        with payload_store(path, "other") as ck:
            ck.append(["fp", 0], {"x": 1})
        with task_store(path, resume=True) as store:
            list(iter_grid(SMOKE_GRID.configs(), ALGOS, 1, checkpoint=store))
        store = task_store(path, resume=True)
        assert len(store) == 4
        assert len(load_results(path)) == 4
        # and the foreign record survived alongside
        ck = payload_store(path, "other", resume=True)
        assert ck.completed[canonical_key(["fp", 0])] == {"x": 1}


class TestPayloadRecordStore:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with payload_store(path, "demo") as ck:
            ck.append(["fp", 1], {"value": 0.25})
            ck.append(["fp", 2], None)
        loaded = payload_store(path, "demo", resume=True)
        assert loaded.completed[canonical_key(["fp", 1])] == {"value": 0.25}
        assert loaded.completed[canonical_key(["fp", 2])] is None
        assert len(loaded) == 2

    def test_kind_filtering(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with payload_store(path, "a") as ck_a:
            ck_a.append([0], 1)
        with payload_store(path, "b", resume=True) as ck_b:
            ck_b.append([0], 2)
        assert len(payload_store(path, "a", resume=True)) == 1
        assert len(payload_store(path, "b", resume=True)) == 1

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with payload_store(path, "demo") as ck:
            ck.append([1], "ok")
        with open(path, "a") as fh:
            fh.write('{"v": 1, "kind": "demo", "key": [2]')
        loaded = payload_store(path, "demo", resume=True)
        assert len(loaded) == 1


class TestDriverResume:
    def test_error_figure_resume_identical(self, tmp_path):
        from repro.experiments import (ErrorFigureSpec,
                                       error_figure_experiment)
        spec = error_figure_experiment(ErrorFigureSpec(
            hosts=8, services=16, instances=2, error_values=(0.0, 0.1),
            thresholds=(0.0,), placer="METAGREEDY"))
        path = str(tmp_path / "ck.jsonl")
        fresh = spec.run(workers=1, checkpoint=path)
        resumed = spec.run(workers=1, checkpoint=path, resume=True)
        assert resumed.series == fresh.series
        assert resumed.solved_instances == fresh.solved_instances

    def test_strategy_ranking_resume_identical(self, tmp_path):
        from repro.experiments.strategy_ranking import (
            strategy_ranking_experiment)
        from repro.workloads import ScenarioConfig
        spec = strategy_ranking_experiment([ScenarioConfig(
            hosts=4, services=8, cov=0.5, slack=0.5, seed=7,
            instance_index=0)])
        path = str(tmp_path / "ck.jsonl")
        fresh = spec.run(workers=1, checkpoint=path)
        resumed = spec.run(workers=1, checkpoint=path, resume=True)
        assert [s.strategy.name for s in resumed.stats] == \
            [s.strategy.name for s in fresh.stats]
        assert [s.average_yield for s in resumed.stats] == \
            [s.average_yield for s in fresh.stats]

    def test_table1_checkpoint_resume(self, tmp_path):
        from repro.experiments import SMOKE_GRID, table1_experiment
        spec = table1_experiment(SMOKE_GRID, ALGOS)
        path = str(tmp_path / "ck.jsonl")
        fresh = spec.run(workers=1, checkpoint=path)
        resumed = spec.run(workers=1, checkpoint=path, resume=True)
        assert resumed.success_rates == fresh.success_rates
        assert resumed.average_yields == fresh.average_yields


class TestTaskKey:
    def test_key_separates_algorithm_sets(self):
        cfg = next(iter(SMOKE_GRID.configs()))
        assert task_key(cfg, ("A",)) != task_key(cfg, ("A", "B"))
        assert task_key(cfg, ("A", "B")) != task_key(cfg, ("B", "A"))

    def test_key_separates_coordinates(self):
        configs = list(SMOKE_GRID.configs())
        keys = {task_key(c, ALGOS) for c in configs}
        assert len(keys) == len(configs)
