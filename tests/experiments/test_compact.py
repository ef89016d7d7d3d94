"""Tests for ``repro compact`` — JSONL checkpoint garbage collection.

A compacted checkpoint must be indistinguishable from the original to
every consumer: ``load_results``/``read_completed`` see the same task set,
a resumed ``CheckpointStore`` of either codec sees the same completed
map, and the file shrinks by exactly the superseded/foreign records.
"""

import dataclasses
import json

from repro.cli import main
from repro.experiments import (SMOKE_GRID, ErrorFigureSpec,
                               error_figure_experiment, run_grid,
                               table2_experiment)
from repro.experiments.persistence import (
    TASK_RECORDS,
    CheckpointStore,
    PayloadRecords,
    compact_checkpoint,
    load_results,
    merge_checkpoints,
    read_completed,
)

from .conftest import append_tasks

ALGOS = ("METAGREEDY",)
OTHER = PayloadRecords("other-sweep")


def _write_duplicated(tmp_path, dupes=2):
    """A checkpoint holding every task `dupes + 1` times plus two
    checkpoint-kind records (one of them superseded)."""
    results = run_grid(SMOKE_GRID.configs(), ALGOS, workers=1)
    path = str(tmp_path / "ck.jsonl")
    for _ in range(dupes + 1):
        append_tasks(path, results)
    with CheckpointStore(path, OTHER) as ck:
        ck.append(["fp", 0], {"value": 1})
        ck.append(["fp", 0], {"value": 2})  # supersedes the first
        ck.append(["fp", 1], {"value": 3})
    return path, results


class TestCompact:
    def test_roundtrip_against_read_completed(self, tmp_path):
        path, results = _write_duplicated(tmp_path)
        before = read_completed([path], TASK_RECORDS)
        stats = compact_checkpoint(path)
        after = read_completed([path], TASK_RECORDS)
        assert list(after.items()) == list(before.items())
        assert len(load_results(path)) == len(results)
        assert stats.superseded == 2 * len(results) + 1
        assert stats.foreign == 0

    def test_resume_view_unchanged(self, tmp_path):
        path, _ = _write_duplicated(tmp_path)
        before_tasks = CheckpointStore(path, TASK_RECORDS,
                                       resume=True).completed
        before_ck = CheckpointStore(path, OTHER, resume=True).completed
        compact_checkpoint(path)
        after_tasks = CheckpointStore(path, TASK_RECORDS,
                                      resume=True).completed
        after_ck = CheckpointStore(path, OTHER, resume=True).completed
        assert set(after_tasks) == set(before_tasks)
        assert after_ck == before_ck

    def test_kinds_filter_drops_foreign(self, tmp_path):
        path, results = _write_duplicated(tmp_path)
        stats = compact_checkpoint(path, kinds=["task"])
        assert stats.foreign == 3  # all other-sweep records dropped
        assert stats.kept == len(results)
        assert CheckpointStore(path, OTHER, resume=True).completed == {}
        assert len(load_results(path)) == len(results)

    def test_output_path_leaves_original_untouched(self, tmp_path):
        path, results = _write_duplicated(tmp_path)
        out = str(tmp_path / "compacted.jsonl")
        before = open(path).read()
        compact_checkpoint(path, output=out)
        assert open(path).read() == before
        assert len(load_results(out)) == len(results)

    def test_partial_final_line_dropped(self, tmp_path):
        path, results = _write_duplicated(tmp_path, dupes=0)
        with open(path, "a") as fh:
            fh.write('{"v": 1, "config": {"trunc')
        stats = compact_checkpoint(path)
        # 3 checkpoint-kind records dedupe to 2; the partial line is gone.
        assert stats.kept == len(results) + 2
        assert stats.superseded == 1
        # The rewritten file is fully parseable again.
        for line in open(path):
            json.loads(line)

    def test_cli_command(self, tmp_path, capsys):
        path, results = _write_duplicated(tmp_path)
        assert main(["compact", path]) == 0
        out = capsys.readouterr().out
        assert "superseded" in out
        assert len(load_results(path)) == len(results)

    def test_unrecognized_kind_records_preserved_verbatim(self, tmp_path):
        """A kind-tagged record without a ``key`` belongs to some other
        tool: compaction must keep it as-is, never crash or dedupe it."""
        path, results = _write_duplicated(tmp_path, dupes=0)
        alien = {"kind": "alien-tool", "data": 1}
        with open(path, "a") as fh:
            fh.write(json.dumps(alien) + "\n")
            fh.write(json.dumps(alien) + "\n")  # not ours: no dedup
        stats = compact_checkpoint(path)
        kept = [json.loads(line) for line in open(path)]
        assert kept.count(alien) == 2
        assert stats.kept == len(results) + 2 + 2
        # But the kinds filter can drop them.
        stats = compact_checkpoint(path, kinds=["task"])
        assert stats.foreign == 4  # 2 alien + 2 other-sweep


class TestLastRecordIsCurrent:
    """Within one file the last record for a task is current, for every
    reader: compaction keeps exactly that record, so it changes neither
    what ``collect`` renders nor what ``merge_checkpoints`` writes."""

    @staticmethod
    def assert_compaction_invisible(spec, path, tmp_path):
        before = str(tmp_path / "merged-before.jsonl")
        merge_checkpoints([path], before)
        rendered = spec.render(spec.collect([path]))
        compact_checkpoint(path)
        after = str(tmp_path / "merged-after.jsonl")
        merge_checkpoints([path], after)
        assert spec.render(spec.collect([path])) == rendered
        with open(before) as fh_before, open(after) as fh_after:
            assert fh_after.read() == fh_before.read()
        return rendered

    def test_grid_rerun_appended(self, tmp_path):
        """A Table 2 checkpoint holding a run and an appended re-run of
        the same tasks renders the re-run's times."""
        spec = table2_experiment(SMOKE_GRID, ("METAGREEDY", "METAVP"))
        path = str(tmp_path / "t2.jsonl")
        spec.run(workers=1, checkpoint=path)
        rerun = [dataclasses.replace(t, results=tuple(
            dataclasses.replace(r, seconds=r.seconds + 1.0)
            for r in t.results)) for t in load_results(path)]
        append_tasks(path, rerun)
        only_rerun = str(tmp_path / "rerun.jsonl")
        append_tasks(only_rerun, rerun)
        rendered = self.assert_compaction_invisible(spec, path, tmp_path)
        assert rendered == spec.render(spec.collect([only_rerun]))

    def test_payload_superseded(self, tmp_path):
        spec = error_figure_experiment(ErrorFigureSpec(
            hosts=8, services=16, instances=2, error_values=(0.0, 0.1),
            thresholds=(0.0,), placer="METAGREEDY", seed=5))
        path = str(tmp_path / "err.jsonl")
        spec.run(workers=1, checkpoint=path)
        with open(path) as fh:
            record = json.loads(fh.readline())
        for _, curve in record["payload"]["series"]:
            for point in curve:
                point[1] /= 2  # a re-run that certified different yields
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.assert_compaction_invisible(spec, path, tmp_path)
