"""Shard/merge tests: exact partition, merge ≡ unsharded, fingerprints.

The contract of the ExperimentSpec layer (``experiments/spec.py``):

* every spec's task list is deterministically ordered and every task is
  owned by exactly one of the ``n`` shards — the union of shards is an
  exact partition, for every ``n``;
* running each shard into its own checkpoint and ``collect``-ing the
  shard files reproduces the unsharded table/figure **byte-identically**
  (tasks are self-contained: hint chains never cross task boundaries);
* checkpoints written under one workload model are never reused by
  another (the satellite bugfix: the model id is part of every
  fingerprint).
"""

import dataclasses
import os

import pytest

from repro.experiments import (
    SMOKE_GRID,
    CovFigureSpec,
    ErrorFigureSpec,
    IncompleteResultsError,
    Shard,
    cov_figure_experiment,
    error_figure_experiment,
    merge_checkpoints,
    load_results,
    shard_index,
    table1_experiment,
    table2_experiment,
)
from repro.experiments import runner as runner_module
from repro.experiments.strategy_ranking import strategy_ranking_experiment
from repro.workloads import HeavyTailedWorkloadModel, ScenarioConfig

from .conftest import append_tasks

ALGOS = ("METAGREEDY", "METAVP")

TINY_COV = CovFigureSpec(hosts=8, services=16, slack=0.5, instances=2,
                         cov_values=(0.0, 0.5), competitors=("METAGREEDY",),
                         seed=5)
TINY_ERR = ErrorFigureSpec(hosts=8, services=16, instances=3,
                           error_values=(0.0, 0.1), thresholds=(0.0,),
                           placer="METAGREEDY", seed=5)
RANK_CONFIGS = (ScenarioConfig(hosts=4, services=8, cov=0.5, slack=0.5,
                               seed=7, instance_index=0),)


def all_specs():
    return [
        table1_experiment(SMOKE_GRID, ALGOS),
        table2_experiment(SMOKE_GRID, ALGOS),
        cov_figure_experiment(TINY_COV),
        error_figure_experiment(TINY_ERR),
        strategy_ranking_experiment(RANK_CONFIGS),
    ]


class TestPartitionProperty:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_shards_partition_every_spec(self, n):
        """Union of the n shards == the task list, pairwise disjoint."""
        for spec in all_specs():
            keys = list(spec.task_keys())
            assert len(keys) == spec.task_count()
            owners = [[k for k in keys if Shard(i, n).owns(k)]
                      for i in range(n)]
            assert sum(len(o) for o in owners) == len(keys)
            merged = [k for o in owners for k in o]
            # exact cover: every key in exactly one shard
            canon = [str(k) for k in merged]
            assert sorted(canon) == sorted(str(k) for k in keys)

    def test_shard_assignment_is_stable(self):
        """sha1-based, so identical on every machine and process."""
        spec = table1_experiment(SMOKE_GRID, ALGOS)
        assignment = [shard_index(k, 3) for k in spec.task_keys()]
        assert assignment == [shard_index(k, 3) for k in spec.task_keys()]

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            Shard(2, 2)
        with pytest.raises(ValueError):
            Shard(-1, 2)
        with pytest.raises(ValueError):
            Shard(0, 0)


def run_shards(spec, n, tmp_path, tag=""):
    """Run all n shards into per-shard checkpoints; return the paths."""
    paths = []
    for i in range(n):
        path = str(tmp_path / f"{tag}shard{i}of{n}.jsonl")
        spec.run_shard(Shard(i, n), workers=1, checkpoint=path)
        paths.append(path)
    return [p for p in paths if os.path.exists(p)]


class TestMergeByteIdentical:
    """collect() over any shard partition renders the unsharded output."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_table1(self, tmp_path, n):
        spec = table1_experiment(SMOKE_GRID, ALGOS)
        unsharded = spec.render(spec.run(workers=1))
        merged = spec.render(spec.collect(run_shards(spec, n, tmp_path)))
        assert merged == unsharded

    def test_fig_cov(self, tmp_path):
        spec = cov_figure_experiment(TINY_COV)
        unsharded = spec.render(spec.run(workers=1))
        merged = spec.render(spec.collect(run_shards(spec, 2, tmp_path)))
        assert merged == unsharded

    def test_fig_error(self, tmp_path):
        spec = error_figure_experiment(TINY_ERR)
        unsharded = spec.render(spec.run(workers=1))
        merged = spec.render(spec.collect(run_shards(spec, 2, tmp_path)))
        assert merged == unsharded

    def test_rank_strategies(self, tmp_path):
        spec = strategy_ranking_experiment(RANK_CONFIGS)
        unsharded = spec.render(spec.run(workers=1))
        merged = spec.render(spec.collect(run_shards(spec, 2, tmp_path)))
        assert merged == unsharded

    def test_table2_from_identical_records(self, tmp_path):
        """Table 2 reports wall-clock times, so two *runs* can't match
        byte-for-byte — but splitting one run's records into shard files
        and collecting them must reproduce that run's table exactly."""
        spec = table2_experiment(SMOKE_GRID, ALGOS)
        whole = str(tmp_path / "whole.jsonl")
        data = spec.run(workers=1, checkpoint=whole)
        keys = list(spec.task_keys())
        tasks = load_results(whole)
        assert len(tasks) == len(keys)
        paths = [str(tmp_path / f"s{i}.jsonl") for i in range(2)]
        for i, path in enumerate(paths):
            append_tasks(path, [t for t, k in zip(tasks, keys)
                                if shard_index(k, 2) == i])
        assert spec.render(spec.collect(paths)) == spec.render(data)

    def test_collect_rejects_incomplete(self, tmp_path):
        spec = table1_experiment(SMOKE_GRID, ALGOS)
        paths = run_shards(spec, 2, tmp_path)
        with pytest.raises(IncompleteResultsError, match="of 4 tasks"):
            spec.collect(paths[:1])
        spec2 = error_figure_experiment(TINY_ERR)
        paths2 = run_shards(spec2, 2, tmp_path, tag="err-")
        with pytest.raises(IncompleteResultsError):
            spec2.collect(paths2[:1])

    def test_golden_table1_smoke(self, tmp_path):
        """Sharded-and-merged SMOKE table 1 matches the committed golden
        rendering byte-for-byte."""
        spec = table1_experiment(SMOKE_GRID, ALGOS)
        merged = spec.render(spec.collect(run_shards(spec, 2, tmp_path)))
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "table1_smoke.txt")
        with open(golden) as fh:
            assert merged + "\n" == fh.read()


class TestMergeCheckpoints:
    def test_concatenates_and_dedupes(self, tmp_path):
        spec = table1_experiment(SMOKE_GRID, ALGOS)
        paths = run_shards(spec, 2, tmp_path)
        # overlap: shard 0's file also contains a stale copy of shard 1
        with open(paths[0], "a") as fh, open(paths[1]) as src:
            fh.write(src.read())
        out = str(tmp_path / "merged.jsonl")
        stats = merge_checkpoints(paths, out)
        assert stats.kept == 4
        assert stats.superseded == len(load_results(paths[1]))
        assert spec.render(spec.collect([out])) == \
            spec.render(spec.run(workers=1))

    def test_first_file_wins(self, tmp_path):
        spec = table1_experiment(SMOKE_GRID, ALGOS)
        paths = run_shards(spec, 1, tmp_path)
        fresh = load_results(paths[0])
        stale = [dataclasses.replace(
            t, results=tuple(dataclasses.replace(r, seconds=999.0)
                             for r in t.results)) for t in fresh]
        stale_path = str(tmp_path / "stale.jsonl")
        append_tasks(stale_path, stale)
        out = str(tmp_path / "m.jsonl")
        merge_checkpoints([paths[0], stale_path], out)
        assert all(r.seconds != 999.0
                   for t in load_results(out) for r in t.results)


class TestWorkloadFingerprints:
    """The satellite bugfix: a checkpoint written under one workload model
    is never reused by a resume under another."""

    def test_grid_resume_recomputes_other_model(self, tmp_path, monkeypatch):
        from repro.experiments.runner import iter_grid
        path = str(tmp_path / "ck.jsonl")
        list(iter_grid(SMOKE_GRID.configs(), ("METAGREEDY",), 1,
                       checkpoint=path))
        heavy = dataclasses.replace(SMOKE_GRID, workload="heavy-tailed")
        calls = []
        real = runner_module._run_task
        monkeypatch.setattr(runner_module, "_run_task",
                            lambda task: calls.append(task) or real(task))
        list(iter_grid(heavy.configs(), ("METAGREEDY",), 1,
                       checkpoint=path, resume=True))
        assert len(calls) == 4  # nothing answered from the google file
        # ... while the same model resumes fully from the checkpoint.
        calls.clear()
        list(iter_grid(SMOKE_GRID.configs(), ("METAGREEDY",), 1,
                       checkpoint=path, resume=True))
        assert calls == []

    def test_scenario_key_carries_model(self):
        from repro.experiments import scenario_key
        cfg = next(iter(SMOKE_GRID.configs()))
        other = dataclasses.replace(cfg, model=HeavyTailedWorkloadModel())
        assert scenario_key(cfg) != scenario_key(other)

    def test_task_records_round_trip_model(self, tmp_path):
        from repro.experiments.persistence import task_from_dict, task_to_dict
        from repro.experiments.runner import run_grid
        heavy = dataclasses.replace(SMOKE_GRID, workload="heavy-tailed")
        task = run_grid([next(iter(heavy.configs()))], ("METAGREEDY",), 1)[0]
        loaded = task_from_dict(task_to_dict(task))
        assert loaded.config == task.config
        assert isinstance(loaded.config.model, HeavyTailedWorkloadModel)

    def test_error_figure_fingerprint_varies_with_workload(self):
        from repro.experiments.spec import spec_fingerprint
        assert spec_fingerprint(TINY_ERR) != spec_fingerprint(
            dataclasses.replace(TINY_ERR, workload="heavy-tailed"))

    def test_ranking_fingerprint_varies(self):
        base = strategy_ranking_experiment(RANK_CONFIGS)
        other_model = strategy_ranking_experiment(
            tuple(dataclasses.replace(c, model=HeavyTailedWorkloadModel())
                  for c in RANK_CONFIGS))
        cold = strategy_ranking_experiment(RANK_CONFIGS, warm_start=False)
        assert next(base.task_keys()) != next(other_model.task_keys())
        assert next(base.task_keys()) != next(cold.task_keys())


class TestShardCli:
    def test_shard_merge_round_trip(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        for i in (0, 1):
            rc = main(["shard", "--index", str(i), "--of", "2", "--",
                       "--checkpoint", f"s{i}.jsonl", "--workers", "1",
                       "table1", "--instances", "1"])
            assert rc == 0
        shard_out = capsys.readouterr().out
        assert "of 30 tasks" in shard_out
        rc = main(["--workers", "1", "table1", "--instances", "1"])
        assert rc == 0
        unsharded = capsys.readouterr().out
        rc = main(["merge", "--from", "s0.jsonl", "--from", "s1.jsonl",
                   "--into", "merged.jsonl",
                   "table1", "--instances", "1"])
        assert rc == 0
        merged = capsys.readouterr().out
        assert merged.splitlines()[0].startswith("merged.jsonl: merged")
        assert "\n".join(merged.splitlines()[1:]).rstrip("\n") == \
            unsharded.rstrip("\n")
        assert os.path.exists("merged.jsonl")

    def test_shard_requires_checkpoint(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["shard", "--index", "0", "--of", "2", "table1"])
        assert "--checkpoint" in capsys.readouterr().err

    def test_shard_rejects_unshardable_command(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["shard", "--index", "0", "--of", "2", "--",
                  "--checkpoint", "x.jsonl", "dynamic"])
        assert "cannot be sharded" in capsys.readouterr().err

    def test_inner_global_options_validated(self, capsys):
        """The inner argv's global options get the same early validation
        as a direct invocation — no mid-run tracebacks."""
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["shard", "--index", "0", "--of", "2", "--",
                  "--checkpoint", "x.jsonl", "--workload", "bogus",
                  "table1"])
        assert "unknown workload" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["merge", "--from", "a.jsonl", "--",
                  "--resume", "table1"])
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_merge_incomplete_errors(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.chdir(tmp_path)
        rc = main(["shard", "--index", "0", "--of", "2", "--",
                   "--checkpoint", "s0.jsonl", "--workers", "1",
                   "table1", "--instances", "1"])
        assert rc == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["merge", "--from", "s0.jsonl", "table1",
                  "--instances", "1"])
        assert "shard checkpoints cover" in capsys.readouterr().err
