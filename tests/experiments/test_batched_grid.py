"""Batched grid dispatch ≡ sequential: results, checkpoint rows, resume.

``run_grid(batch=N)`` groups tasks into kernel batches per worker
dispatch.  The contract: everything observable except wall-clock is
unchanged — results, checkpoint rows (modulo the timed ``seconds``
field) and resume behavior.
"""

import json

import pytest

from repro.experiments.runner import run_grid
from repro.workloads import ScenarioConfig

ALGOS = ("RRNZ", "METAVP", "METAGREEDY")

CONFIGS = [ScenarioConfig(hosts=8, services=16, cov=0.5, slack=s,
                          seed=13, instance_index=i)
           for s in (0.3, 0.6) for i in range(3)]


def _rows_without_seconds(path):
    rows = []
    for line in open(path):
        row = json.loads(line)
        for r in row.get("results", []):
            r.pop("seconds", None)
        rows.append(row)
    return rows


def _yields(results):
    return [[(r.algorithm, r.min_yield) for r in task.results]
            for task in results]


class TestBatchedRunEquivalence:
    @pytest.mark.parametrize("batch", [2, 4, 100])
    def test_results_and_checkpoint_rows_match(self, tmp_path, batch):
        p_seq = str(tmp_path / "seq.jsonl")
        p_bat = str(tmp_path / "bat.jsonl")
        seq = run_grid(CONFIGS, ALGOS, workers=1, checkpoint=p_seq)
        bat = run_grid(CONFIGS, ALGOS, workers=1, checkpoint=p_bat,
                       batch=batch)
        assert _yields(seq) == _yields(bat)
        assert [t.config for t in seq] == [t.config for t in bat]
        assert _rows_without_seconds(p_seq) == _rows_without_seconds(p_bat)

    def test_resume_across_batch_modes(self, tmp_path):
        """A checkpoint from a batched run resumes a sequential one and
        vice versa — cache keys don't know about batching."""
        p = str(tmp_path / "ck.jsonl")
        bat = run_grid(CONFIGS, ALGOS, workers=1, checkpoint=p, batch=3)
        resumed = run_grid(CONFIGS, ALGOS, workers=1, checkpoint=p,
                           resume=True)
        assert _yields(resumed) == _yields(bat)
        # Partial sequential checkpoint, finished by a batched run.
        p2 = str(tmp_path / "partial.jsonl")
        run_grid(CONFIGS[:2], ALGOS, workers=1, checkpoint=p2)
        finished = run_grid(CONFIGS, ALGOS, workers=1, checkpoint=p2,
                            resume=True, batch=4)
        assert _yields(finished) == _yields(bat)

