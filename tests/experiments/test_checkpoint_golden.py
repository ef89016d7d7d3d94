"""The checkpoint format on disk is pinned by a file from an older build.

``golden/checkpoint_v1.jsonl`` was written by the build that still had
separate grid and payload stores.  It holds, in order: SMOKE_GRID task
records for two algorithm sets (through one shared store), two
``error-figure`` payloads, a ``service-event`` journal record, two
``failure-sweep`` payloads plus a later record that supersedes the first,
and a line torn mid-append.  ``checkpoint_v1.expected.json`` holds what
that build read from it — each codec's resume view, ``load_results`` and
the collected renders — and ``checkpoint_v1.compact.jsonl`` is what its
``compact_checkpoint`` wrote.  Every consumer here must read and write
exactly the same.
"""

import json
import os
import shutil

import pytest

from repro.experiments import (SMOKE_GRID, ErrorFigureSpec,
                               error_figure_experiment, table1_experiment,
                               table2_experiment)
from repro.experiments.failure_sweep import (FailureSweepSpec,
                                             failure_sweep_experiment)
from repro.experiments.persistence import (TASK_RECORDS, CheckpointStore,
                                           PayloadRecords,
                                           compact_checkpoint, load_results,
                                           task_to_dict)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CHECKPOINT = os.path.join(GOLDEN, "checkpoint_v1.jsonl")

ALGOS_A = ("METAGREEDY",)
ALGOS_B = ("METAGREEDY", "METAVP")
ERR = ErrorFigureSpec(hosts=8, services=16, instances=2,
                      error_values=(0.0, 0.1), thresholds=(0.0,),
                      placer="METAGREEDY", seed=5)
SWEEP = FailureSweepSpec(hosts=4, horizon=6, failure_rates=(0.0, 0.05),
                         sla_mixes=("mixed",), instances=1)

SPECS = {
    "table1-a": table1_experiment(SMOKE_GRID, ALGOS_A),
    "table1-b": table1_experiment(SMOKE_GRID, ALGOS_B),
    "table2-b": table2_experiment(SMOKE_GRID, ALGOS_B),
    "fig-error": error_figure_experiment(ERR),
    "failure-sweep": failure_sweep_experiment(SWEEP),
}


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(GOLDEN, "checkpoint_v1.expected.json")) as fh:
        return json.load(fh)


@pytest.fixture
def copy(tmp_path):
    """A scratch copy: a resumed store repairs the torn tail in place."""
    path = str(tmp_path / "ck.jsonl")
    shutil.copyfile(CHECKPOINT, path)
    return path


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_task_resume_view(copy, expected):
    completed = CheckpointStore(copy, TASK_RECORDS, resume=True).completed
    assert [[key, task_to_dict(task)] for key, task in completed.items()] \
        == expected["resume_tasks"]


@pytest.mark.parametrize("kind", ["error-figure", "failure-sweep"])
def test_payload_resume_view(copy, expected, kind):
    store = CheckpointStore(copy, PayloadRecords(kind), resume=True)
    assert dict(store.completed) == expected["resume_payloads"][kind]


def test_resume_repairs_only_the_torn_tail(copy):
    CheckpointStore(copy, TASK_RECORDS, resume=True)
    original = read_bytes(CHECKPOINT)
    assert read_bytes(copy) == original[:original.rindex(b"\n") + 1]


def test_load_results(expected):
    assert [task_to_dict(t) for t in load_results(CHECKPOINT)] \
        == expected["load_results"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_collected_render_leaves_the_file_alone(copy, expected, name):
    before = read_bytes(copy)
    spec = SPECS[name]
    assert spec.render(spec.collect([copy])) == expected["renders"][name]
    assert read_bytes(copy) == before


def test_compact_output_bytes(tmp_path, expected):
    out = str(tmp_path / "compact.jsonl")
    stats = compact_checkpoint(CHECKPOINT, output=out)
    assert read_bytes(out) == read_bytes(
        os.path.join(GOLDEN, "checkpoint_v1.compact.jsonl"))
    assert [stats.kept, stats.superseded, stats.foreign] \
        == expected["compact_stats"]
