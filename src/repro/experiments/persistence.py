"""Persistence of experiment results: one JSONL store, two record codecs.

Every experiment checkpoint is a JSON-lines file with one *record* per
completed task.  A *record codec* turns one task's result into a record
and back; there are two:

* :data:`TASK_RECORDS` — grid task records (``{"v": 1, "config": ...,
  "results": ...}``), one :class:`~.runner.TaskResult` each, keyed by
  :func:`task_key`.
* :class:`PayloadRecords` — keyed payload records (``{"v": 1, "kind":
  ..., "key": ..., "payload": ...}``), one per task of a payload spec
  (error figure, strategy ranking, failure sweep), keyed by ``key``.

:class:`CheckpointStore` is the one resume-and-append store for both.  A
store owns only its codec's records, so several experiments (and other
tools' kind-tagged records, such as the service journal's) can share one
file.  Every record's identity is :func:`record_key`: its kind plus the
canonical JSON of its task key.  One rule decides between records with
the same identity: within a file the *last* record is current, and across
several files the *first file listed* wins.  Resume, ``collect``,
:func:`compact_checkpoint` and :func:`merge_checkpoints` all read
through one reader, :func:`_read_records`, and apply that rule.  Readers
skip a partial final line — the signature of a run killed mid-write; the
interrupted task simply reruns.  Only a store opened for appending
repairs such a tail in place.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import (IO, Any, Callable, Iterable, Mapping, Optional,
                    Protocol, Sequence)

from .. import obs
from ..workloads import (
    ScenarioConfig,
    workload_from_json,
    workload_id,
    workload_to_json,
)
from .runner import AlgorithmResult, TaskResult

__all__ = [
    "FORMAT_VERSION",
    "TASK_RECORDS",
    "CheckpointStore",
    "CompactStats",
    "PayloadRecords",
    "RecordCodec",
    "as_result_store",
    "canonical_key",
    "compact_checkpoint",
    "durable_append",
    "load_results",
    "merge_checkpoints",
    "open_append",
    "read_completed",
    "record_key",
    "recover_records",
    "scenario_key",
    "task_from_dict",
    "task_key",
    "task_to_dict",
]

FORMAT_VERSION = 1

#: One parsed JSONL line.
Record = dict[str, Any]

_CONFIG_FIELDS = ("hosts", "services", "cov", "slack", "cpu_homogeneous",
                  "mem_homogeneous", "seed", "instance_index")


def scenario_key(config: ScenarioConfig) -> tuple[Any, ...]:
    """The grid coordinates identifying one scenario cell.

    The workload model's canonical id is part of the key, so a checkpoint
    written under one model can never silently answer a resume under
    another — the mismatched key simply isn't found and the task reruns.
    Records predating the registry carry no workload entry and load as the
    default Google model, whose id they always were.
    """
    return tuple(getattr(config, f) for f in _CONFIG_FIELDS) \
        + (workload_id(config.model),)


def task_key(config: ScenarioConfig,
             algorithms: Sequence[str]) -> tuple[Any, ...]:
    """Checkpoint identity of one task: scenario cell + algorithm set.

    Including the algorithm tuple keeps a Table-1 checkpoint (5 algorithms)
    from answering a Table-2 resume (4 algorithms) with the wrong result
    shape.
    """
    return scenario_key(config) + (tuple(algorithms),)


def canonical_key(key: object) -> str:
    """The canonical JSON text of a task key.  Shards hash it, and
    checkpoint indexes are keyed by it, so tuples and lists are
    interchangeable."""
    return json.dumps(key, sort_keys=True)


def task_to_dict(task: TaskResult) -> Record:
    cfg = task.config
    config = {f: getattr(cfg, f) for f in _CONFIG_FIELDS}
    config["workload"] = workload_to_json(cfg.model)
    return {
        "v": FORMAT_VERSION,
        "config": config,
        "results": [
            {"algorithm": r.algorithm, "min_yield": r.min_yield,
             "seconds": r.seconds}
            for r in task.results
        ],
    }


def task_from_dict(data: Record) -> TaskResult:
    if data.get("v") != FORMAT_VERSION:
        raise ValueError(f"unsupported results format version: {data.get('v')!r}")
    fields = dict(data["config"])
    model = workload_from_json(fields.pop("workload", None))
    cfg = ScenarioConfig(model=model, **fields)
    results = tuple(
        AlgorithmResult(r["algorithm"], r["min_yield"], r["seconds"])
        for r in data["results"]
    )
    return TaskResult(cfg, results)


class RecordCodec(Protocol):
    """Turns one task's result into a JSONL record and back.

    ``kind`` names the records for ``repro compact --kinds``; ``owns``
    tells this codec's records from others sharing a file.
    """

    @property
    def kind(self) -> str: ...

    def owns(self, rec: Record) -> bool: ...

    def read(self, rec: Record) -> tuple[object, Any]:
        """The record's task key and the result it holds."""
        ...

    def write(self, key: object, value: Any) -> Record: ...


class _TaskRecords:
    """Codec of grid task records, keyed by :func:`task_key`."""

    kind = "task"

    def owns(self, rec: Record) -> bool:
        return "kind" not in rec

    def read(self, rec: Record) -> tuple[object, TaskResult]:
        task = task_from_dict(rec)
        algorithms = tuple(r.algorithm for r in task.results)
        return task_key(task.config, algorithms), task

    def write(self, key: object, value: TaskResult) -> Record:
        return task_to_dict(value)


TASK_RECORDS = _TaskRecords()


def _same(value: Any) -> Any:
    return value


def _payload(key: Any, payload: Any) -> Any:
    return payload


@dataclass(frozen=True)
class PayloadRecords:
    """Codec of keyed payload records of one *kind*.

    ``encode`` turns a worker's result into its JSON payload, and
    ``decode(key, payload)`` turns it back (*key* is the record's JSON
    task key).  Both default to the identity.
    """

    kind: str
    encode: Callable[[Any], Any] = _same
    decode: Callable[[Any, Any], Any] = _payload

    def owns(self, rec: Record) -> bool:
        return rec.get("kind") == self.kind

    def read(self, rec: Record) -> tuple[object, Any]:
        if rec.get("v") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version: {rec.get('v')!r}")
        return rec["key"], self.decode(rec["key"], rec["payload"])

    def write(self, key: object, value: Any) -> Record:
        return {"v": FORMAT_VERSION, "kind": self.kind, "key": key,
                "payload": self.encode(value)}


def record_key(rec: Record) -> Optional[tuple[str, str]]:
    """The identity of *rec*: its kind (``"task"`` for task records) and
    the canonical JSON of its task key.

    ``None`` for a kind-tagged record without a key, which belongs to
    some other tool (a service journal event, say); such records are
    kept verbatim and never deduplicated.
    """
    if TASK_RECORDS.owns(rec):
        return (TASK_RECORDS.kind, canonical_key(TASK_RECORDS.read(rec)[0]))
    if "key" not in rec:
        return None
    return (rec["kind"], canonical_key(rec["key"]))


def _open_append(path: str) -> IO[str]:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "a")


def _durable_append(fh: IO[str], line: str) -> None:
    """One checkpoint line: write + flush + fsync, traced when obs is on.

    The fsync dominates checkpoint latency (device-dependent, easily
    milliseconds); the ``checkpoint.write`` span makes that cost visible
    in sweep traces instead of silently inflating per-task time.
    """
    if not obs.enabled():
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
        return
    with obs.span("checkpoint.write") as sp:
        sp.annotate(bytes=len(line))
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())


def _read_records(path: str, repair: bool = False) -> list[Record]:
    """Parse every record in *path*, skipping a partial final line.

    A run killed mid-append leaves either a partial final line or a final
    record missing its newline.  Readers skip the partial line (that task
    simply reruns).  With *repair* — for a store about to append — the
    tail is also fixed in place: the partial line is truncated away and a
    missing final newline restored, so the next append cannot glue onto
    it.  Garbage anywhere else raises: the file is not one of ours.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    records: list[Record] = []
    good_end = 0
    offset = 0
    for line in raw.splitlines(keepends=True):
        offset += len(line)
        stripped = line.strip()
        if stripped:
            try:
                records.append(json.loads(stripped))
            except json.JSONDecodeError as exc:
                if offset >= len(raw):  # partial final line
                    break
                lineno = raw[:offset].count(b"\n")
                raise ValueError(
                    f"{path}:{lineno}: not a results/checkpoint record "
                    f"({exc})") from exc
        good_end = offset
    if repair and good_end < len(raw):
        with open(path, "r+b") as fh:
            fh.truncate(good_end)
    elif repair and raw and not raw.endswith(b"\n"):
        with open(path, "ab") as fh:
            fh.write(b"\n")
    return records


def recover_records(path: str) -> list[Record]:
    """Read *path* for appending: :func:`_read_records` with tail repair."""
    return _read_records(path, repair=True)


# The append-only JSONL discipline — durable line writes plus tail repair
# on reopen — is not checkpoint-specific; the service event journal
# (``repro.service.journal``) builds on the same primitives.
open_append = _open_append
durable_append = _durable_append


def _write_records_atomic(out_path: str, records: Iterable[Record]) -> None:
    """Write *records* as JSONL via a temp file + fsync + rename, so a
    crash mid-rewrite never leaves a half-written checkpoint."""
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = out_path + ".rewrite-tmp"
    with open(tmp, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, out_path)


def _index(records: Iterable[Record], codec: RecordCodec) -> dict[str, Any]:
    """*codec*'s results in *records* by canonical task key; the last
    record for a key is current."""
    completed: dict[str, Any] = {}
    for rec in records:
        if codec.owns(rec):
            key, value = codec.read(rec)
            completed[canonical_key(key)] = value
    return completed


def read_completed(paths: Sequence[str],
                   codec: RecordCodec) -> dict[str, Any]:
    """*codec*'s results across checkpoint files, by canonical task key,
    without writing any of them: within a file the last record for a key
    is current, and across files the first file listed wins."""
    found: dict[str, Any] = {}
    for path in paths:
        for key, value in _index(_read_records(path), codec).items():
            found.setdefault(key, value)
    return found


def load_results(path: str) -> list[TaskResult]:
    """Load every task record in *path* (other records are skipped).

    A partial final line — the signature of a run killed mid-append — is
    ignored, so checkpoints from dead machines merge without repair.
    """
    return [task_from_dict(rec) for rec in _read_records(path)
            if TASK_RECORDS.owns(rec)]


class CheckpointStore:
    """Append-only JSONL checkpoint of one codec's records.

    Each completed task is written, flushed and fsynced immediately, so a
    killed run loses at most the tasks still in flight.  With
    ``resume=True`` the file's records of this codec are indexed first
    (after repairing a crash-damaged tail); ``resume=False`` drops them
    while keeping every other record sharing the file.  Appended results
    are counted but not retained, keeping checkpointed sweeps as
    memory-flat as unchecked ones; ``completed`` holds just the results
    indexed at construction.
    """

    def __init__(self, path: str, codec: RecordCodec,
                 resume: bool = False):
        self.path = path
        self.codec = codec
        self._completed: dict[str, Any] = {}
        self._appended = 0
        if resume and os.path.exists(path):
            self._completed = _index(recover_records(path), codec)
        elif not resume and os.path.exists(path):
            kept = [rec for rec in _read_records(path)
                    if not codec.owns(rec)]
            if kept:
                _write_records_atomic(path, kept)
            else:
                os.remove(path)
        self._fh: Optional[IO[str]] = None

    @property
    def completed(self) -> Mapping[str, Any]:
        """Results on disk at construction, by canonical task key."""
        return self._completed

    def __len__(self) -> int:
        return len(self._completed) + self._appended

    def append(self, key: object, value: Any) -> None:
        if self._fh is None:
            self._fh = _open_append(self.path)
        _durable_append(self._fh,
                        json.dumps(self.codec.write(key, value)) + "\n")
        self._appended += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def as_result_store(checkpoint: "str | CheckpointStore | None",
                    resume: bool = False,
                    codec: RecordCodec = TASK_RECORDS
                    ) -> Optional[CheckpointStore]:
    """Normalize a checkpoint argument: paths are opened as a store of
    *codec* (dropping its old records unless *resume*), stores pass
    through, ``None`` stays ``None``.

    Drivers that run several grids against one checkpoint file open the
    store once with this and hand the *store* down, so the truncation
    decision happens exactly once.
    """
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint, codec, resume=resume)


class CompactStats:
    """Outcome of :func:`compact_checkpoint` and :func:`merge_checkpoints`."""

    def __init__(self, kept: int, superseded: int, foreign: int):
        self.kept = kept
        self.superseded = superseded
        self.foreign = foreign

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompactStats(kept={self.kept}, "
                f"superseded={self.superseded}, foreign={self.foreign})")


def _current(records: Sequence[Record],
             first: int = 0) -> dict[object, Record]:
    """The current record per identity — the last one, at the position
    where its identity first appears.  A record without an identity is
    keyed by its ordinal (counted from *first*), so each one survives."""
    current: dict[object, Record] = {}
    for ordinal, rec in enumerate(records, start=first):
        identity = record_key(rec)
        current[ordinal if identity is None else identity] = rec
    return current


def compact_checkpoint(path: str, output: Optional[str] = None,
                       kinds: Optional[Sequence[str]] = None) -> CompactStats:
    """Garbage-collect a JSONL checkpoint.

    Resumed-over-resumed (or crash-repaired) files accumulate superseded
    records: several lines with the same :func:`record_key`, of which
    only the *last* is current.  This rewrite keeps exactly the current
    record per identity, in first-appearance order, dropping a partial
    final line as the readers do.  With *kinds* given, records of any
    other kind — "foreign" entries sharing the file — are dropped as well
    (task records compact under the pseudo-kind ``"task"``).

    The rewrite is atomic (temp file + rename).  *output* redirects it;
    default is in place.  Returns :class:`CompactStats`.
    """
    records = _read_records(path)
    mine = [rec for rec in records
            if kinds is None or rec.get("kind", TASK_RECORDS.kind) in kinds]
    survivors = _current(mine)
    _write_records_atomic(output or path, survivors.values())
    return CompactStats(len(survivors), len(mine) - len(survivors),
                        len(records) - len(mine))


def merge_checkpoints(paths: Sequence[str], output: str) -> CompactStats:
    """Combine shard checkpoints into one de-duplicated file.

    Within each file the last record per identity is current, as in
    :func:`compact_checkpoint`; across files the first file listed wins,
    so layering a re-run over older shards keeps the fresh values by
    listing the re-run first.  Records of every kind merge, a partial
    final line in any shard is skipped, and no source is written.  The
    merged file is written atomically and stays loadable by every
    resume/collect path, so it doubles as a combined result file.
    """
    survivors: dict[object, Record] = {}
    total = 0
    for path in paths:
        records = _read_records(path)
        for identity, rec in _current(records, first=total).items():
            survivors.setdefault(identity, rec)
        total += len(records)
    _write_records_atomic(output, survivors.values())
    return CompactStats(kept=len(survivors),
                        superseded=total - len(survivors), foreign=0)
