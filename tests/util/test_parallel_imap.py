"""Tests for the streaming pool primitives: parallel_imap, the cached
variant, and TaskError failure context."""

import json

import pytest

from repro import obs
from repro.util import parallel
from repro.util.parallel import (
    TaskError,
    default_workers,
    parallel_imap,
    parallel_imap_cached,
)


def _square(x: int) -> int:
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom")
    return x


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool the stream opens."""
    sizes = []
    real = parallel.ProcessPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", recording)
    return sizes


class TestParallelImap:
    def test_serial_order(self):
        assert list(parallel_imap(_square, range(10), workers=1)) == \
            [i * i for i in range(10)]

    def test_parallel_order(self):
        assert list(parallel_imap(_square, range(20), workers=3)) == \
            [i * i for i in range(20)]

    def test_empty(self):
        assert list(parallel_imap(_square, [], workers=4)) == []

    def test_accepts_lazy_iterable(self):
        gen = (i for i in range(8))
        assert list(parallel_imap(_square, gen, workers=2)) == \
            [i * i for i in range(8)]

    def test_window_bounds_pull_ahead(self):
        """The serial path must pull tasks strictly lazily, and the pool
        path must never pull more than window+1 tasks ahead."""
        pulled = []

        def tracking():
            for i in range(100):
                pulled.append(i)
                yield i

        stream = parallel_imap(_square, tracking(), workers=1)
        assert pulled == []
        assert next(stream) == 0
        assert len(pulled) == 1  # strictly lazy when serial
        stream.close()

        pulled.clear()
        stream = parallel_imap(_square, tracking(), workers=2, window=4)
        assert next(stream) == 0
        # 4 submitted up front + at most one top-up per yielded result.
        assert len(pulled) <= 5
        stream.close()

    def test_early_close_stops_consumption(self):
        pulled = []

        def tracking():
            for i in range(1000):
                pulled.append(i)
                yield i

        stream = parallel_imap(_square, tracking(), workers=2, window=2)
        next(stream)
        stream.close()
        assert len(pulled) < 10  # nowhere near the full input

    def test_parallel_matches_serial(self):
        tasks = list(range(17))
        assert list(parallel_imap(_square, tasks, workers=4)) == \
            list(parallel_imap(_square, tasks, workers=1))


class TestTaskError:
    def test_serial_failure_context(self):
        with pytest.raises(TaskError) as exc_info:
            list(parallel_imap(_fail_on_three, range(10), workers=1))
        err = exc_info.value
        assert err.index == 3
        assert "3" in err.task_summary
        assert "ValueError: boom" in str(err)

    def test_parallel_failure_context(self):
        with pytest.raises(TaskError) as exc_info:
            list(parallel_imap(_fail_on_three, range(10), workers=2))
        assert exc_info.value.index == 3

    def test_original_exception_chained_when_serial(self):
        with pytest.raises(TaskError) as exc_info:
            list(parallel_imap(_fail_on_three, [3], workers=1))
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_long_task_repr_truncated(self):
        with pytest.raises(TaskError) as exc_info:  # str * str: TypeError
            list(parallel_imap(_square, ["x" * 500], workers=1))
        assert len(exc_info.value.task_summary) == 200


class TestParallelImapCached:
    def test_all_misses(self):
        out = list(parallel_imap_cached(_square, range(5), {}, key=lambda t: t,
                                        workers=1))
        assert out == [i * i for i in range(5)]

    def test_all_hits_skip_computation(self):
        cache = {i: -i for i in range(5)}  # wrong on purpose: must be used
        out = list(parallel_imap_cached(
            _fail_on_three, range(5), cache, key=lambda t: t, workers=1))
        assert out == [0, -1, -2, -3, -4]

    def test_mixed_order_preserved(self):
        cache = {1: 100, 3: 300}
        out = list(parallel_imap_cached(_square, range(5), cache,
                                        key=lambda t: t, workers=1))
        assert out == [0, 100, 4, 300, 16]

    def test_mixed_order_preserved_parallel(self):
        cache = {i: i * i for i in range(0, 40, 2)}
        out = list(parallel_imap_cached(_square, range(40), cache,
                                        key=lambda t: t, workers=3))
        assert out == [i * i for i in range(40)]

    def test_resume_pool_sized_to_misses(self, pool_sizes):
        """A resume with one task left to compute starts one worker."""
        cache = {i: i * i for i in range(10) if i != 4}
        out = list(parallel_imap_cached(_square, range(10), cache,
                                        key=lambda t: t, workers=4))
        assert out == [i * i for i in range(10)]
        assert pool_sizes == [1]

    def test_none_is_a_valid_cached_value(self):
        cache = {2: None}
        out = list(parallel_imap_cached(_square, range(4), cache,
                                        key=lambda t: t, workers=1))
        assert out == [0, 1, None, 9]

    def test_on_computed_sees_only_misses(self):
        cache = {0: 0, 2: 4}
        seen = []
        list(parallel_imap_cached(
            _square, range(5), cache, key=lambda t: t, workers=1,
            on_computed=lambda k, v: seen.append((k, v))))
        assert seen == [(1, 1), (3, 9), (4, 16)]

    def test_trailing_hits_after_last_miss(self):
        cache = {3: 9, 4: 16}
        out = list(parallel_imap_cached(_square, range(5), cache,
                                        key=lambda t: t, workers=1))
        assert out == [0, 1, 4, 9, 16]

    def test_progress_reports_cached_flag(self):
        cache = {0: 0, 2: 4}
        events = []
        list(parallel_imap_cached(
            _square, range(4), cache, key=lambda t: t, workers=1,
            progress=lambda value, cached: events.append((value, cached))))
        assert events == [(0, True), (1, False), (4, True), (9, False)]

    def test_task_error_index_counts_cache_hits(self):
        """A failure on a resumed sweep must name the task's position in
        the original sequence, not its rank among the misses."""
        cache = {0: 0, 1: 1, 2: 2}
        with pytest.raises(TaskError) as exc_info:
            list(parallel_imap_cached(_fail_on_three, range(5), cache,
                                      key=lambda t: t, workers=1))
        assert exc_info.value.index == 3


class TestWorkersAndWindow:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert default_workers() == 5

    def test_env_zero_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_env_negative_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        assert default_workers() == 1

    def test_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert default_workers() >= 1

    def test_env_empty_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert default_workers() >= 1

    def test_window_smaller_than_workers(self):
        assert list(parallel_imap(_square, range(6), workers=4, window=1)) == \
            [i * i for i in range(6)]

    def test_window_larger_than_tasks(self):
        assert list(parallel_imap(_square, range(4), workers=2,
                                  window=100)) == [0, 1, 4, 9]

    def test_more_workers_than_tasks(self):
        assert list(parallel_imap(_square, [7], workers=16)) == [49]

    @pytest.mark.parametrize("tasks, workers, window, pool", [
        (1, 16, None, 1),  # one task never starts a second process
        (3, 4, None, 3),
        (10, 2, None, 2),  # a long stream keeps every worker busy
        (10, 4, 2, 2),  # no more processes than tasks in flight
    ])
    def test_pool_sized_to_the_stream(self, pool_sizes, tasks, workers,
                                      window, pool):
        assert list(parallel_imap(_square, range(tasks), workers=workers,
                                  window=window)) == \
            [i * i for i in range(tasks)]
        assert pool_sizes == [pool]

    def test_sweep_event_reports_the_pool(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        obs.configure(str(sink))
        try:
            assert list(parallel_imap(_square, range(3), workers=8)) == \
                [0, 1, 4]
        finally:
            obs.disable()
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        (sweep,) = [r for r in records if r["name"] == "parallel.sweep"]
        assert sweep["tags"]["tasks"] == 3
        assert sweep["tags"]["workers"] == 3
        assert sweep["tags"]["window"] == 32
