"""Tests for the shared utilities: RNG plumbing, timing, worker count."""

import numpy as np

from repro.util.parallel import default_workers
from repro.util.rng import as_generator, derive_seed
from repro.util.timing import timed_call


class TestRng:
    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(7)
        a = as_generator(ss).random()
        b = as_generator(np.random.SeedSequence(7)).random()
        assert a == b

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_derive_seed_stable_and_distinct(self):
        a = np.random.default_rng(derive_seed(1, 2, 3)).random()
        b = np.random.default_rng(derive_seed(1, 2, 3)).random()
        c = np.random.default_rng(derive_seed(1, 2, 4)).random()
        assert a == b
        assert a != c


class TestTiming:
    def test_timed_call(self):
        result, seconds = timed_call(lambda x: x * 2, 21)
        assert result == 42
        assert seconds >= 0.0


class TestDefaultWorkers:
    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert default_workers() >= 1
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1
