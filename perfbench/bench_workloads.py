"""The three in-process workloads: table1-quick, meta-paper, dynamic-churn.

A workload generates its inputs from the seed in :meth:`Workload.setup`
(with one untimed warm-up operation), then runs *rounds*: round ``r``
always gets the same inputs, and different rounds get different inputs,
so a run averages over many instances and a traced re-run of rounds
``0..k-1`` must reproduce the untraced outputs exactly.  A round
returns its work count, latency samples, quality figures and a digest
of its outputs.  :meth:`Workload.check` runs the workload's correctness
checks after the timed window.

Quality figures (``success_rate``, ``mean_min_yield``) come from the
first :attr:`Workload.min_rounds` rounds, which every run completes, so
they repeat exactly for a seed.

``scale="tiny"`` shrinks every input for the tests and the canary.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import time
from typing import Callable, Optional

from bench_common import BUILD_DIR, Calibrator, digest
from bench_trace import Tracer

#: Pre-generated input rounds; a longer run wraps around.
POOL_ROUNDS = 12
#: Base seed of fixed platforms (dynamic-churn's rounds).
PLATFORM_SEED = 2012


class Round:
    """What one round measured and produced.

    *samples* are ``(latency_ms, perf_counter at its end)`` pairs."""

    def __init__(self, units: int, samples: list[tuple[float, float]],
                 placed: int, attempted: int, yields: list[float],
                 outputs: Callable[[], object],
                 extra: Optional[dict] = None):
        self.units = units
        self.samples = samples
        self.placed = placed
        self.attempted = attempted
        self.yields = yields
        self._outputs = outputs
        self.extra = extra or {}
        self.wall_s = 0.0
        self.t0 = self.t1 = 0.0

    @functools.cached_property
    def outputs(self) -> object:
        """The round's outputs as JSON data, built after it was timed."""
        return self._outputs()

    @functools.cached_property
    def digest(self) -> str:
        return digest(self.outputs)


class Workload:
    name = ""
    #: Rounds every run completes; the quality figures cover exactly these.
    min_rounds = 1

    def __init__(self, seed: int, scale: str = "full",
                 tracer: Optional[Tracer] = None):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        #: Samples the machine's speed between operations while set.
        self.cal: Optional[Calibrator] = None

    def tick(self) -> None:
        """Called between two timed operations."""
        if self.cal is None:
            return
        if self.tracer is None:
            self.cal.tick()
        else:
            with self.tracer.frame("calibration"):
                self.cal.tick()

    def _gen(self, fn, *args, **kwargs):
        """Input generation, attributed to the ``workloads`` layer."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.frame("workloads"):
            return fn(*args, **kwargs)

    def setup(self) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Called before each measured sequence of rounds."""

    def run_round(self, r: int) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        return []

    def success_rate(self, rounds: list[Round]) -> float:
        rounds = rounds[:self.min_rounds]
        return (sum(x.placed for x in rounds)
                / sum(x.attempted for x in rounds))

    def mean_min_yield(self, rounds: list[Round]) -> float:
        ys = [y for x in rounds[:self.min_rounds] for y in x.yields]
        return sum(ys) / len(ys)

    def layer_extras(self, rounds: list[Round]) -> dict:
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class Table1Quick(Workload):
    """The quick Table 1 grid through ``run_grid``: one worker, batch 1,
    warm chain on, every task appended to a JSONL checkpoint.

    Round ``r`` is instance ``r`` of every cell of the grid (both service
    counts × five CoVs × three slacks), so every round has the same mix
    of easy and hard cells; the four rounds every run completes are as
    many instances as the quick grid has.  A latency sample is one
    instance: its five solves' seconds, summed.
    """

    name = "table1-quick"
    min_rounds = 4

    def setup(self) -> None:
        from repro.experiments import QUICK_GRID, GridSpec, run_grid
        from repro.experiments.table1 import DEFAULT_TABLE1_ALGORITHMS
        from repro.workloads import ScenarioConfig, parse_workload
        self._run_grid = run_grid
        self._config = ScenarioConfig
        self.algorithms = DEFAULT_TABLE1_ALGORITHMS
        self.grid = QUICK_GRID
        if self.scale == "tiny":
            self.grid = GridSpec(hosts=8, services=(16,),
                                 cov_values=(0.0, 0.5), slack_values=(0.5,))
            self.min_rounds = 1
        self.model = parse_workload(self.grid.workload)
        os.makedirs(BUILD_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="table1-", dir=BUILD_DIR)
        self.store = None
        self.halves = 0
        # Warm-up: one small cell through every algorithm (LP solver,
        # kernels, checkpoint path), outside the timed window.
        warm = GridSpec(hosts=8, services=(16,), cov_values=(0.5,),
                        slack_values=(0.5,), instances=1, seed=self.seed + 1)
        run_grid(list(warm.configs()), self.algorithms, workers=1, batch=1,
                 checkpoint=os.path.join(self.tmp, "warm.jsonl"))

    def configs(self, r: int) -> list:
        g = self.grid
        return [self._config(hosts=g.hosts, services=j, cov=cov, slack=slack,
                             seed=self.seed, instance_index=r,
                             model=self.model)
                for j in g.services for cov in g.cov_values
                for slack in g.slack_values]

    def begin(self) -> None:
        from repro.experiments.persistence import as_result_store
        if self.store is not None:
            self.store.close()
        self.halves += 1
        self.path = os.path.join(self.tmp, f"grid{self.halves}.jsonl")
        self.store = as_result_store(self.path, resume=False)

    def run_round(self, r: int) -> Round:
        done: list[float] = []

        def progress(result, cached) -> None:
            done.append(time.perf_counter())
            self.tick()

        results = self._run_grid(self.configs(r), self.algorithms, workers=1,
                                 batch=1, checkpoint=self.store,
                                 progress=progress)
        rows, samples, yields = [], [], []
        for task, when in zip(results, done):
            samples.append((sum(res.seconds for res in task.results) * 1e3,
                            when))
            for res in task.results:
                rows.append((task.config.label(), task.config.instance_index,
                             res.algorithm, res.min_yield))
                if res.min_yield is not None:
                    yields.append(res.min_yield)
        return Round(len(results), samples, len(yields), len(rows), yields,
                     lambda: rows)

    def check(self, rounds: list[Round]) -> list[str]:
        from repro.experiments import load_results
        self.store.close()
        errors = []
        stored = [(t.config.label(), t.config.instance_index, r.algorithm,
                   r.min_yield)
                  for t in load_results(self.path) for r in t.results]
        returned = [row for x in rounds for row in x.outputs]
        if stored != returned[-len(stored):] or not stored:
            errors.append("checkpoint rows differ from the returned rows")
        for label, _, algo, y in returned:
            if y is not None and not (0.0 <= y <= 1.0 + 1e-9):
                errors.append(f"{label} {algo}: min yield {y} out of range")
        return errors

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
class MetaPaper(Workload):
    """METAHVP ``solve_many`` (one thread) over paper-scale instances.

    Round ``r`` solves one batch per service count, each batch the same
    four (CoV, slack) cells for instance ``r``.
    """

    name = "meta-paper"
    min_rounds = 9

    def setup(self) -> None:
        from repro.algorithms import named_meta_solver
        from repro.workloads import ScenarioConfig, generate_instance
        if self.scale == "tiny":
            hosts, services, rounds = 8, (16, 24), 2
            cells = ((0.25, 0.4), (0.75, 0.6))
            self.min_rounds = 1
        else:
            hosts, services, rounds = 64, (100, 250, 500), POOL_ROUNDS
            cells = ((0.25, 0.4), (0.5, 0.6), (0.75, 0.3), (1.0, 0.5))

        def batch(j: int, index: int) -> list:
            return [self._gen(generate_instance, ScenarioConfig(
                hosts=hosts, services=j, cov=cov, slack=slack,
                seed=self.seed, instance_index=index))
                for cov, slack in cells]

        self.pool = [[batch(j, r) for j in services] for r in range(rounds)]
        self.solver = named_meta_solver("METAHVP")
        self.allocs: dict[int, list] = {}
        # Warm-up: one batched solve of two small extra instances.
        self.solver.solve_many(batch(services[0], rounds)[:2], threads=1)

    def run_round(self, r: int) -> Round:
        samples, allocs = [], []
        for batch in self.pool[r % len(self.pool)]:
            stats = [{} for _ in batch]
            allocs += self.solver.solve_many(batch, stats=stats, threads=1)
            when = time.perf_counter()
            samples += [(st["seconds"] * 1e3, when) for st in stats]
            self.tick()
        self.allocs[r] = allocs
        yields = [a.minimum_yield() for a in allocs if a is not None]
        return Round(len(allocs), samples, len(yields), len(allocs), yields,
                     lambda: [None if a is None else (a.placement.tolist(),
                                                      a.yields.tolist())
                              for a in allocs])

    def check(self, rounds: list[Round]) -> list[str]:
        errors = []
        for r, allocs in self.allocs.items():
            for alloc in allocs:
                if alloc is not None and not alloc.is_valid():
                    errors.append(f"round {r}: an allocation fails "
                                  "validate()")
        # Batched ≡ sequential on the first instance of round 0.
        seq = self.solver.solve_with_hint(self.pool[0][0][0])
        batched = self.allocs[0][0]
        if (seq is None) != (batched is None) or (
                seq is not None and (
                    seq.placement.tolist() != batched.placement.tolist()
                    or seq.yields.tolist() != batched.yields.tolist())):
            errors.append("solve_many differs from solve_with_hint")
        return errors


# ----------------------------------------------------------------------
class _TimedPlacer:
    """The simulation's placer, timed per re-pack decision."""

    supports_hint = True

    def __init__(self, fn, tracer: Optional[Tracer],
                 tick: Callable[[], None]):
        self._fn = fn
        self._tracer = tracer
        self._tick = tick
        self.samples: list[tuple[float, float]] = []

    def solve_with_hint(self, instance, hint=None, stats=None):
        t0 = time.perf_counter()
        if self._tracer is None:
            alloc = self._fn.solve_with_hint(instance, hint=hint, stats=stats)
        else:
            with self._tracer.frame("vector_packing"):
                alloc = self._fn.solve_with_hint(instance, hint=hint,
                                                 stats=stats)
        t1 = time.perf_counter()
        seconds = t1 - t0
        self.samples.append((seconds * 1e3, t1))
        if self._tracer is not None:
            self._tracer.count("dynamic.placer_s", seconds)
        self._tick()
        return alloc


class DynamicChurn(Workload):
    """``DynamicSimulator`` re-packing every step with a warm-started
    METAHVPLIGHT placer, Markov node churn and mixed SLA classes.

    Round ``r`` simulates its own platform (the same for every seed),
    trace and failure stream; the trace starts at its steady-state
    live-set size.
    """

    name = "dynamic-churn"
    min_rounds = 6

    def setup(self) -> None:
        from repro.algorithms import metahvp_light
        from repro.dynamic import (DynamicSimulator, generate_platform_events,
                                   generate_trace)
        from repro.experiments.failure_sweep import SLA_MIXES
        from repro.workloads import generate_platform
        self._sim_cls = DynamicSimulator
        if self.scale == "tiny":
            hosts, horizon, rate, life, rounds = 6, 8, 1.0, 6.0, 2
            self.min_rounds = 1
        else:
            hosts, horizon, rate, life, rounds = 32, 50, 12.0, 20.0, \
                POOL_ROUNDS
        self.pool = []
        for r in range(rounds + 1):
            # Round r's platform is the same for every seed; its trace
            # and failure stream come from the seed.
            s = (self.seed * 64 + r) * 4
            self.pool.append((
                self._gen(generate_platform, hosts=hosts, cov=0.5,
                          rng=PLATFORM_SEED + r),
                self._gen(generate_trace, horizon=horizon,
                          mean_arrivals_per_step=rate,
                          mean_lifetime_steps=life, rng=s + 1,
                          initial_services=int(rate * life),
                          sla_mix=SLA_MIXES["mixed"]),
                self._gen(generate_platform_events, horizon=horizon,
                          n_nodes=hosts, failure_rate=0.02,
                          recovery_rate=0.5, rng=s + 2),
                s + 3))
        self.placer_fn = metahvp_light().fn
        # Warm-up: the extra last input, untimed.
        warm = self.pool.pop()
        self._simulate(warm, None)

    def _simulate(self, inputs, tracer):
        platform, trace, failures, rng = inputs
        placer = _TimedPlacer(self.placer_fn, tracer, self.tick)
        sim = self._sim_cls(platform, trace, placer=placer,
                            reallocation_period=1, cpu_need_scale=0.08,
                            rng=rng, failures=failures)
        return sim.run(), placer

    def run_round(self, r: int) -> Round:
        result, placer = self._simulate(self.pool[r % len(self.pool)],
                                        self.tracer)
        service_steps = sum(s.active for s in result.steps)
        return Round(len(result.steps), placer.samples,
                     service_steps - result.total_sla_violations,
                     service_steps, [result.average_min_yield],
                     lambda: [list(row) for row in result.as_rows()],
                     {"migrations": result.total_migrations,
                      "forced": result.total_forced_migrations})

    def layer_extras(self, rounds: list[Round]) -> dict:
        t = self.tracer
        placer_s = t.counters.get("dynamic.placer_s", 0.0)
        return {"dynamic.migrations": sum(x.extra["migrations"]
                                          for x in rounds),
                "dynamic.forced_migrations": sum(x.extra["forced"]
                                                 for x in rounds),
                "dynamic.placer_s": placer_s,
                "dynamic.self_s": (t.stats("dynamic").total_s - placer_s
                                   - t.stats("sharing").total_s)}


WORKLOADS = {cls.name: cls for cls in (Table1Quick, MetaPaper, DynamicChurn)}
