"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    repro-experiments table1                 # quick-scale Table 1
    repro-experiments table2 --paper         # full-scale Table 2 (slow!)
    repro-experiments fig-cov --services 500 --slack 0.3
    repro-experiments fig-cov --variant cpu  # Figure 3
    repro-experiments fig-error --services 250
    repro-experiments all --output results/

Every command prints the text rendering and, with ``--output``, writes a
CSV next to it.  ``--paper`` switches to the full §4 grid (about a
CPU-month per table, nearly all of it the LP behind RRND/RRNZ; the
default quick grid preserves the qualitative shape).

Long sweeps should run with ``--checkpoint results.jsonl``: every
completed instance is appended to the JSONL file as it finishes, and an
interrupted run restarted with ``--resume`` picks up exactly where it
stopped (already-completed coordinates are read back instead of
recomputed, so the output is identical to an uninterrupted run)::

    repro --checkpoint t1.jsonl table1 --paper          # killed at 40%...
    repro --checkpoint t1.jsonl --resume table1 --paper # ...finishes the rest

``--workload`` selects the scenario generator for any experiment
(``google``, ``heavy-tailed``, ``trace``; parameters via
``NAME:param=val,...``)::

    repro table1 --workload heavy-tailed:cpu_tail_index=1.2
    repro fig-cov --workload trace:path=services.csv

Any experiment can be split across machines.  ``repro shard`` runs one
deterministic slice of an experiment's task list into its own checkpoint
(the experiment command line goes after ``--``, global options included);
``repro merge`` combines the shard files and renders the final
table/figure, byte-identical to an unsharded run::

    machine-a$ repro shard --index 0 --of 2 -- --checkpoint s0.jsonl table1 --paper
    machine-b$ repro shard --index 1 --of 2 -- --checkpoint s1.jsonl table1 --paper
    anywhere$  repro merge --from s0.jsonl --from s1.jsonl table1 --paper

``repro serve`` runs the online allocation daemon instead of a batch
experiment: arrivals and departures over HTTP, each triggering a
warm-started incremental re-solve (``--port 0`` binds an ephemeral port
and prints it on stdout; see the README's "Serving allocations")::

    repro serve --port 0 --strategy METAHVPLIGHT --deadline-ms 250

The global ``--obs-log FILE`` flag (or ``REPRO_OBS=FILE``) traces any
command — solves, probes, checkpoint writes, daemon requests — as
structured JSONL; ``repro obs report FILE`` summarizes where the time
went (see the README's "Observability")::

    repro --obs-log trace.jsonl table1
    repro obs report trace.jsonl --top 15
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

from .experiments import (
    PAPER_GRID,
    QUICK_GRID,
    CovFigureSpec,
    ErrorFigureSpec,
    GridSpec,
    IncompleteResultsError,
    Shard,
    cov_figure_experiment,
    error_figure_experiment,
    table1_experiment,
    table2_experiment,
)
from . import kernels
from .experiments.report import ensure_dir
from .experiments.spec import ExperimentSpec
from .experiments.table1 import DEFAULT_TABLE1_ALGORITHMS
from .workloads import parse_workload, workload_names

__all__ = ["main", "build_parser"]


def _count(text: str) -> int:
    """argparse type of ``--instances``, ``--hosts``, ``--services``,
    ``--horizon``, ``dynamic --periods`` and ``failure-sweep
    --period``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid count {text!r}: not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"invalid count {value}: must be at least 1")
    return value


def _finite(text: str) -> float:
    """A finite float, or an argparse type error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"invalid number {text!r}: not finite")
    return value


def _lifetime(text: str) -> float:
    """argparse type of ``--lifetime``: a finite number above 0."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"invalid lifetime {value}: must be above 0")
    return value


def _rate(text: str) -> float:
    """argparse type of ``--arrival-rate``: a finite number of at least
    0."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid rate {value}: must be at least 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: all cores)")
    parser.add_argument("--output", default=None,
                        help="directory for CSV/text outputs")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="append each completed task to this JSONL file; "
                             "an interrupted sweep can then be --resume'd")
    parser.add_argument("--resume", action="store_true",
                        help="reuse completed tasks from --checkpoint "
                             "instead of recomputing them")
    parser.add_argument("--window", type=int, default=None,
                        help="max tasks in flight (default: 4 x workers)")
    parser.add_argument("--progress", action="store_true",
                        help="force live progress on stderr (auto when "
                             "stderr is a terminal)")
    parser.add_argument("--kernel-backend",
                        choices=kernels.backend_names(), default=None,
                        help="packing-kernel implementation (default: the "
                             "REPRO_KERNEL_BACKEND env var, else 'auto' = "
                             "native where the C kernels build, else "
                             "numpy)")
    parser.add_argument("--workload", default="google", metavar="NAME[:k=v,...]",
                        help="workload model for every scenario "
                             f"(registered: {', '.join(workload_names())}; "
                             "e.g. heavy-tailed:cpu_tail_index=1.2 or "
                             "trace:path=services.csv)")
    parser.add_argument("--obs-log", default=None, metavar="FILE",
                        help="trace spans/events to this JSONL file "
                             "(default: the REPRO_OBS env var, else "
                             "tracing is off); summarize with "
                             "'repro obs report FILE'")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="pairwise comparisons (Table 1)")
    t1.add_argument("--paper", action="store_true",
                    help="full paper grid instead of the quick grid")
    t1.add_argument("--instances", type=_count, default=None)
    t1.add_argument("--include-light", action="store_true",
                    help="add METAHVPLIGHT (the §5.1 comparison)")
    t1.add_argument("--algorithms", nargs="+", default=None)

    t2 = sub.add_parser("table2", help="run times (Table 2)")
    t2.add_argument("--paper", action="store_true")
    t2.add_argument("--instances", type=_count, default=None)
    t2.add_argument("--include-light", action="store_true")

    fc = sub.add_parser("fig-cov", help="yield-vs-CoV figures (2-4, 8-34)")
    fc.add_argument("--services", type=_count, default=None)
    fc.add_argument("--slack", type=float, default=0.3)
    fc.add_argument("--hosts", type=_count, default=None)
    fc.add_argument("--instances", type=_count, default=None)
    fc.add_argument("--variant", choices=("none", "cpu", "mem"),
                    default="none",
                    help="hold CPU (Fig 3) or memory (Fig 4) homogeneous")
    fc.add_argument("--paper", action="store_true")

    fe = sub.add_parser("fig-error", help="error-impact figures (5-7, 35-66)")
    fe.add_argument("--services", type=_count, default=None)
    fe.add_argument("--slack", type=float, default=0.4)
    fe.add_argument("--cov", type=float, default=0.5)
    fe.add_argument("--hosts", type=_count, default=None)
    fe.add_argument("--instances", type=_count, default=None)
    fe.add_argument("--placer", default=None,
                    help="placement algorithm (default METAHVPLIGHT quick, "
                         "METAHVP with --paper)")
    fe.add_argument("--include-caps", action="store_true",
                    help="also report the ALLOCCAPS series")
    fe.add_argument("--paper", action="store_true")

    rk = sub.add_parser("rank-strategies",
                        help="§5.1 exploration: rank all 253 HVP strategies")
    rk.add_argument("--services", type=_count, default=20)
    rk.add_argument("--hosts", type=_count, default=8)
    rk.add_argument("--instances", type=_count, default=4)
    rk.add_argument("--top", type=int, default=25)
    rk.add_argument("--no-warm-start", dest="warm_start",
                    action="store_false",
                    help="disable the per-strategy hint chain (every "
                         "config's yield search runs cold)")

    dy = sub.add_parser("dynamic",
                        help="dynamic hosting simulation (future-work)")
    dy.add_argument("--hosts", type=_count, default=12)
    dy.add_argument("--horizon", type=_count, default=40)
    dy.add_argument("--arrival-rate", type=_rate, default=2.0)
    dy.add_argument("--lifetime", type=_lifetime, default=10.0)
    dy.add_argument("--periods", type=_count, nargs="+",
                    default=[1, 4, 10, 40])
    dy.add_argument("--max-error", type=float, default=0.1)
    dy.add_argument("--threshold", type=float, default=0.1)
    dy.add_argument("--failure-rate", type=float, default=0.0,
                    help="per-step probability an up node fails "
                         "(default 0: no churn)")
    dy.add_argument("--recovery-rate", type=float, default=0.5,
                    help="per-step probability a down node recovers "
                         "(default 0.5)")
    dy.add_argument("--sla-mix", default=None, metavar="MIX",
                    help="per-service SLA classes: a named mix "
                         "(best-effort, mixed, strict) or weights like "
                         "'gold=1,silver=2,best-effort=7'")

    fs = sub.add_parser(
        "failure-sweep",
        help="sweep node failure rates x SLA mixes over the dynamic "
             "simulator (yield, churn cost, SLA compliance)")
    fs.add_argument("--hosts", type=_count, default=12)
    fs.add_argument("--horizon", type=_count, default=40)
    fs.add_argument("--arrival-rate", type=_rate, default=2.0)
    fs.add_argument("--lifetime", type=_lifetime, default=10.0)
    fs.add_argument("--failure-rates", type=float, nargs="+",
                    default=[0.0, 0.02, 0.05],
                    help="per-step node failure probabilities to sweep")
    fs.add_argument("--recovery-rate", type=float, default=0.5)
    fs.add_argument("--sla-mixes", nargs="+",
                    default=["best-effort", "mixed"],
                    help="named SLA mixes (best-effort, mixed, strict)")
    fs.add_argument("--period", type=_count, default=4,
                    help="re-pack period (default 4)")
    fs.add_argument("--instances", type=_count, default=3)

    al = sub.add_parser("all", help="run every experiment at quick scale")
    al.add_argument("--paper", action="store_true")

    sv = sub.add_parser(
        "serve",
        help="run the online allocation daemon (POST /alloc, "
             "DELETE /alloc/{id}, GET /state, GET|POST /strategy, "
             "GET /healthz, GET /metrics)")
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    sv.add_argument("--port", type=int, default=8080,
                    help="TCP port; 0 binds an ephemeral port and the "
                         "actual port is printed on stdout")
    sv.add_argument("--strategy", default="METAHVPLIGHT",
                    help="initial solver strategy (switchable at runtime "
                         "via POST /strategy)")
    sv.add_argument("--deadline-ms", type=float, default=None,
                    help="solve-latency budget: once the full solve's "
                         "latency estimate exceeds it, admissions degrade "
                         "to a single bounded-time greedy probe "
                         "(default: never degrade)")
    sv.add_argument("--hosts", type=_count, default=16,
                    help="platform size (default 16)")
    sv.add_argument("--cov", type=float, default=0.5,
                    help="platform heterogeneity CoV (default 0.5)")
    sv.add_argument("--cpu-need-scale", type=float, default=0.05,
                    help="core-units -> capacity-units scale for sampled "
                         "services (default 0.05, as in 'repro dynamic')")
    sv.add_argument("--log-level", default="info",
                    choices=("debug", "info", "warning", "error"),
                    help="request-log verbosity (default info; the "
                         "/healthz and /metrics pollers log at debug)")
    sv.add_argument("--log-json", action="store_true",
                    help="one JSON object per log line (with the "
                         "request's trace id) instead of text")
    sv.add_argument("--journal", default=None, metavar="FILE",
                    help="append-only event journal: every acknowledged "
                         "event is fsynced here before the reply, and a "
                         "restart replays the file back to the same "
                         "cluster state")
    sv.add_argument("--faults", default=None, metavar="SPEC",
                    help="fault injection for chaos testing, e.g. "
                         "'solver_fail=2,journal_fail=1,crash_at_event=10,"
                         "solver_delay_ms=50'")

    from .analysis.cli import add_check_arguments
    add_check_arguments(sub)

    ob = sub.add_parser("obs", help="observability tools (trace analysis)")
    obs_sub = ob.add_subparsers(dest="obs_command", required=True)
    rep = obs_sub.add_parser(
        "report",
        help="summarize an --obs-log JSONL trace: per-span latency/count "
             "table plus the slowest individual spans")
    rep.add_argument("trace", help="JSONL trace file written via --obs-log "
                                   "or REPRO_OBS")
    rep.add_argument("--top", type=int, default=10,
                     help="number of slowest spans to list (default 10)")
    rep.add_argument("--name", default=None, metavar="SPAN",
                     help="restrict the report to one span name "
                          "(e.g. yield.search)")

    sh = sub.add_parser(
        "shard",
        help="run one slice of an experiment's task list "
             "(repro shard --index I --of N -- [global options] COMMAND ...)")
    sh.add_argument("--index", type=int, required=True,
                    help="this machine's shard number, 0-based")
    sh.add_argument("--of", type=int, required=True,
                    help="total number of shards")
    sh.add_argument("rest", nargs=argparse.REMAINDER, metavar="command",
                    help="the experiment to shard: a full repro command "
                         "line (use '--' before global options such as "
                         "--checkpoint, which every shard run requires)")

    mg = sub.add_parser(
        "merge",
        help="combine shard checkpoints and render the final table/figure "
             "(repro merge --from A.jsonl --from B.jsonl COMMAND ...)")
    mg.add_argument("--from", dest="sources", action="append", required=True,
                    metavar="PATH",
                    help="a shard checkpoint, only read (repeatable; where "
                         "files disagree on a task, the first listed wins)")
    mg.add_argument("--into", default=None, metavar="PATH",
                    help="also write the de-duplicated union of the "
                         "shards to this JSONL file")
    mg.add_argument("rest", nargs=argparse.REMAINDER, metavar="command",
                    help="the experiment the shards belong to (same "
                         "command line the shards ran, minus --checkpoint)")

    co = sub.add_parser("compact",
                        help="garbage-collect a JSONL checkpoint "
                             "(drop superseded/foreign records)")
    co.add_argument("path", help="checkpoint file to compact")
    co.add_argument("--into", default=None, metavar="PATH",
                    help="write the compacted file here instead of "
                         "rewriting in place")
    co.add_argument("--kinds", nargs="+", default=None,
                    help="record kinds to keep ('task' for grid results, "
                         "plus payload kinds such as 'error-figure', "
                         "'strategy-rank'); other kinds are dropped as "
                         "foreign.  Default: keep all")

    return parser


class _Progress:
    """Throttled live progress on stderr: ``label: done tasks (n resumed)``.

    Silent unless stderr is a terminal or ``--progress`` was passed, so
    piped/CI runs stay clean.  Matches the ``progress(item, cached)``
    callback signature of the experiment drivers.
    """

    def __init__(self, label: str, enabled: bool,
                 interval: float = 0.5):
        self.label = label
        self.enabled = enabled
        self.interval = interval
        self.done = 0
        self.cached = 0
        self._last = 0.0
        self._dirty = False

    def __call__(self, item: object, cached: bool) -> None:
        self.done += 1
        if cached:
            self.cached += 1
        if not self.enabled:
            return
        now = time.monotonic()
        if now - self._last >= self.interval:
            self._last = now
            self._dirty = True
            print(f"\r{self.label}: {self.done} tasks "
                  f"({self.cached} resumed)", end="", file=sys.stderr,
                  flush=True)

    def finish(self) -> None:
        if self.enabled and self._dirty:
            print(f"\r{self.label}: {self.done} tasks "
                  f"({self.cached} resumed)", file=sys.stderr, flush=True)


def _progress_enabled(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "progress", False)) or sys.stderr.isatty()


def _run_kwargs(args: argparse.Namespace, label: str) -> dict:
    """The streaming-engine kwargs shared by every experiment command."""
    return {
        "checkpoint": args.checkpoint,
        "resume": args.resume,
        "window": args.window,
        "progress": _Progress(label, enabled=_progress_enabled(args)),
    }


def _grid(args: argparse.Namespace) -> GridSpec:
    grid = PAPER_GRID if args.paper else QUICK_GRID
    overrides = {"seed": args.seed, "workload": args.workload}
    if args.instances is not None:
        overrides["instances"] = args.instances
    return dataclasses.replace(grid, **overrides)


def _emit(args: argparse.Namespace, name: str, text: str, data=None) -> None:
    print(text)
    print()
    if args.output:
        ensure_dir(args.output)
        with open(os.path.join(args.output, f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")
        if data is not None and hasattr(data, "to_csv"):
            data.to_csv(os.path.join(args.output, f"{name}.csv"))


def _spec_table1(args) -> tuple[ExperimentSpec, str]:
    algorithms = args.algorithms or list(DEFAULT_TABLE1_ALGORITHMS)
    if getattr(args, "include_light", False) and "METAHVPLIGHT" not in algorithms:
        algorithms = list(algorithms) + ["METAHVPLIGHT"]
    return table1_experiment(_grid(args), algorithms), "table1"


def _spec_table2(args) -> tuple[ExperimentSpec, str]:
    algorithms = ["RRNZ", "METAGREEDY", "METAVP", "METAHVP"]
    if args.include_light:
        algorithms.append("METAHVPLIGHT")
    return table2_experiment(_grid(args), algorithms), "table2"


def _cov_spec(args) -> CovFigureSpec:
    if args.paper:
        spec = CovFigureSpec(seed=args.seed)
    else:
        spec = CovFigureSpec(
            hosts=16, services=48, instances=3,
            cov_values=tuple(round(0.1 * i, 6) for i in range(10)),
            seed=args.seed)
    overrides = {"workload": args.workload}
    if args.services is not None:
        overrides["services"] = args.services
    if args.hosts is not None:
        overrides["hosts"] = args.hosts
    if args.instances is not None:
        overrides["instances"] = args.instances
    overrides["slack"] = args.slack
    overrides["cpu_homogeneous"] = args.variant == "cpu"
    overrides["mem_homogeneous"] = args.variant == "mem"
    return dataclasses.replace(spec, **overrides)


def _spec_fig_cov(args) -> tuple[ExperimentSpec, str]:
    spec = _cov_spec(args)
    name = f"fig-cov-J{spec.services}-slack{spec.slack:g}"
    if spec.cpu_homogeneous:
        name += "-cpuhom"
    if spec.mem_homogeneous:
        name += "-memhom"
    return cov_figure_experiment(spec), name


def _error_spec(args) -> ErrorFigureSpec:
    if args.paper:
        spec = ErrorFigureSpec(seed=args.seed, placer="METAHVP")
    else:
        spec = ErrorFigureSpec(
            hosts=16, services=48, instances=3,
            error_values=tuple(round(0.04 * i, 6) for i in range(8)),
            placer="METAHVPLIGHT", seed=args.seed)
    overrides = {"slack": args.slack, "cov": args.cov,
                 "include_caps": args.include_caps,
                 "workload": args.workload}
    if args.services is not None:
        overrides["services"] = args.services
    if args.hosts is not None:
        overrides["hosts"] = args.hosts
    if args.instances is not None:
        overrides["instances"] = args.instances
    if args.placer:
        overrides["placer"] = args.placer
    return dataclasses.replace(spec, **overrides)


def _spec_fig_error(args) -> tuple[ExperimentSpec, str]:
    spec = _error_spec(args)
    name = f"fig-error-J{spec.services}-slack{spec.slack:g}-cov{spec.cov:g}"
    return error_figure_experiment(spec), name


def _spec_rank_strategies(args) -> tuple[ExperimentSpec, str]:
    from .experiments.strategy_ranking import strategy_ranking_experiment
    from .workloads import ScenarioConfig
    model = parse_workload(args.workload)
    configs = [
        ScenarioConfig(hosts=args.hosts, services=args.services, cov=cov,
                       slack=0.5, seed=args.seed, instance_index=idx,
                       model=model)
        for cov in (0.25, 0.75)
        for idx in range(max(1, args.instances // 2))
    ]
    spec = strategy_ranking_experiment(configs, warm_start=args.warm_start,
                                       top_n=args.top)
    return spec, "strategy-ranking"


def _spec_failure_sweep(args) -> tuple[ExperimentSpec, str]:
    from .experiments.failure_sweep import (
        FailureSweepSpec,
        failure_sweep_experiment,
    )
    try:
        spec = FailureSweepSpec(
            hosts=args.hosts, horizon=args.horizon,
            arrival_rate=args.arrival_rate, lifetime=args.lifetime,
            failure_rates=tuple(args.failure_rates),
            recovery_rate=args.recovery_rate,
            sla_mixes=tuple(args.sla_mixes),
            reallocation_period=args.period,
            instances=args.instances, seed=args.seed,
            workload=args.workload)
    except ValueError as exc:
        raise SystemExit(f"repro failure-sweep: {exc}")
    name = (f"failure-sweep-H{args.hosts}-T{args.horizon}"
            f"-p{args.period}")
    return failure_sweep_experiment(spec), name


#: Experiment commands that resolve to a shardable :class:`ExperimentSpec`.
_SPEC_BUILDERS = {
    "table1": _spec_table1,
    "table2": _spec_table2,
    "fig-cov": _spec_fig_cov,
    "fig-error": _spec_fig_error,
    "rank-strategies": _spec_rank_strategies,
    "failure-sweep": _spec_failure_sweep,
}


def _run_spec(args: argparse.Namespace) -> None:
    """The one driver behind every experiment command: build the spec,
    stream it through the runner, render and emit."""
    spec, name = _SPEC_BUILDERS[args.command](args)
    kwargs = _run_kwargs(args, args.command)
    data = spec.run(workers=args.workers, **kwargs)
    kwargs["progress"].finish()
    _emit(args, name, spec.render(data), data)


def _subcheckpoint(args: argparse.Namespace, name: str) -> str | None:
    """Per-step checkpoint path for ``all``: each sub-command owns its own
    file, so a fresh (non-resume) step never truncates a finished one."""
    if not args.checkpoint:
        return None
    return f"{args.checkpoint}.{name}.jsonl"


def _cmd_all(args) -> None:
    ns = argparse.Namespace(**vars(args))
    ns.instances = None
    ns.algorithms = None
    ns.include_light = True
    ns.command = "table1"
    ns.checkpoint = _subcheckpoint(args, "table1")
    _run_spec(ns)
    ns.command = "table2"
    ns.checkpoint = _subcheckpoint(args, "table2")
    _run_spec(ns)
    for variant in ("none", "cpu", "mem"):
        cov_ns = argparse.Namespace(**vars(args))
        cov_ns.command = "fig-cov"
        cov_ns.services = None
        cov_ns.hosts = None
        cov_ns.instances = None
        cov_ns.slack = 0.3
        cov_ns.variant = variant
        cov_ns.checkpoint = _subcheckpoint(args, f"fig-cov-{variant}")
        _run_spec(cov_ns)
    err_ns = argparse.Namespace(**vars(args))
    err_ns.command = "fig-error"
    err_ns.services = None
    err_ns.hosts = None
    err_ns.instances = None
    err_ns.slack = 0.4
    err_ns.cov = 0.5
    err_ns.placer = None
    err_ns.include_caps = True
    err_ns.checkpoint = _subcheckpoint(args, "fig-error")
    _run_spec(err_ns)


def _apply_global_options(args: argparse.Namespace,
                          parser: argparse.ArgumentParser) -> None:
    """Validate and apply the global options of one parsed ``repro`` argv
    — the top-level one or the inner argv of a shard/merge call."""
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    if args.command in _SPEC_BUILDERS \
            or args.command in ("all", "serve", "dynamic"):
        try:
            parse_workload(args.workload)  # validate NAME[:k=v,...] early
        except (KeyError, ValueError) as exc:
            parser.error(f"--workload: {exc}")
    if args.kernel_backend is not None:
        try:
            # persist_env so experiment worker processes inherit the
            # choice (task descriptors don't carry it).
            kernels.use_backend(args.kernel_backend, persist_env=True)
        except kernels.KernelBackendUnavailable as exc:
            parser.error(str(exc))
    if args.obs_log is not None:
        from . import obs
        # persist_env for the same reason: pool workers re-enable from
        # REPRO_OBS and append to the same JSONL sink.
        obs.configure(args.obs_log, persist_env=True)


def _parse_inner(rest: list[str], parser: argparse.ArgumentParser,
                 context: str) -> argparse.Namespace:
    """Parse the experiment command line embedded in a shard/merge call.

    *rest* is a full ``repro`` argv (global options first, as usual); a
    leading ``--`` — argparse's option terminator, required when the
    inner argv starts with an option — is stripped.  The inner argv's
    global options (--workload, --kernel-backend, ...) are validated and
    applied exactly as a direct invocation's would be.
    """
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        parser.error(f"{context}: missing the experiment command "
                     "(e.g. 'repro shard --index 0 --of 2 -- "
                     "--checkpoint s0.jsonl table1')")
    inner = build_parser().parse_args(rest)
    if inner.command not in _SPEC_BUILDERS:
        parser.error(f"{context}: {inner.command!r} cannot be sharded; "
                     f"choose from {sorted(_SPEC_BUILDERS)}")
    _apply_global_options(inner, parser)
    return inner


def _cmd_shard(args, parser: argparse.ArgumentParser) -> None:
    inner = _parse_inner(args.rest, parser, "shard")
    if not inner.checkpoint:
        parser.error("shard: the experiment needs --checkpoint (each "
                     "shard writes its own JSONL file to merge later)")
    try:
        shard = Shard(args.index, args.of)
    except ValueError as exc:
        parser.error(str(exc))
    spec, _ = _SPEC_BUILDERS[inner.command](inner)
    label = f"shard {shard.index}/{shard.of} {inner.command}"
    kwargs = _run_kwargs(inner, label)
    done = spec.run_shard(shard, workers=inner.workers, **kwargs)
    kwargs["progress"].finish()
    total = spec.task_count()
    print(f"{label}: {done} of {total} tasks -> {inner.checkpoint}")
    print(f"merge with: repro merge --from {inner.checkpoint} "
          f"[--from ...] {inner.command} ...")


def _cmd_merge(args, parser: argparse.ArgumentParser) -> None:
    inner = _parse_inner(args.rest, parser, "merge")
    spec, name = _SPEC_BUILDERS[inner.command](inner)
    if args.into:
        from .experiments import merge_checkpoints
        stats = merge_checkpoints(args.sources, args.into)
        print(f"{args.into}: merged {stats.kept} records "
              f"({stats.superseded} duplicates dropped)")
    try:
        data = spec.collect(args.sources)
    except IncompleteResultsError as exc:
        parser.error(f"merge: {exc}")
    _emit(inner, name, spec.render(data), data)


def _cmd_compact(args) -> None:
    from .experiments.persistence import compact_checkpoint
    stats = compact_checkpoint(args.path, output=args.into,
                               kinds=args.kinds)
    dest = args.into or args.path
    print(f"{dest}: kept {stats.kept} records "
          f"({stats.superseded} superseded, {stats.foreign} foreign "
          f"dropped)")


def _parse_sla_mix(text: str) -> dict[str, float]:
    """An SLA mix: a named preset or explicit ``class=weight`` pairs."""
    from .experiments.failure_sweep import SLA_MIXES
    if text in SLA_MIXES:
        return dict(SLA_MIXES[text])
    mix: dict[str, float] = {}
    for part in text.split(","):
        name, sep, weight = part.partition("=")
        if not sep:
            raise SystemExit(
                f"repro dynamic: --sla-mix needs a named mix "
                f"({', '.join(sorted(SLA_MIXES))}) or 'class=weight' "
                f"pairs, got {part!r}")
        try:
            mix[name.strip()] = float(weight)
        except ValueError:
            raise SystemExit(
                f"repro dynamic: --sla-mix weight {weight!r} is not a "
                f"number") from None
    return mix


def _cmd_dynamic(args) -> None:
    from .algorithms import metahvp_light
    from .dynamic import (
        DynamicSimulator,
        generate_platform_events,
        generate_trace,
    )
    from .experiments.report import format_table
    from .workloads import generate_platform
    platform = generate_platform(hosts=args.hosts, cov=0.5, rng=args.seed)
    sla_mix = (_parse_sla_mix(args.sla_mix)
               if args.sla_mix is not None else None)
    try:
        trace = generate_trace(
            horizon=args.horizon, mean_arrivals_per_step=args.arrival_rate,
            mean_lifetime_steps=args.lifetime,
            model=parse_workload(args.workload), rng=args.seed + 1,
            initial_services=args.hosts, sla_mix=sla_mix)
    except ValueError as exc:
        raise SystemExit(f"repro dynamic: {exc}")
    failures = None
    if args.failure_rate > 0:
        failures = generate_platform_events(
            horizon=args.horizon, n_nodes=args.hosts,
            failure_rate=args.failure_rate,
            recovery_rate=args.recovery_rate, rng=args.seed + 2)
    churn = failures is not None or sla_mix is not None
    rows = []
    for period in args.periods:
        sim = DynamicSimulator(
            platform, trace, placer=metahvp_light(),
            reallocation_period=period, cpu_need_scale=0.05,
            max_error=args.max_error, threshold=args.threshold,
            rng=args.seed, failures=failures)
        result = sim.run()
        row = [period, f"{result.average_min_yield:.3f}",
               result.total_migrations,
               f"{result.average_pending:.2f}"]
        if churn:
            row += [result.total_forced_migrations,
                    result.displaced_service_steps,
                    result.total_sla_violations]
        rows.append(tuple(row))
    headers = ["re-pack period", "avg min yield", "migrations",
               "avg pending"]
    title = (f"Dynamic hosting on {args.hosts} hosts, horizon "
             f"{args.horizon}, error {args.max_error}, "
             f"threshold {args.threshold}")
    if churn:
        headers += ["forced", "displaced steps", "SLA violations"]
        title += (f", failure rate {args.failure_rate:g}"
                  if failures is not None else "")
    _emit(args, "dynamic", format_table(tuple(headers), rows, title=title))


def _cmd_obs(args, parser: argparse.ArgumentParser) -> None:
    from .obs.report import load_trace, render_report
    try:
        records, malformed = load_trace(args.trace)
    except OSError as exc:
        parser.error(f"obs report: {exc}")
    try:
        print(render_report(records, top=args.top, name=args.name,
                            malformed=malformed))
    except BrokenPipeError:  # `repro obs report ... | head` is normal use
        os.close(sys.stdout.fileno())
        raise SystemExit(0)


def _cmd_serve(args) -> None:
    from .obs.logs import setup_logging
    from .service import (
        AllocationController,
        EventJournal,
        FaultInjector,
        FaultPlan,
        JournalError,
        ServiceError,
        create_server,
        load_journal,
        run_server,
    )
    from .workloads import generate_platform
    setup_logging(level=args.log_level, json_lines=args.log_json)
    nodes = generate_platform(hosts=args.hosts, cov=args.cov, rng=args.seed)
    injector = None
    if args.faults:
        try:
            plan = FaultPlan.parse(args.faults)
        except ValueError as exc:
            raise SystemExit(f"repro serve: --faults: {exc}")
        injector = FaultInjector(plan) if plan.active() else None
    try:
        controller = AllocationController(
            nodes, strategy=args.strategy,
            workload=parse_workload(args.workload),
            deadline_ms=args.deadline_ms,
            cpu_need_scale=args.cpu_need_scale,
            rng=args.seed + 1,
            faults=injector)
    except ServiceError as exc:
        raise SystemExit(f"repro serve: {exc.payload['error']} "
                         f"(available: "
                         f"{', '.join(exc.payload.get('available', []))})")
    except ValueError as exc:
        raise SystemExit(f"repro serve: --cpu-need-scale: {exc}")
    if args.journal:
        try:
            events = load_journal(args.journal)
        except (JournalError, ValueError) as exc:
            raise SystemExit(f"repro serve: --journal: {exc}")
        if events:
            controller.replay_events(events)
            print(f"repro serve: recovered {len(events)} events from "
                  f"{args.journal} ({len(controller.state)} services "
                  f"active)", flush=True)
        controller.attach_journal(EventJournal(
            args.journal, faults=injector, start_seq=len(events)))
    run_server(create_server(controller, args.host, args.port))


_COMMANDS = {
    "table1": _run_spec,
    "table2": _run_spec,
    "fig-cov": _run_spec,
    "fig-error": _run_spec,
    "rank-strategies": _run_spec,
    "failure-sweep": _run_spec,
    "dynamic": _cmd_dynamic,
    "all": _cmd_all,
    "compact": _cmd_compact,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_global_options(args, parser)
    if args.command == "shard":
        _cmd_shard(args, parser)
    elif args.command == "merge":
        _cmd_merge(args, parser)
    elif args.command == "obs":
        _cmd_obs(args, parser)
    elif args.command == "check":
        from .analysis.cli import run_cli
        return run_cli(args)
    else:
        _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
