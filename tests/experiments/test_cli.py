"""Tests for the command-line interface."""

import os

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert not args.paper

    def test_fig_cov_variant(self):
        args = build_parser().parse_args(["fig-cov", "--variant", "cpu"])
        assert args.variant == "cpu"

    def test_fig_error_options(self):
        args = build_parser().parse_args(
            ["fig-error", "--services", "48", "--include-caps"])
        assert args.services == 48
        assert args.include_caps

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


def _usage_error(monkeypatch, capsys, argv):
    """What ``main(argv)`` writes to stderr, after checking that it
    exits 2 (a usage error) and runs no command."""
    def ran(*args):
        raise AssertionError(f"{argv} ran instead of a usage error")

    for table in (cli._COMMANDS, cli._SPEC_BUILDERS):
        for command in table:
            monkeypatch.setitem(table, command, ran)
    with pytest.raises(SystemExit) as exc_info:
        main(["--workers", "1", *argv])
    assert exc_info.value.code == 2
    return capsys.readouterr().err


class TestCounts:
    """``--instances``, ``--hosts``, ``--services``, ``--horizon``,
    ``dynamic --periods`` and ``failure-sweep --period`` take integers
    of at least 1: a count of 0 is not "use the default", a negative
    count is not an empty run, and a horizon or re-pack period below 1
    is refused before any simulation starts.  So are a lifetime that is
    not a finite number above 0 and an arrival rate that is not a finite
    number of at least 0."""

    @pytest.mark.parametrize("argv", [
        ["table1", "--instances", "0"],
        ["table1", "--instances", "-1"],
        ["table2", "--instances", "0"],
        ["fig-cov", "--services", "0"],
        ["fig-cov", "--hosts", "-2"],
        ["fig-error", "--hosts", "0"],
        ["fig-error", "--instances", "0"],
        ["rank-strategies", "--instances", "0"],
        ["failure-sweep", "--instances", "0"],
        ["dynamic", "--hosts", "0"],
        ["dynamic", "--periods", "0"],
        ["dynamic", "--periods", "4", "-3"],
        ["dynamic", "--horizon", "0"],
        ["failure-sweep", "--period", "0"],
        ["failure-sweep", "--horizon", "0"],
        ["failure-sweep", "--horizon", "-5"],
        ["serve", "--hosts", "0"],
        ["shard", "--index", "0", "--of", "2", "--",
         "--checkpoint", "s0.jsonl", "table1", "--instances", "0"],
    ])
    def test_count_below_one_is_a_usage_error(self, monkeypatch, capsys,
                                              argv):
        assert "must be at least 1" in _usage_error(monkeypatch, capsys,
                                                    argv)

    @pytest.mark.parametrize("argv,message", [
        (["failure-sweep", "--lifetime", "0"], "must be above 0"),
        (["failure-sweep", "--lifetime", "nan"], "not finite"),
        (["failure-sweep", "--arrival-rate", "-1"], "must be at least 0"),
        (["failure-sweep", "--arrival-rate", "inf"], "not finite"),
        (["dynamic", "--lifetime", "-2.5"], "must be above 0"),
        (["dynamic", "--lifetime", "inf"], "not finite"),
        (["dynamic", "--arrival-rate", "-0.5"], "must be at least 0"),
        (["dynamic", "--arrival-rate", "two"], "invalid number"),
    ])
    def test_lifetime_or_rate_out_of_range_is_a_usage_error(
            self, monkeypatch, capsys, argv, message):
        assert message in _usage_error(monkeypatch, capsys, argv)

    def test_zero_arrival_rate_is_kept(self):
        """No arrivals is a valid trace: the initial services still
        run."""
        args = build_parser().parse_args(
            ["failure-sweep", "--arrival-rate", "0", "--lifetime", "0.5"])
        assert (args.arrival_rate, args.lifetime) == (0.0, 0.5)

    def test_count_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["table1", "--instances", "two"])
        assert exc_info.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_count_of_one_is_kept(self):
        """An explicit count reaches the experiment's spec."""
        args = build_parser().parse_args(
            ["fig-error", "--services", "1", "--hosts", "1",
             "--instances", "1"])
        spec = cli._error_spec(args)
        assert (spec.services, spec.hosts, spec.instances) == (1, 1, 1)


class TestMainSmoke:
    """End-to-end CLI runs at tiny scale (hosts/instances overridden)."""

    def test_fig_cov_writes_outputs(self, tmp_path, capsys):
        rc = main([
            "--workers", "1", "--output", str(tmp_path),
            "fig-cov", "--services", "16", "--hosts", "8",
            "--instances", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Min-yield difference" in out
        files = os.listdir(tmp_path)
        assert any(f.endswith(".txt") for f in files)
        assert any(f.endswith(".csv") for f in files)

    def test_fig_error_runs(self, tmp_path, capsys):
        rc = main([
            "--workers", "1", "--output", str(tmp_path),
            "fig-error", "--services", "16", "--hosts", "8",
            "--instances", "1",
        ])
        assert rc == 0
        assert "Min actual yield" in capsys.readouterr().out

    def test_table2_runs(self, capsys):
        # Tiny custom instance count keeps the smoke run fast; quick grid
        # host/service sizes are already modest.
        rc = main(["--workers", "1", "table2", "--instances", "1"])
        assert rc == 0
        assert "Mean run time" in capsys.readouterr().out

    def test_dynamic_runs(self, capsys):
        rc = main(["--workers", "1", "dynamic", "--hosts", "6",
                   "--horizon", "8", "--periods", "2", "8"])
        assert rc == 0
        assert "Dynamic hosting" in capsys.readouterr().out

    def test_dynamic_follows_the_workload(self, capsys):
        """``--workload`` picks the model that draws the trace's
        services; naming the default changes nothing."""
        argv = ["dynamic", "--hosts", "6", "--horizon", "8", "--periods", "2"]
        tables = []
        for workload in ([], ["--workload", "google"],
                         ["--workload", "heavy-tailed:cpu_tail_index=1.2"]):
            assert main([*workload, *argv]) == 0
            tables.append(capsys.readouterr().out)
        default, google, heavy = tables
        assert google == default
        assert heavy != default
        assert "Dynamic hosting" in heavy

    def test_unknown_workload_rejected_by_dynamic(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workload", "bogus", "dynamic"])
        assert "unknown workload" in capsys.readouterr().err

    def test_rank_strategies_runs(self, capsys):
        rc = main(["--workers", "1", "rank-strategies", "--services", "10",
                   "--hosts", "4", "--instances", "2", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Top 5 of 253" in out
        assert "LIGHT members" in out

    def test_table1_heavy_tailed_workload(self, capsys):
        """A non-default workload flows through the same spec pipeline."""
        rc = main(["--workers", "1",
                   "--workload", "heavy-tailed:cpu_tail_index=1.4",
                   "table1", "--instances", "1",
                   "--algorithms", "METAGREEDY"])
        assert rc == 0
        assert "services" in capsys.readouterr().out

    def test_fig_cov_trace_workload(self, tmp_path, capsys):
        from repro.workloads import GoogleWorkloadModel, dump_trace
        trace = str(tmp_path / "services.csv")
        dump_trace(GoogleWorkloadModel().generate_services(40, rng=3), trace)
        rc = main(["--workers", "1", "--workload", f"trace:path={trace}",
                   "fig-cov", "--services", "16", "--hosts", "8",
                   "--instances", "1"])
        assert rc == 0
        assert "Min-yield difference" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workload", "bogus", "table1"])
        assert "unknown workload" in capsys.readouterr().err
