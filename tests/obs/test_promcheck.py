"""The Prometheus exposition checker must catch what CI relies on it for."""

from __future__ import annotations

from repro.obs.promcheck import check_prometheus_text, main

GOOD = """\
# HELP up Liveness.
# TYPE up gauge
up 1
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 1.5
lat_seconds_count 3
"""


def test_good_text_passes():
    assert check_prometheus_text(GOOD) == []


def test_missing_trailing_newline():
    assert any("newline" in v for v in check_prometheus_text("up 1"))


def test_sample_without_type_flagged():
    violations = check_prometheus_text("up 1\n")
    assert any("TYPE" in v for v in violations)


def test_bad_metric_name():
    text = "# TYPE 9bad counter\n9bad 1\n"
    assert check_prometheus_text(text)


def test_bad_value():
    text = "# TYPE up gauge\nup banana\n"
    assert any("value" in v.lower() for v in check_prometheus_text(text))


def test_duplicate_sample_flagged():
    text = "# TYPE up gauge\nup 1\nup 2\n"
    assert any("duplicate" in v.lower() for v in check_prometheus_text(text))


def test_unknown_type_flagged():
    text = "# TYPE up heatmap\nup 1\n"
    assert any("type" in v.lower() for v in check_prometheus_text(text))


def test_non_cumulative_histogram_flagged():
    text = ("# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 5\n'
            'lat_bucket{le="1"} 3\n'      # decreasing: not cumulative
            'lat_bucket{le="+Inf"} 5\n'
            "lat_sum 1\n"
            "lat_count 5\n")
    assert any("cumulative" in v.lower()
               for v in check_prometheus_text(text))


def test_histogram_missing_inf_bucket_flagged():
    text = ("# TYPE lat histogram\n"
            'lat_bucket{le="0.1"} 5\n'
            "lat_sum 1\n"
            "lat_count 5\n")
    assert any("+Inf" in v for v in check_prometheus_text(text))


class TestCli:
    def test_ok_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text(GOOD)
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        path.write_text("up banana\n")
        assert main([str(path)]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.prom")]) != 0
