"""Harness observability outputs end-to-end (ISSUE 2).

One quick fig9 run emitting every output produces the HTML report,
series CSV and Prometheus exposition; the artifacts are then examined
per-test.  A second run checks the metrics-alone summary path.
"""

import csv
import json
import re

import pytest

from repro.harness.__main__ import main
from repro.obs.report import _sparkline


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs-report")
    paths = {
        "report": out / "report.html",
        "series": out / "series.csv",
        "prom": out / "metrics.prom",
        "metrics": out / "metrics.json",
    }
    rc = main([
        "fig9", "--scale", "quick", "--out-dir", str(out),
        "--emit", "report,series,prom,metrics",
        "--slo", "*:60:0.99,window=20",
        "--sample-interval", "2.0",
    ])
    assert rc == 0
    return paths


class TestHtmlReport:
    def test_report_is_self_contained_and_non_empty(self, artifacts):
        html = artifacts["report"].read_text()
        assert len(html) > 10_000
        assert html.count("<svg") >= 2  # sparklines are inline, not linked
        assert "<script src" not in html and "<link" not in html

    def test_report_has_the_required_sections(self, artifacts):
        html = artifacts["report"].read_text()
        assert "GPU utilization" in html
        assert "Tenant attribution" in html
        assert "SLO compliance" in html
        assert "Placements" in html  # per-run decision-log excerpt

    def test_report_covers_the_fig9_runs(self, artifacts):
        html = artifacts["report"].read_text()
        for run in ("CUDA", "GMin-Strings", "GWtMin-Rain"):
            assert run in html

    def test_report_ships_a_dark_theme(self, artifacts):
        html = artifacts["report"].read_text()
        assert "prefers-color-scheme: dark" in html
        assert 'data-theme="dark"' in html

    def test_report_polylines_stay_inside_their_box(self, artifacts):
        # fig9 reuses one run label across sub-runs whose sim clock
        # restarts, so its series times go backwards.
        html = artifacts["report"].read_text()
        polylines = re.findall(r'<polyline points="([^"]*)"', html)
        assert polylines
        for points in polylines:
            _assert_inside_box(points, width=420, height=36)


def _assert_inside_box(points, width, height, pad=2):
    coords = [tuple(map(float, p.split(","))) for p in points.split()]
    xs = [x for x, _ in coords]
    assert xs == sorted(xs)
    assert all(pad <= x <= width - pad for x in xs)
    assert all(pad <= y <= height - pad for _, y in coords)


def test_sparkline_draws_restarting_times_left_to_right():
    # Two sub-runs under one label: sim time restarts at 0 after t=4.
    points = [(0.0, 0.2), (2.0, 0.5), (4.0, 0.9), (0.0, 1.3), (2.0, -0.1)]
    svg = _sparkline(points, width=420, height=36, y_max=1.0)
    drawn = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    _assert_inside_box(drawn, width=420, height=36)
    xs = [float(p.split(",")[0]) for p in drawn.split()]
    assert xs[0] == 2.0 and xs[-1] == 418.0
    assert len(set(xs)) == len(points)


class TestSeriesCsv:
    def test_round_trips_as_long_format_csv(self, artifacts):
        with open(artifacts["series"]) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["name", "labels", "t", "value"]
        assert rows
        names = {r[0] for r in rows}
        assert "gpu.util" in names
        for r in rows[:200]:
            float(r[2]), float(r[3])  # parse cleanly

    def test_util_series_stays_in_unit_range(self, artifacts):
        with open(artifacts["series"]) as fh:
            reader = csv.reader(fh)
            next(reader)
            for name, _, _, value in reader:
                if name == "gpu.util":
                    assert 0.0 <= float(value) <= 1.0


class TestPrometheusExposition:
    def test_round_trip_parse(self, artifacts):
        """Every sample line must scan as NAME{labels} VALUE and agree
        with its preceding # TYPE declaration."""
        types = {}
        samples = 0
        for line in artifacts["prom"].read_text().splitlines():
            if not line:
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert kind in ("counter", "gauge", "histogram")
                types[name] = kind
                continue
            assert not line.startswith("#")
            metric, _, value = line.rpartition(" ")
            float(value)
            name = metric.split("{")[0]
            # Counters are declared with their _total name; histogram
            # samples hang _bucket/_sum/_count off the declared base.
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
                    break
            assert name in types or base in types, f"sample {metric!r} has no # TYPE"
            samples += 1
        assert samples > 10
        assert any(k == "counter" for k in types.values())
        assert any(k == "histogram" for k in types.values())

    def test_names_are_prefixed_and_sanitized(self, artifacts):
        for name in (m for m in _prom_metric_names(artifacts["prom"])):
            assert name.startswith("repro_")
            assert "." not in name and "-" not in name


def _prom_metric_names(path):
    for line in path.read_text().splitlines():
        if line.startswith("# TYPE "):
            yield line.split(" ")[2]


class TestMetricsJson:
    def test_metrics_json_carries_the_new_sections(self, artifacts):
        data = json.loads(artifacts["metrics"].read_text())
        assert data["series"]
        assert data["attribution"]
        assert data["slo"]
        row = data["attribution"][0]
        for key in ("tenant", "gid", "gpu_busy_s", "interference_index"):
            assert key in row


class TestMetricsOutAlone:
    def test_summary_has_percentiles_without_trace_flag(self, tmp_path, capsys):
        """Satellite: --emit metrics alone still yields span-derived p50/p99."""
        path = tmp_path / "metrics.json"
        assert main(["fig9", "--scale", "quick", "--out-dir", str(tmp_path),
                     "--emit", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "request completion:" in out
        assert "p50" in out and "p99" in out
        data = json.loads(path.read_text())
        assert data["spans"]  # spans were collected without --trace


class TestCliValidation:
    def test_rejects_non_positive_sample_interval(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--sample-interval", "0"])
        assert "--sample-interval" in capsys.readouterr().err

    def test_rejects_malformed_slo_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--slo", "MC"])
        assert "bad SLO item" in capsys.readouterr().err

    def test_rejects_bad_slo_window(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--slo", "MC:1.0,window=0"])
        assert "window" in capsys.readouterr().err

    def test_rejects_unwritable_output_path(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit):
            main(["fig1", "--out-dir", str(blocker / "run"), "--emit", "report"])
        assert "--out-dir: cannot create" in capsys.readouterr().err
