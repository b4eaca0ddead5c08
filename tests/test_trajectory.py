"""Perf-trajectory analysis and the ``ramiel bench-report`` gate.

``BENCH_exec.json`` artifacts were write-only until this PR; these tests
pin the read side: loading a history (files and directories, ordered by
the embedded ``created_unix`` stamp, tolerant of junk), rolling-baseline
regression detection over the machine-independent ratio metrics, the
rendered trend table, and the CLI exit codes that turn the artifact
upload into a CI gate.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.observability.trajectory import (
    MODEL_RATIO_METRICS,
    analyze_trajectory,
    load_trajectory,
    render_trend_table,
)


def bench_entry(created: int, speedup: float, sequential: float = 1.5,
                binding: float = 1.2, conv: float = 1.8) -> dict:
    return {
        "schema": "repro-exec-bench/2",
        "created_unix": created,
        "models": [{
            "model": "squeezenet",
            "speedup": speedup,
            "sequential_speedup": sequential,
            "binding_speedup": binding,
            # machine-dependent milliseconds must be ignored by the trend
            "interp_ms": 120.0,
            "plan_ms": 60.0,
        }],
        "conv_op_pr3_comparison": [{"case": "3x3s1", "speedup": conv}],
    }


def write_history(directory, entries) -> list:
    paths = []
    for index, entry in enumerate(entries):
        path = directory / f"BENCH_exec_{index}.json"
        path.write_text(json.dumps(entry))
        paths.append(str(path))
    return paths


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------
class TestLoadTrajectory:
    def test_orders_by_created_unix_not_filename(self, tmp_path):
        # files written newest-first: the loader must reorder by stamp
        write_history(tmp_path, [bench_entry(300, 2.0), bench_entry(100, 1.0),
                                 bench_entry(200, 1.5)])
        entries = load_trajectory([str(tmp_path)])
        assert [e["created_unix"] for e in entries] == [100, 200, 300]
        assert all("_path" in e for e in entries)

    def test_mixes_files_and_directories(self, tmp_path):
        sub = tmp_path / "history"
        sub.mkdir()
        write_history(sub, [bench_entry(1, 1.0)])
        single = tmp_path / "latest.json"
        single.write_text(json.dumps(bench_entry(2, 1.1)))
        entries = load_trajectory([str(sub), str(single)])
        assert len(entries) == 2

    def test_skips_junk_and_non_bench_json(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "other.json").write_text(json.dumps({"foo": 1}))
        (tmp_path / "notes.txt").write_text("ignored entirely")
        write_history(tmp_path, [bench_entry(1, 1.0)])
        entries = load_trajectory([str(tmp_path)])
        assert len(entries) == 1

    def test_missing_path_is_skipped(self, tmp_path):
        assert load_trajectory([str(tmp_path / "nope.json")]) == []


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
class TestAnalyzeTrajectory:
    def test_flat_history_is_ok(self):
        report = analyze_trajectory([bench_entry(i, 2.0) for i in range(4)])
        assert report.ok
        assert all(row.status == "ok" for row in report.rows
                   if row.baseline is not None)
        # every trended metric is a ratio; ms never appear
        assert {row.metric for row in report.rows} <= set(
            MODEL_RATIO_METRICS) | {"speedup"}
        assert not any("ms" in row.metric for row in report.rows)

    def test_detects_regression_past_threshold(self):
        entries = [bench_entry(1, 2.0), bench_entry(2, 2.1),
                   bench_entry(3, 2.0), bench_entry(4, 1.4)]
        report = analyze_trajectory(entries, threshold=0.10, window=3)
        regressed = {(r.benchmark, r.metric) for r in report.regressions}
        assert regressed == {("squeezenet", "speedup")}
        assert not report.ok
        row = report.regressions[0]
        assert row.baseline == pytest.approx(2.0333, abs=1e-3)
        assert row.delta_pct < -10
        assert row.status == "REGRESSED"

    def test_drop_within_threshold_is_ok(self):
        entries = [bench_entry(1, 2.0), bench_entry(2, 2.0),
                   bench_entry(3, 1.85)]  # -7.5% < 10%
        assert analyze_trajectory(entries, threshold=0.10).ok

    def test_first_appearance_is_new_not_regressed(self):
        report = analyze_trajectory([bench_entry(1, 2.0)])
        assert report.ok
        assert all(row.status == "new" and row.baseline is None
                   for row in report.rows)

    def test_rolling_window_bounds_the_baseline(self):
        # 10 old good runs then 3 bad ones: with window=3 the baseline
        # reflects the recent bad plateau, so the last entry is not
        # flagged against ancient glory
        entries = [bench_entry(i, 2.0) for i in range(10)]
        entries += [bench_entry(10 + i, 1.0) for i in range(4)]
        report = analyze_trajectory(entries, threshold=0.10, window=3)
        speedup_row = next(r for r in report.rows
                           if r.benchmark == "squeezenet"
                           and r.metric == "speedup")
        assert speedup_row.baseline == pytest.approx(1.0)
        assert not speedup_row.regressed

    def test_metric_appearing_midway_uses_its_own_history(self):
        old = bench_entry(1, 2.0)
        del old["conv_op_pr3_comparison"]
        report = analyze_trajectory([old, bench_entry(2, 2.0, conv=1.8)])
        conv_row = next(r for r in report.rows
                        if r.benchmark == "conv:3x3s1")
        assert conv_row.status == "new"

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            analyze_trajectory([], threshold=-0.1)
        with pytest.raises(ValueError):
            analyze_trajectory([], window=0)

    def test_as_dict_is_json_serializable(self):
        report = analyze_trajectory([bench_entry(1, 2.0),
                                     bench_entry(2, 1.0)])
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is False
        assert payload["rows"][0]["status"]


class TestRenderTrendTable:
    def test_table_and_verdict(self):
        entries = [bench_entry(1, 2.0), bench_entry(2, 1.0)]
        text = render_trend_table(analyze_trajectory(entries))
        assert "REGRESSED" in text
        assert "REGRESSION: 1 metric(s)" in text
        ok_text = render_trend_table(
            analyze_trajectory([bench_entry(1, 2.0), bench_entry(2, 2.0)]))
        assert "ok: no metric fell" in ok_text

    def test_empty_report(self):
        text = render_trend_table(analyze_trajectory([]))
        assert "no trend data" in text


# ---------------------------------------------------------------------------
# CLI gate
# ---------------------------------------------------------------------------
class TestBenchReportCli:
    def _history(self, tmp_path, regressed: bool):
        values = [2.0, 2.1, 2.0] + ([1.4] if regressed else [2.05])
        return write_history(
            tmp_path, [bench_entry(i, v) for i, v in enumerate(values)])

    def test_exits_nonzero_on_regression(self, tmp_path, capsys):
        self._history(tmp_path, regressed=True)
        code = cli_main(["bench-report", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSED" in out

    def test_exits_zero_when_ok(self, tmp_path, capsys):
        self._history(tmp_path, regressed=False)
        assert cli_main(["bench-report", str(tmp_path)]) == 0
        assert "ok: no metric fell" in capsys.readouterr().out

    def test_warn_only_reports_but_passes(self, tmp_path, capsys):
        self._history(tmp_path, regressed=True)
        code = cli_main(["bench-report", str(tmp_path), "--warn-only"])
        captured = capsys.readouterr()
        assert code == 0
        assert "REGRESSED" in captured.out
        assert "not failing the gate" in captured.err

    def test_json_output(self, tmp_path, capsys):
        self._history(tmp_path, regressed=True)
        code = cli_main(["bench-report", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False

    def test_empty_history_passes(self, tmp_path, capsys):
        code = cli_main(["bench-report", str(tmp_path)])
        assert code == 0
        assert "no parsable" in capsys.readouterr().out

    def test_threshold_flag_controls_the_gate(self, tmp_path):
        self._history(tmp_path, regressed=True)  # latest is ~31% down
        assert cli_main(["bench-report", str(tmp_path),
                         "--threshold", "0.5"]) == 0
        assert cli_main(["bench-report", str(tmp_path),
                         "--threshold", "0.05"]) == 1

    def test_invalid_threshold_is_a_usage_error(self, tmp_path, capsys):
        self._history(tmp_path, regressed=False)
        code = cli_main(["bench-report", str(tmp_path),
                         "--threshold", "-1"])
        assert code == 2
        assert "threshold" in capsys.readouterr().err
