"""Tests for the Ramiel pipeline, the analysis harness and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reports import format_rows, render_comparison
from repro.analysis.slack import slack_report
from repro.analysis.speedup import (
    ExperimentConfig,
    cluster_model,
    hypercluster_speedups,
    measured_speedup,
    output_error,
    run_full_experiment,
    run_lc_experiment,
)
from repro.cli import main as cli_main
from repro.models import build_model
from repro.pipeline import PipelineConfig, ramiel_compile
from repro.runtime import execute_model


class TestPipeline:
    def test_compile_small_squeezenet(self, rng):
        model = build_model("squeezenet", variant="small")
        result = ramiel_compile(model)
        summary = result.summary()
        assert summary["clusters"] >= 2
        assert summary["clusters_before_merging"] >= summary["clusters"]
        assert result.compile_time_s > 0
        assert result.parallel_module is not None

    def test_pipeline_outputs_match_interpreter(self, rng):
        model = build_model("squeezenet", variant="small")
        result = ramiel_compile(model)
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        ref = execute_model(model, {"input": x})
        seq = result.run_sequential({"input": x})
        par = result.run_parallel({"input": x}, backend="thread")
        for key in ref:
            np.testing.assert_allclose(ref[key], seq[key], rtol=1e-4, atol=1e-5)
            np.testing.assert_allclose(ref[key], par[key], rtol=1e-4, atol=1e-5)

    def test_pruning_stage_runs_for_bert(self):
        model = build_model("bert", variant="small")
        result = ramiel_compile(model, prune=True)
        assert result.pruning_stats is not None
        assert result.pruning_stats["nodes_removed"] > 0
        assert result.optimized_model.num_nodes < model.num_nodes

    def test_cloning_stage(self):
        model = build_model("googlenet", variant="small")
        result = ramiel_compile(model, clone=True, prune=False)
        assert result.cloning_report is not None
        assert result.cloning_report.clones_created > 0

    def test_hypercluster_batch_mode(self):
        model = build_model("squeezenet", variant="small")
        result = ramiel_compile(model, batch_size=4, generate_code=False)
        base = ramiel_compile(model, generate_code=False)
        assert result.num_clusters == base.num_clusters
        assert len(result.clustering.dfg) == 4 * len(base.clustering.dfg)

    def test_generate_code_disabled(self):
        model = build_model("squeezenet", variant="small")
        result = ramiel_compile(model, generate_code=False)
        assert result.parallel_module is None
        with pytest.raises(RuntimeError):
            result.run_parallel({})

    def test_config_overrides(self):
        model = build_model("squeezenet", variant="small")
        config = PipelineConfig(prune=False, generate_code=False)
        result = ramiel_compile(model, config=config, num_cores=2)
        assert result.schedule.num_cores_used <= 2

    def test_pipeline_class_wrapper(self):
        """A stored config, passed with no overrides, is the one compiled under."""
        model = build_model("squeezenet", variant="small")
        result = ramiel_compile(model, config=PipelineConfig(generate_code=False))
        assert result.sequential_module is None and result.parallel_module is None
        assert result.num_clusters >= 1

    def test_output_dir_used(self, tmp_path):
        model = build_model("squeezenet", variant="small")
        result = ramiel_compile(model, output_dir=str(tmp_path))
        assert result.parallel_module.path.parent == tmp_path


class TestAnalysisHarness:
    def test_lc_experiment_row(self):
        model = build_model("squeezenet")
        experiment = run_lc_experiment(model)
        row = experiment.as_table4_row()
        assert row["clusters"] == 2
        assert row["speedup"] == pytest.approx(experiment.speedup, abs=0.01)
        assert experiment.compile_time_s > 0

    def test_full_experiment_breakdown(self):
        model = build_model("yolo_v5")
        breakdown = run_full_experiment(model)
        assert breakdown.s_lc > 0
        assert breakdown.s_lc_dce is not None          # yolo prunes
        assert breakdown.s_overall >= breakdown.s_lc
        row = breakdown.as_row()
        assert set(row) == {"model", "s_lc", "s_lc_dce", "s_lc_clone", "s_overall"}

    def test_full_experiment_no_dce_for_squeezenet(self):
        breakdown = run_full_experiment(build_model("squeezenet"))
        assert breakdown.s_lc_dce is None               # nothing to prune
        assert breakdown.s_lc_clone is not None         # cloning applies

    def test_hypercluster_speedups_monotone_batches(self):
        model = build_model("squeezenet")
        speedups = hypercluster_speedups(model, [1, 2, 4])
        assert speedups[2] > speedups[1]
        assert speedups[4] >= speedups[2] * 0.95

    def test_simulated_intra_op_scale_reduces_times(self):
        model = build_model("inception_v3")
        config = ExperimentConfig()
        t1 = run_lc_experiment(model, config, num_threads=1)
        t4 = run_lc_experiment(model, config, num_threads=4)
        assert t4.par_time < t1.par_time
        assert t4.seq_time < t1.seq_time

    def test_measured_speedup_correctness(self, rng):
        model = build_model("squeezenet", variant="small")
        inputs = {"input": rng.standard_normal((1, 3, 32, 32)).astype(np.float32)}
        stats = measured_speedup(model, inputs, backend="thread", repeats=1)
        assert stats["max_abs_err"] < 1e-3
        assert stats["num_clusters"] == 2
        assert stats["seq_time_s"] > 0 and stats["par_time_s"] > 0

    def test_measured_speedup_reports_nan_outputs(self, rng, monkeypatch):
        # max(0.0, nan) is 0.0: an error folded with max() would read an
        # all-NaN parallel side as an exact match.
        from repro.runtime.session import Session

        run = Session.run
        monkeypatch.setattr(Session, "run", lambda self, *args, **kwargs: {
            name: np.full_like(value, np.nan)
            for name, value in run(self, *args, **kwargs).items()})
        model = build_model("squeezenet", variant="small")
        inputs = {"input": rng.standard_normal((1, 3, 32, 32)).astype(np.float32)}
        stats = measured_speedup(model, inputs, backend="thread", repeats=1)
        assert stats["max_abs_err"] == np.inf

    @pytest.mark.parametrize("got, expected", [
        ([1.0, np.nan, -np.inf, 0.0], 0.0),
        ([1.5, np.nan, -np.inf, 0.0], 0.5),
        ([-1.0, np.nan, -np.inf, 0.0], 2.0),
        ([1.0, 2.0, -np.inf, 0.0], np.inf),       # NaN moved
        ([1.0, np.nan, np.inf, 0.0], np.inf),
        ([1.0, np.nan, -np.inf, -0.0], np.inf),   # a zero's sign
        (np.array([1.0, np.nan, -np.inf, 0.0], np.float64), np.inf),
        ([[1.0, np.nan, -np.inf, 0.0]], np.inf),
    ])
    def test_output_error_is_zero_only_when_bitwise_equal(self, got, expected):
        ref = np.array([1.0, np.nan, -np.inf, 0.0], np.float32)
        got = got if isinstance(got, np.ndarray) else np.array(got, np.float32)
        assert output_error(ref, got) == expected

    def test_slack_report(self):
        model = build_model("squeezenet")
        config = ExperimentConfig()
        result = config.simulator().simulate(cluster_model(model, config))
        report = slack_report(result)
        assert report.total_slack >= 0
        assert 0 < report.mean_utilization <= 1.0
        assert set(report.as_row()) == {"model", "makespan", "total_slack", "mean_utilization"}

    def test_report_rendering(self):
        rows = [{"model": "a", "speedup": 1.2}, {"model": "b", "speedup": 0.9}]
        text = format_rows(rows)
        assert "model" in text and "speedup" in text and "a" in text
        comparison = render_comparison({"a": {"speedup": 1.2}}, {"a": {"speedup": 1.1}},
                                       keys=["speedup"])
        assert "speedup (measured)" in comparison and "speedup (paper)" in comparison


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "squeezenet" in out and "nasnet" in out

    def test_analyze(self, capsys):
        assert cli_main(["analyze", "squeezenet", "--variant", "small"]) == 0
        out = capsys.readouterr().out
        assert "parallelism" in out

    def test_compile_json(self, capsys, tmp_path):
        assert cli_main(["compile", "squeezenet", "--variant", "small",
                         "-o", str(tmp_path), "--json"]) == 0
        out = capsys.readouterr().out
        assert '"predicted_speedup"' in out
        assert list(tmp_path.glob("*.py"))

    def test_run_thread_backend(self, capsys):
        assert cli_main(["run", "squeezenet", "--variant", "small",
                         "--backend", "thread", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
