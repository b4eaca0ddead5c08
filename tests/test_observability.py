"""Tests for the unified observability layer: tracer, metrics, integration.

Covers the Chrome trace-event export schema (``ph``/``ts``/``dur``/
``pid``/``tid`` fields, well-formed same-thread nesting, matched async
begin/end pairs), the Prometheus text exposition, ring-buffer bounding,
the bounded serving-metrics reservoir, the one-registry unification of
serving + arena + binding counters, the deprecation path of
``render_serving_report``, and — the correctness gate — that a
tracing-enabled plan run stays bitwise-identical to the untraced run on
zoo models.
"""

from __future__ import annotations

import json
import math
import re
import threading

import numpy as np
import pytest

from repro.analysis.reports import render_serving_report
from repro.models import build_model
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
)
from repro.runtime.plan import ExecutionPlan
from repro.runtime.profiler import profile_plan_steps, summarize_kinds
from repro.runtime.session import create_session
from repro.serving import EngineConfig, InferenceEngine, example_inputs
from repro.serving.metrics import ServingMetrics


def small_model(name: str = "squeezenet"):
    return build_model(name, variant="small")


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------
class TestTracer:
    def test_span_context_manager_records(self):
        tracer = Tracer()
        with tracer.span("outer", cat="test", args={"k": "v"}):
            pass
        events = tracer.events()
        assert len(events) == 1
        event = events[0]
        assert event.name == "outer"
        assert event.cat == "test"
        assert event.args == {"k": "v"}
        assert event.dur_ns >= 0
        assert event.tid == threading.get_ident()

    def test_begin_end_stack_nests_per_thread(self):
        tracer = Tracer()
        tracer.begin("outer", cat="t")
        tracer.begin("inner", cat="t")
        tracer.end()
        tracer.end()
        events = tracer.events()
        # inner closes first, so it is recorded first
        assert [e.name for e in events] == ["inner", "outer"]
        inner, outer = events
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("skipped"):
            pass
        assert tracer.events() == []
        tracer.enable()
        with tracer.span("kept"):
            pass
        assert [e.name for e in tracer.events()] == ["kept"]

    def test_ring_buffer_bounds_memory_and_counts_drops(self):
        tracer = Tracer(capacity=8)
        for index in range(20):
            tracer.emit(f"e{index}", "t", 0, 1)
        stats = tracer.stats()
        assert stats["recorded"] == 20
        assert stats["buffered"] == 8
        assert stats["dropped"] == 12
        # the buffer retains the *newest* events, oldest first
        assert [e.name for e in tracer.events()] == \
            [f"e{i}" for i in range(12, 20)]

    def test_clear_resets_buffer_and_counters(self):
        tracer = Tracer(capacity=4)
        for index in range(6):
            tracer.emit(f"e{index}", "t", 0, 1)
        tracer.clear()
        stats = tracer.stats()
        assert stats == {"recorded": 0, "buffered": 0, "dropped": 0,
                         "capacity": 4, "enabled": True}
        assert tracer.events() == []

    def test_async_ids_are_unique_across_threads(self):
        tracer = Tracer()
        ids = []
        lock = threading.Lock()

        def grab():
            for _ in range(50):
                value = tracer.next_async_id()
                with lock:
                    ids.append(value)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == len(set(ids)) == 200


# ---------------------------------------------------------------------------
# Chrome trace-event export schema
# ---------------------------------------------------------------------------
class TestChromeTraceSchema:
    def test_complete_events_carry_required_fields(self):
        tracer = Tracer()
        with tracer.span("outer", cat="c"):
            with tracer.span("inner", cat="c"):
                pass
        payload = tracer.chrome_trace(process_name="proc")
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["name"] for m in metas} == {"process_name", "thread_name"}
        process_meta = next(m for m in metas if m["name"] == "process_name")
        assert process_meta["args"]["name"] == "proc"
        assert len(spans) == 2
        for span in spans:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(span)
            assert isinstance(span["ts"], float)
            assert span["dur"] >= 0
            assert span["ts"] >= 0  # relative to the tracer epoch

    def test_same_thread_spans_nest_well_formed(self):
        """On one thread track, any two X spans either nest or are disjoint."""
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("outer", cat="c"):
                with tracer.span("inner", cat="c"):
                    pass
        spans = [e for e in tracer.chrome_trace()["traceEvents"]
                 if e["ph"] == "X"]
        for a in spans:
            for b in spans:
                if a is b or a["tid"] != b["tid"]:
                    continue
                a0, a1 = a["ts"], a["ts"] + a["dur"]
                b0, b1 = b["ts"], b["ts"] + b["dur"]
                nested = (a0 >= b0 and a1 <= b1) or (b0 >= a0 and b1 <= a1)
                disjoint = a1 <= b0 or b1 <= a0
                assert nested or disjoint, (a, b)

    def test_async_spans_export_matched_begin_end_pairs(self):
        tracer = Tracer()
        id_a = tracer.next_async_id()
        id_b = tracer.next_async_id()
        tracer.emit_async("request", "request", id_a, 1000, 5000)
        tracer.emit_async("request", "request", id_b, 2000, 3000)
        events = tracer.chrome_trace()["traceEvents"]
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert len(begins) == len(ends) == 2
        begin_keys = sorted((e["cat"], e["id"]) for e in begins)
        end_keys = sorted((e["cat"], e["id"]) for e in ends)
        assert begin_keys == end_keys
        for begin in begins:
            end = next(e for e in ends if e["id"] == begin["id"])
            assert end["ts"] >= begin["ts"]

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", cat="c"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path, process_name="unit")
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert any(e["ph"] == "X" for e in payload["traceEvents"])


# ---------------------------------------------------------------------------
# Metrics instruments + registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic_and_reset(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.inc(2)
        gauge.dec(0.5)
        assert gauge.value == 1.5
        gauge.set(None)
        assert gauge.value is None

    def test_histogram_percentiles_stay_in_observed_range(self):
        histogram = Histogram("h", buckets=[0.01, 0.1, 1.0])
        values = [0.005, 0.02, 0.05, 0.2, 0.7, 2.0]
        for value in values:
            histogram.observe(value)
        assert histogram.count == len(values)
        assert histogram.sum == pytest.approx(sum(values))
        for q in (0, 50, 95, 99, 100):
            estimate = histogram.percentile(q)
            assert min(values) <= estimate <= max(values)
        assert histogram.percentile(100) == max(values)
        bounds = [bound for bound, _ in histogram.cumulative_buckets()]
        assert math.isinf(bounds[-1])
        counts = [count for _, count in histogram.cumulative_buckets()]
        assert counts == sorted(counts)  # cumulative, never decreasing
        assert counts[-1] == len(values)

    def test_registry_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", labels={"model": "m"})
        b = registry.counter("requests_total", labels={"model": "m"})
        assert a is b
        other = registry.counter("requests_total", labels={"model": "n"})
        assert other is not a
        with pytest.raises(ValueError):
            registry.gauge("requests_total")
        assert len(registry.series("requests_total")) == 2

    def test_collectors_refresh_before_snapshot(self):
        registry = MetricsRegistry()
        source = {"value": 1.0}

        def collect(reg):
            reg.gauge("pulled").set(source["value"])

        registry.register_collector(collect)
        assert registry.snapshot()["pulled"]["value"] == 1.0
        source["value"] = 7.0
        assert registry.snapshot()["pulled"]["value"] == 7.0
        registry.unregister_collector(collect)
        source["value"] = 9.0
        assert registry.snapshot()["pulled"]["value"] == 7.0

    def test_prometheus_exposition_parses(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", help="total requests").inc(3)
        registry.gauge("depth", labels={"queue": "a"}).set(2)
        registry.gauge("never_set")  # unset gauges must be omitted
        histogram = registry.histogram("latency_seconds",
                                       buckets=[0.1, 1.0])
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = registry.render_prometheus()
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
            r' [^ ]+$')
        seen_types = {}
        for line in text.strip().splitlines():
            if line.startswith("# TYPE"):
                _, _, name, metric_type = line.split()
                seen_types[name] = metric_type
            elif line.startswith("#"):
                assert line.startswith("# HELP")
            else:
                assert sample_re.match(line), line
        assert seen_types == {"requests_total": "counter", "depth": "gauge",
                              "never_set": "gauge",
                              "latency_seconds": "histogram"}
        assert "requests_total 3\n" in text
        assert 'depth{queue="a"} 2' in text
        # the unset gauge gets a TYPE line but no sample
        assert re.search(r"^never_set ", text, re.M) is None
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert "latency_seconds_count 2" in text

    def test_histogram_bucket_counts_are_cumulative_in_exposition(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=[1.0, 2.0])
        for value in (0.5, 1.5, 3.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        buckets = dict(re.findall(r'h_bucket\{le="([^"]+)"\} (\d+)', text))
        assert buckets == {"1.0": "1", "2.0": "2", "+Inf": "3"}


# ---------------------------------------------------------------------------
# Bounded serving metrics (one latency histogram)
# ---------------------------------------------------------------------------
class TestBoundedServingMetrics:
    def test_reservoir_bounds_retained_samples(self):
        """Latencies live in one fixed-bucket histogram: a thousand
        completions keep no samples, and ``snapshot()`` reads the same
        percentiles the registry exposes."""
        metrics = ServingMetrics()
        histogram = metrics.registry.histogram(
            "serving_request_latency_seconds")
        buckets = len(histogram.cumulative_buckets())
        for index in range(1000):
            metrics.record_completed((index + 1) / 1000.0)
        snapshot = metrics.snapshot()
        assert snapshot["completed"] == 1000
        assert len(histogram.cumulative_buckets()) == buckets
        # mean and max are exact (running aggregates)
        assert snapshot["latency_ms"]["mean"] == pytest.approx(500.5)
        assert snapshot["latency_ms"]["max"] == pytest.approx(1000.0)
        # the percentiles are the histogram's, so /metrics agrees
        exposed = metrics.registry.snapshot()["serving_request_latency_seconds"]
        for quantile in ("p50", "p95", "p99"):
            assert snapshot["latency_ms"][quantile] == pytest.approx(
                exposed[quantile] * 1e3)
        # bucket interpolation stays inside the observed range and order
        assert 0 < snapshot["latency_ms"]["p50"] < 1000.0
        assert snapshot["latency_ms"]["p50"] <= snapshot["latency_ms"]["p95"]
        assert snapshot["latency_ms"]["p95"] <= snapshot["latency_ms"]["p99"]

    def test_small_windows_are_exact(self):
        metrics = ServingMetrics()
        for latency_ms in (10.0, 20.0, 30.0, 40.0):
            metrics.record_completed(latency_ms / 1e3)
        snapshot = metrics.snapshot()
        # the median of [10, 20, 30, 40] falls on the 25 ms bucket bound
        assert snapshot["latency_ms"]["p50"] == pytest.approx(25.0)
        assert snapshot["latency_ms"]["max"] == pytest.approx(40.0)

    def test_reset_clears_reservoir_and_registry_mirror(self):
        registry = MetricsRegistry()
        metrics = ServingMetrics(registry=registry)
        for _ in range(3):
            metrics.record_submitted()
        metrics.record_completed(0.01)
        assert registry.get_value(
            "serving_requests_submitted_total", default=0) == 3
        metrics.reset()
        assert metrics.snapshot()["submitted"] == 0
        assert registry.get_value(
            "serving_requests_submitted_total", default=0) == 0
        assert registry.get_value(
            "serving_request_latency_seconds", default=0) == 0

    def test_private_registry_is_the_only_store(self):
        """Without a registry argument the metrics own a private one, and
        snapshot() is a view over its serving_* instruments."""
        metrics = ServingMetrics()
        metrics.record_submitted()
        metrics.record_batch(3)
        metrics.record_batch(3)
        metrics.record_compile(0.25)
        registry = metrics.registry
        assert registry.get_value("serving_requests_submitted_total") == 1
        assert registry.get_value("serving_batches_by_size_total",
                                  labels={"size": "3"}) == 2
        snapshot = metrics.snapshot()
        assert snapshot["batches"] == 2 and snapshot["mean_batch_size"] == 3.0
        assert snapshot["batch_histogram"] == {3: 2}
        assert snapshot["cache"]["compile_time_s"] == 0.25
        assert isinstance(snapshot["submitted"], int)
        metrics.reset()
        assert metrics.snapshot()["batch_histogram"] == {}
        assert metrics.snapshot()["mean_batch_size"] is None


# ---------------------------------------------------------------------------
# Traced execution stays bitwise-identical (the correctness gate)
# ---------------------------------------------------------------------------
class TestTracedExecutionIdentity:
    @pytest.mark.parametrize("model_name", ["squeezenet", "googlenet"])
    def test_traced_plan_bitwise_identical_to_untraced(self, model_name):
        model = small_model(model_name)
        feed = example_inputs(model, batch_size=2, seed=3)
        plan = ExecutionPlan(model)
        reference = plan.run(feed)

        tracer = Tracer()
        plan.enable_tracing(tracer)
        assert plan.stats()["tracing"] is True
        traced = plan.run(feed)
        for name, expected in reference.items():
            assert np.array_equal(np.asarray(traced[name]),
                                  np.asarray(expected)), name

        plan.disable_tracing()
        assert plan.stats()["tracing"] is False
        untraced_again = plan.run(feed)
        for name, expected in reference.items():
            assert np.array_equal(np.asarray(untraced_again[name]),
                                  np.asarray(expected)), name

        # one span per plan step, labelled op:node with step args
        step_spans = [e for e in tracer.events() if e.cat == "plan"]
        assert len(step_spans) == plan.stats()["steps"]
        assert all(":" in e.name for e in step_spans)
        assert all({"op", "node"} <= set(e.args) for e in step_spans)

    def test_session_span_encloses_plan_steps(self):
        model = small_model()
        session = create_session(model)
        feed = example_inputs(model, batch_size=1, seed=5)
        tracer = Tracer()
        session.set_tracer(tracer)
        try:
            session.run(feed)
        finally:
            session.close()
        events = tracer.events()
        run_spans = [e for e in events if e.name == "session.run"]
        step_spans = [e for e in events if e.cat == "plan"]
        assert len(run_spans) == 1
        assert step_spans
        run_span = run_spans[0]
        for step in step_spans:
            assert run_span.start_ns <= step.start_ns
            assert step.end_ns <= run_span.end_ns

    def test_traced_warm_plan_stays_zero_alloc(self):
        model = small_model()
        feed = example_inputs(model, batch_size=2, seed=1)
        plan = ExecutionPlan(model)
        plan.enable_tracing(Tracer())
        for _ in range(2):
            plan.run(feed)
        allocs_warm = plan.stats()["arena"]["allocations"]
        for _ in range(3):
            plan.run(feed)
        assert plan.stats()["arena"]["allocations"] == allocs_warm

    def test_profile_plan_steps_rows_in_schedule_order(self):
        model = small_model()
        feed = example_inputs(model, batch_size=1, seed=2)
        rows = profile_plan_steps(model, feed, num_runs=3, warmup=1)
        plan = ExecutionPlan(model)
        assert len(rows) == plan.stats()["steps"]
        assert all(":" in row["step"] for row in rows)  # "op:node" labels
        assert [row["node"] for row in rows] == [node.name for node in plan.order]
        for row in rows:
            assert row["count"] == 3
            assert row["total_ms"] >= 0
            assert {"op", "node", "kind", "mean_ms", "median_ms"} <= set(row)

    def test_profile_rows_carry_the_kernel_kind(self):
        model = small_model("nasnet")  # pointwise, general and depthwise convs
        feed = example_inputs(model, batch_size=1, seed=2)
        rows = profile_plan_steps(model, feed, num_runs=2, warmup=1)
        kinds = {row["kind"] for row in rows}
        assert {"conv.pointwise", "conv.general", "conv.depthwise",
                "pool.max", "pool.avg", "BatchNormalization"} <= kinds
        for row in rows:  # a convolution's kind is its geometry record's
            assert row["kind"].startswith("conv.") == (row["op"] == "Conv")
        table = summarize_kinds(rows)
        assert [r["total_ms"] for r in table] == sorted(
            (r["total_ms"] for r in table), reverse=True)
        assert sum(r["count"] for r in table) == len(rows)
        assert sum(r["total_ms"] for r in table) == pytest.approx(
            sum(r["total_ms"] for r in rows), abs=1e-3 * len(table))

    def test_trace_verb_prints_the_by_kind_table(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["trace", "squeezenet", "--variant", "small", "--runs", "2",
                         "--warmup", "1", "-o", str(tmp_path / "trace.json")]) == 0
        printed = capsys.readouterr().out
        steps, kinds = (printed.index("-- slowest plan steps"),
                        printed.index("-- plan time by kernel kind --"))
        assert steps < kinds < printed.index("-- metrics --")
        assert "conv.pointwise" in printed[kinds:] and "share" in printed[kinds:]


# ---------------------------------------------------------------------------
# One registry across serving + arena + binding
# ---------------------------------------------------------------------------
class TestRegistryUnification:
    def test_engine_registry_exposes_serving_and_plan_counters(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        engine = InferenceEngine(EngineConfig(max_batch_size=4),
                                 registry=registry, tracer=tracer)
        model = small_model()
        feed = example_inputs(model, batch_size=1, seed=9)
        try:
            futures = [engine.submit(model, feed) for _ in range(6)]
            for future in futures:
                future.result(timeout=30)
            # snapshot while the artifact sessions are alive: the artifact
            # collector reads their worker/pool stats
            snapshot = registry.snapshot()
            (lane,) = engine._cache.values()
            worker_spans = [event for replica in lane.artifact.replicas
                            for buffer in replica.session.worker_trace_buffers()
                            for event in buffer.events]
        finally:
            engine.shutdown()
        assert snapshot["serving_requests_completed_total"]["value"] == 6
        assert snapshot["serving_requests_failed_total"]["value"] == 0
        latency = snapshot["serving_request_latency_seconds"]
        assert latency["type"] == "histogram" and latency["count"] == 6
        # replica 0's slab gauges from the artifact collector, labelled
        # per model+artifact
        assert snapshot["serving_cached_artifacts"]["value"] == 1
        for family in ("serving_plan_arena_allocations",
                       "serving_plan_slab_bytes"):
            matches = [key for key in snapshot if key.startswith(family)]
            assert matches, f"{family} missing from registry snapshot"
            assert all(f'model="{model.name}"' in key for key in matches)
        text = registry.render_prometheus()
        assert "serving_request_latency_seconds_bucket" in text

        # the request lifecycle landed in the tracer: nested
        # request -> session.run spans plus the one async queueing span
        # (the admission queue is the only place it waits), and each
        # forked worker shipped its execute spans home
        names = {e.name for e in tracer.events()}
        assert {"request.submit", "request", "qos.queue",
                "batch.execute", "session.run"} <= names
        assert "request.queue" not in names
        assert any(span[0] == "worker.execute" for span in worker_spans)

    def test_session_publish_metrics_exports_plan_gauges(self):
        registry = MetricsRegistry()
        model = small_model()
        session = create_session(model)
        session.publish_metrics(registry)
        try:
            session.run(example_inputs(model, batch_size=1, seed=4))
            snapshot = registry.snapshot()
        finally:
            session.close()
        key = f'plan_steps{{model="{model.name}"}}'
        assert snapshot[key]["value"] > 0
        assert f'plan_arena_allocations{{model="{model.name}"}}' in snapshot
        # closing the session unregisters the collector: values freeze
        # rather than erroring
        registry.snapshot()


# ---------------------------------------------------------------------------
# Report migration
# ---------------------------------------------------------------------------
class TestServingReportMigration:
    def _populated(self):
        registry = MetricsRegistry()
        metrics = ServingMetrics(registry=registry)
        for _ in range(4):
            metrics.record_submitted()
            metrics.record_completed(0.02)
        metrics.record_batch(4)
        metrics.record_cache(hit=True)
        metrics.record_cache(hit=False)
        metrics.record_compile(0.5)
        return registry, metrics

    def test_registry_renders_the_three_tables(self):
        registry, _ = self._populated()
        report = render_serving_report(registry)
        assert "-- serving summary --" in report
        assert "-- artifact cache --" in report
        assert "-- batch-size histogram --" in report


# ---------------------------------------------------------------------------
# Concurrent emit vs export (the ring-buffer drop-accounting fix)
# ---------------------------------------------------------------------------
class TestConcurrentTracerUse:
    def test_concurrent_emits_are_fully_accounted(self, tmp_path):
        """N threads hammer one small-capacity tracer while exports race
        them: every export snapshot must satisfy ``recorded == buffered +
        dropped``, and the final trace must be well-formed JSON whose span
        count plus drop count equals exactly what was emitted."""
        threads_n, per_thread = 8, 500
        tracer = Tracer(capacity=256)  # far below the emitted volume
        start = threading.Barrier(threads_n + 1)
        snapshots = []

        def emitter(worker: int) -> None:
            start.wait()
            for i in range(per_thread):
                t0 = tracer.now()
                tracer.emit(f"w{worker}.{i}", "load", t0, tracer.now())

        workers = [threading.Thread(target=emitter, args=(w,))
                   for w in range(threads_n)]
        for t in workers:
            t.start()
        start.wait()
        # export concurrently with the emitters — the racing case that
        # used to lose drops when events() and stats() read separately
        for _ in range(50):
            snapshots.append(tracer.export())
        for t in workers:
            t.join()
        snapshots.append(tracer.export())

        for snap in snapshots:
            assert snap["recorded"] == snap["buffered"] + snap["dropped"]
        final = snapshots[-1]
        assert final["recorded"] == threads_n * per_thread
        assert final["buffered"] == tracer.capacity

        path = tmp_path / "concurrent.json"
        tracer.write_chrome_trace(path)
        payload = json.loads(path.read_text())   # well-formed JSON
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert (len(spans) + payload["metadata"]["dropped"]
                == threads_n * per_thread)
        assert payload["metadata"]["recorded"] == threads_n * per_thread

    def test_concurrent_async_spans_export_matched_pairs(self):
        """Async b/e pairs emitted from many threads stay matched per
        (cat, id) in the export."""
        tracer = Tracer()  # capacity covers everything: no drops
        threads_n, per_thread = 6, 50
        start = threading.Barrier(threads_n)

        def emitter() -> None:
            start.wait()
            for _ in range(per_thread):
                with tracer.async_span("req", cat="rpc",
                                       id=tracer.next_async_id()):
                    pass

        workers = [threading.Thread(target=emitter)
                   for _ in range(threads_n)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        payload = tracer.chrome_trace()
        begins = {}
        ends = {}
        for event in payload["traceEvents"]:
            if event.get("ph") == "b":
                begins[(event["cat"], event["id"])] = event
            elif event.get("ph") == "e":
                ends[(event["cat"], event["id"])] = event
        assert len(begins) == threads_n * per_thread
        assert set(begins) == set(ends)
        for key, begin in begins.items():
            assert ends[key]["ts"] >= begin["ts"]

    def test_tracer_publishes_drop_counters_to_registry(self):
        tracer = Tracer(capacity=4)
        registry = MetricsRegistry()
        tracer.publish_metrics(registry)
        for i in range(10):
            t0 = tracer.now()
            tracer.emit(f"s{i}", "t", t0, tracer.now())
        snapshot = registry.snapshot()
        assert snapshot["tracer_spans_recorded"]["value"] == 10
        assert snapshot["tracer_spans_dropped"]["value"] == 6
        assert snapshot["tracer_spans_buffered"]["value"] == 4


# ---------------------------------------------------------------------------
# Lazy exports stay lazy (the PR 6 import-cost pattern)
# ---------------------------------------------------------------------------
class TestLazyObservabilityExports:
    def test_cross_boundary_modules_are_not_imported_eagerly(self):
        """``import repro.observability`` must not pay for the merge or
        context modules — they load on first attribute access only — and
        ``import repro`` never loads the CLI-only bench module (checked in
        a fresh interpreter)."""
        import subprocess
        import sys as _sys

        code = (
            "import sys\n"
            "import repro.observability\n"
            "lazy = ['repro.observability.merge',\n"
            "        'repro.observability.context',\n"
            "        'repro.observability.bench']\n"
            "eager = [m for m in lazy if m in sys.modules]\n"
            "assert not eager, f'eagerly imported: {eager}'\n"
            "import repro\n"
            "eager = [m for m in lazy if m in sys.modules]\n"
            "assert not eager, f'import repro pulled in: {eager}'\n"
            "import repro.runtime.profiler\n"
            "assert 'repro.runtime.ops' not in sys.modules, (\n"
            "    'the kernels (and scipy) load on the first bind, not on import')\n"
            "repro.observability.TraceContext\n"
            "assert 'repro.observability.context' in sys.modules\n"
            "repro.observability.merge_traces\n"
            "assert 'repro.observability.merge' in sys.modules\n"
            "assert 'repro.observability.bench' not in sys.modules\n"
        )
        proc = subprocess.run([_sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_lazy_names_resolve_to_real_objects(self):
        import repro
        import repro.observability as obs

        assert obs.TraceContext is repro.TraceContext
        assert callable(obs.merge_traces)
        assert obs.WorkerTraceBuffer.__name__ == "WorkerTraceBuffer"
        with pytest.raises(AttributeError):
            obs.not_a_real_export
