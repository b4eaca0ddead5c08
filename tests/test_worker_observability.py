"""Cross-boundary observability: trace propagation through the worker
pools and the process backend, merged multi-process traces, worker
metrics, and channel telemetry.

The coordinator's tracer cannot see into pool workers (threads blocked in
their own loops, forked processes with separate address spaces); these
tests pin the whole relay: a ``TraceContext`` rides each dispatched job,
the worker records ``worker.execute`` on a local tracer against its real
pid/tid, the buffer ships home over the existing done queue, and
``merge_traces`` merges it, on the one ``perf_counter_ns`` clock every
worker shares, into one Perfetto-loadable trace where request spans nest
over per-worker execute spans on distinct lanes.
"""

from __future__ import annotations

import json
import os
import pickle
import threading

import numpy as np
import pytest

from tests.conftest import build_wide_model, compiled_pool
from repro.models import build_model
from repro.observability import MetricsRegistry, Tracer
from repro.observability.context import TraceContext
from repro.observability.merge import (
    WorkerTraceBuffer,
    merge_traces,
    write_merged_trace,
)
from repro.pipeline import ramiel_compile
from repro.runtime.channels import (
    ChannelTelemetry,
    InstrumentedChannel,
    instrument_channels,
    make_thread_channels,
    payload_nbytes,
)
from repro.runtime.session import create_session
from repro.runtime.worker_pool import WarmExecutorPool
from repro.serving import example_inputs


@pytest.fixture(scope="module")
def compiled():
    model = build_model("squeezenet", variant="small")
    result = ramiel_compile(model)
    feed = example_inputs(model, seed=3)
    return model, result, feed


# ---------------------------------------------------------------------------
# TraceContext
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_from_tracer_none_is_none(self):
        assert TraceContext.from_tracer(None) is None

    def test_pickles_and_round_trips(self):
        tracer = Tracer()
        ctx = TraceContext.from_tracer(tracer, parent_span="pool.run")
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        assert clone.trace_id == ctx.trace_id
        assert clone.parent_span == "pool.run"

    def test_span_args_and_queue_wait(self):
        ctx = TraceContext(trace_id=7, parent_span="p", dispatch_ns=100)
        args = ctx.span_args({"cluster": "0"})
        assert args["trace_id"] == "7"
        assert args["parent"] == "p"
        assert args["cluster"] == "0"
        assert ctx.queue_wait_ns(150) == 50
        assert ctx.queue_wait_ns(50) == 0  # never negative

    def test_contexts_from_one_tracer_get_distinct_ids(self):
        tracer = Tracer()
        ids = {TraceContext.from_tracer(tracer).trace_id for _ in range(10)}
        assert len(ids) == 10


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------
class TestMergeTraces:
    def _buffer(self, worker, pid, tid, spans=(), dropped=0):
        return WorkerTraceBuffer(worker=worker, pid=pid, tid=tid,
                                 events=list(spans), dropped=dropped)

    def test_merges_synthetic_buffers_onto_coordinator_clock(self):
        tracer = Tracer()
        t0 = tracer.now()
        tracer.emit("request", "request", t0, t0 + 10_000_000)
        span_start = t0 + 2_000_000   # 2ms in, on the shared clock
        buffers = [self._buffer(
            "cluster-0", pid=9999, tid=1,
            spans=[("worker.execute", "worker", span_start, 1_000_000,
                    {"cluster": "0"})], dropped=3)]
        payload = merge_traces(tracer, buffers)
        spans = {e["name"]: e for e in payload["traceEvents"]
                 if e.get("ph") == "X"}
        request, execute = spans["request"], spans["worker.execute"]
        # merged as recorded: the worker span sits inside the request span
        assert execute["ts"] - request["ts"] == 2_000
        assert request["ts"] <= execute["ts"]
        assert (execute["ts"] + execute["dur"]
                <= request["ts"] + request["dur"])
        assert execute["pid"] == 9999
        assert request["pid"] == os.getpid()
        assert payload["metadata"]["worker_drops"] == {"cluster-0": 3}

    def test_worker_lanes_get_process_and_thread_names(self):
        payload = merge_traces(None, [
            self._buffer("cluster-0", pid=111, tid=5,
                         spans=[("x", "worker", 1000, 10, None)]),
            self._buffer("cluster-1", pid=222, tid=6,
                         spans=[("y", "worker", 2000, 10, None)]),
        ])
        metas = [e for e in payload["traceEvents"] if e.get("ph") == "M"]
        process_names = {e["pid"]: e["args"]["name"] for e in metas
                         if e["name"] == "process_name"}
        assert "cluster-0" in process_names[111]
        assert "cluster-1" in process_names[222]
        thread_names = {(e["pid"], e["tid"]) for e in metas
                        if e["name"] == "thread_name"}
        assert (111, 5) in thread_names and (222, 6) in thread_names
        assert payload["metadata"]["workers"] == 2

    def test_write_merged_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "merged.json"
        write_merged_trace(path, None, [
            self._buffer("cluster-0", pid=1, tid=1,
                         spans=[("x", "w", 100, 10, {"k": "v"})])])
        loaded = json.loads(path.read_text())
        assert any(e.get("ph") == "X" for e in loaded["traceEvents"])


# ---------------------------------------------------------------------------
# Warm pools (thread + process backends)
# ---------------------------------------------------------------------------
class TestPoolTracePropagation:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_merged_trace_has_per_worker_lanes_nested_in_request(
            self, compiled, backend, tmp_path):
        model, result, feed = compiled
        tracer = Tracer()
        weights = result.optimized_model.graph.initializers
        pool = WarmExecutorPool(result.parallel_module, weights,
                                backend=backend, tracer=tracer)
        try:
            runs = 3
            for i in range(runs):
                with tracer.span("request", cat="request",
                                 args={"iteration": str(i)}):
                    pool.run(feed)
            buffers = pool.worker_trace_buffers()
        finally:
            pool.close()
        # the compiled module's two clusters, one worker each on any host
        assert len(buffers) == pool.num_clusters == 2
        for buffer in buffers:
            # one worker.execute span per run per worker, zero drops
            names = [name for name, *_ in buffer.events]
            assert names.count("worker.execute") == runs
            assert buffer.dropped == 0
            if backend == "process":
                assert buffer.pid != os.getpid()
            else:
                assert buffer.pid == os.getpid()
                assert buffer.tid != threading.get_ident()

        payload = merge_traces(tracer, buffers, process_name=model.name)
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        requests = [e for e in spans if e["name"] == "request"]
        executes = [e for e in spans if e["name"] == "worker.execute"]
        assert len(requests) == runs
        assert len(executes) == runs * pool.num_clusters
        # distinct lanes: every (pid, tid) of a worker span differs from
        # the coordinator's, and each worker has its own
        lanes = {(e["pid"], e["tid"]) for e in executes}
        assert len(lanes) == pool.num_clusters
        coordinator_lane = (os.getpid(), threading.get_ident())
        assert coordinator_lane not in lanes
        # time nesting: every execute sits inside some request span
        for execute in executes:
            assert any(r["ts"] <= execute["ts"] and
                       execute["ts"] + execute["dur"] <= r["ts"] + r["dur"]
                       for r in requests), (
                "worker.execute span does not nest inside any request "
                "span after clock alignment")
        assert payload["metadata"]["worker_drops"] == {
            b.worker: 0 for b in buffers}
        json.dumps(payload)  # serializable end to end

    def test_untraced_pool_ships_no_buffers(self, compiled):
        _, result, feed = compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights) as pool:
            pool.run(feed)
            assert pool.worker_trace_buffers() == []
            assert pool.stats()["runs"] == 1

    def test_set_tracer_after_construction_enables_spans(self, compiled):
        _, result, feed = compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights) as pool:
            pool.run(feed)
            tracer = Tracer()
            pool.set_tracer(tracer)
            pool.run(feed)
            buffers = pool.worker_trace_buffers()
            assert buffers and all(b.events for b in buffers)
            pool.set_tracer(None)
            pool.clear_worker_traces()
            pool.run(feed)
            assert pool.worker_trace_buffers() == []

    def test_traced_outputs_match_untraced(self, compiled):
        _, result, feed = compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights) as plain, \
                WarmExecutorPool(result.parallel_module, weights,
                                 tracer=Tracer()) as traced:
            expected = plain.run(feed)
            actual = traced.run(feed)
        for name, value in expected.items():
            np.testing.assert_array_equal(np.asarray(actual[name]),
                                          np.asarray(value))

    def test_thread_workers_share_the_coordinator_clock(self, compiled):
        """A thread worker records on the coordinator's own
        ``perf_counter_ns``: merged as recorded, each ``worker.execute``
        lies inside the ``pool.run`` that dispatched it, on the
        coordinator's pid."""
        _, result, feed = compiled
        tracer = Tracer()
        with compiled_pool(result, "thread", tracer=tracer) as pool:
            for _ in range(3):
                pool.run(feed)
            buffers = pool.worker_trace_buffers()
        payload = merge_traces(tracer, buffers)
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        runs = {e["args"]["trace_id"]: e for e in spans
                if e["name"] == "pool.run"}
        executes = [e for e in spans if e["name"] == "worker.execute"]
        assert len(runs) == 3
        assert len(executes) == 3 * pool.num_clusters
        assert {e["pid"] for e in executes} == {os.getpid()}
        for span in executes:
            run = runs[span["args"]["trace_id"]]
            assert run["ts"] <= span["ts"]
            assert span["ts"] + span["dur"] <= run["ts"] + run["dur"]


class TestPoolMetricsAndRestart:
    def test_stats_and_registry_metrics(self, compiled):
        _, result, feed = compiled
        weights = result.optimized_model.graph.initializers
        tracer = Tracer()
        registry = MetricsRegistry()
        with WarmExecutorPool(result.parallel_module, weights,
                              tracer=tracer) as pool:
            pool.publish_metrics(registry, labels={"model": "squeezenet"})
            for _ in range(2):
                pool.run(feed)
            stats = pool.stats()
            assert stats["runs"] == 2
            assert stats["failures"] == 0
            assert stats["execute_ns_total"] > 0
            assert stats["dispatch_ns_total"] > 0
            assert len(stats["workers"]) == pool.num_clusters
            for row in stats["workers"]:
                assert row["jobs"] == 2
                assert row["execute_ns_total"] > 0
            # thread backend with a tracer wraps fresh channels per run
            assert stats["channels"] is not None
            assert stats["channels"]["puts"] == stats["channels"]["gets"]
            assert stats["channels"]["put_bytes"] > 0

            labels = {"model": "squeezenet"}
            snapshot = registry.snapshot()
            assert snapshot['pool_runs_total{model="squeezenet"}'][
                "value"] == 2
            assert snapshot['pool_channel_put_bytes_total'
                            '{model="squeezenet"}']["value"] > 0
            per_worker = registry.series("pool_worker_jobs_total")
            assert len(per_worker) == pool.num_clusters
            run_hist = registry.get("pool_run_seconds", labels)
            assert run_hist.count == 2
            exec_hist = registry.get("pool_worker_execute_seconds", labels)
            assert exec_hist.count == 2 * pool.num_clusters

    def test_process_backend_ships_channel_deltas(self, compiled):
        _, result, feed = compiled
        weights = result.optimized_model.graph.initializers
        # no tracer: slot channels account themselves
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as pool:
            pool.run(feed)
            channels = pool.stats()["channels"]
        # the child processes' counters are copy-on-write invisible; the
        # totals only exist because per-job deltas were shipped home
        assert channels is not None
        assert channels["puts"] > 0 and channels["gets"] > 0
        # a value is written once however many clusters read it
        assert channels["puts"] <= channels["gets"]
        assert channels["put_bytes"] <= channels["get_bytes"]
        assert channels["overflow_puts"] == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_restart_recovers_a_broken_pool(self, compiled, backend):
        _, result, feed = compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend) as pool:
            expected = pool.run(feed)
            # Missing graph inputs: the first cluster fails fast while the
            # others block on channels fed by it, so the run ends at the
            # watchdog — keep it short.
            with pytest.raises(Exception):
                pool.run({}, timeout=3.0)
            assert pool.broken
            assert pool.stats()["failures"] == 1
            pool.heal()
            assert not pool.broken
            outputs = pool.run(feed)
            assert set(outputs) == set(expected)
            for name, value in expected.items():
                np.testing.assert_array_equal(np.asarray(outputs[name]),
                                              np.asarray(value))
            assert pool.stats()["runs"] == 2


# ---------------------------------------------------------------------------
# Session + one-shot runtime integration
# ---------------------------------------------------------------------------
class TestSessionWorkerTraces:
    @pytest.mark.parametrize("executor", ["pool", "process"])
    def test_session_produces_single_merged_chrome_trace(
            self, executor, tmp_path, pin_cores):
        # six clusters placed on two cores: one lane per worker, not per cluster
        pin_cores(2)
        model = build_model("inception_v3", variant="small")
        feed = example_inputs(model, seed=3)
        tracer = Tracer()
        session = create_session(model, executor=executor, tracer=tracer)
        try:
            session.run(feed)
            buffers = session.worker_trace_buffers()
            assert len(buffers) == session.stats()["placement"]["workers"] == 2
            path = tmp_path / f"{executor}.json"
            payload = write_merged_trace(path, tracer, buffers,
                                         process_name=model.name)
        finally:
            session.close()
        loaded = json.loads(path.read_text())
        assert loaded["metadata"]["workers"] == len(buffers)
        names = {e["name"] for e in loaded["traceEvents"]
                 if e.get("ph") == "X"}
        assert {"session.run", "pool.run", "worker.execute"} <= names
        assert payload["metadata"]["worker_drops"] == {
            b.worker: 0 for b in buffers}

    def test_plain_session_has_no_worker_buffers(self, compiled):
        model, result, feed = compiled
        session = create_session(result, executor="plan", tracer=Tracer())
        try:
            session.run(feed)
            assert session.worker_trace_buffers() == []
        finally:
            session.close()

    def test_session_stats_expose_pool_counters(self, compiled):
        _, result, feed = compiled
        session = create_session(result, executor="pool")
        try:
            session.run(feed)
            stats = session.stats()
            assert stats["pool"]["runs"] == 1
            assert stats["pool_clusters"] == stats["pool"]["clusters"]
            assert stats["pool_clusters"] == stats["placement"]["workers"]
        finally:
            session.close()


class TestExecuteGeneratedModuleTracing:
    """A traced pool used once ships every worker's span buffer home."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_shot_workers_ship_buffers(self, compiled, backend):
        _, result, feed = compiled
        weights = result.optimized_model.graph.initializers
        tracer = Tracer()
        with WarmExecutorPool(result.parallel_module, weights, backend=backend,
                              tracer=tracer) as pool:
            outputs = pool.run(feed)
            collector = pool.worker_trace_buffers()
        assert outputs
        assert len(collector) == len(
            result.parallel_module.module.CLUSTER_FUNCTIONS)
        for buffer in collector:
            assert any(name == "worker.execute"
                       for name, *_ in buffer.events)
        coordinator = [e.name for e in tracer.events()]
        assert "pool.run" in coordinator
        payload = merge_traces(tracer, collector)
        json.dumps(payload)

    def test_process_lanes_merge_on_the_raw_clock(self):
        """Worker spans merge on the ``perf_counter_ns`` they were recorded
        with.  Dispatch precedes a worker's receipt of its job, and its
        reply precedes ``run``'s return, so on a shared clock every
        ``worker.execute`` lies inside the ``pool.run`` that dispatched it."""
        model = build_wide_model()
        result = ramiel_compile(model)
        feed = example_inputs(model, seed=11)
        tracer = Tracer()
        with compiled_pool(result, "process", tracer=tracer) as pool:
            assert pool.num_clusters == 4
            for _ in range(10):
                pool.run(feed)
            buffers = pool.worker_trace_buffers()
        payload = merge_traces(tracer, buffers)
        assert not any("offset" in key for key in payload["metadata"])
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        runs = {e["args"]["trace_id"]: e for e in spans
                if e["name"] == "pool.run"}
        executes = [e for e in spans if e["name"] == "worker.execute"]
        assert len(runs) == 10 and len(executes) == 40
        lanes = {e["pid"] for e in executes}
        assert len(lanes) == 4 and os.getpid() not in lanes
        for span in executes:
            run = runs[span["args"]["trace_id"]]
            assert run["ts"] <= span["ts"]
            assert span["ts"] + span["dur"] <= run["ts"] + run["dur"]

    def test_untraced_call_is_unchanged(self, compiled):
        _, result, feed = compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="thread") as pool:
            assert pool.run(feed)


# ---------------------------------------------------------------------------
# Channel telemetry primitives
# ---------------------------------------------------------------------------
class TestChannelTelemetry:
    def test_payload_nbytes_counts_arrays_and_containers(self):
        arr = np.zeros((4, 4), np.float32)
        assert payload_nbytes(arr) == 64
        assert payload_nbytes({"a": arr, "b": arr}) == 128
        assert payload_nbytes([arr, (arr, b"xyz")]) == 131
        assert payload_nbytes(object()) == 0

    def test_instrumented_channel_accounts_puts_and_gets(self):
        telemetry = ChannelTelemetry()
        channels = instrument_channels(
            make_thread_channels(["c"]), telemetry)
        channel = channels["c"]
        assert isinstance(channel, InstrumentedChannel)
        payload = np.ones(10, np.float64)
        channel.put(payload)
        assert not channel.empty()
        out = channel.get()
        np.testing.assert_array_equal(out, payload)
        snap = telemetry.snapshot()
        assert snap["puts"] == snap["gets"] == 1
        assert snap["put_bytes"] == snap["get_bytes"] == 80
        assert snap["put_ns"] >= 0 and snap["get_ns"] > 0

    def test_delta_subtracts_field_wise(self):
        before = {"puts": 1, "gets": 2, "put_bytes": 10, "get_bytes": 20,
                  "put_ns": 5, "get_ns": 6}
        after = {"puts": 3, "gets": 2, "put_bytes": 40, "get_bytes": 20,
                 "put_ns": 9, "get_ns": 6}
        delta = ChannelTelemetry.delta(after, before)
        assert delta == {"puts": 2, "gets": 0, "put_bytes": 30,
                         "get_bytes": 0, "put_ns": 4, "get_ns": 0}
