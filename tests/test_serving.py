"""Tests for the serving subsystem: engine, lanes, micro-batching, artifact cache.

Covers batch closing (a lone request is taken at once with no timed wait,
arrivals during a held batch leave together), mismatched non-batch shapes
rejected cleanly, cache eviction when capacity is exceeded,
compile-exactly-once caching, warm-pool reuse, numerical agreement of
batched serving with the sequential reference, and the lane guarantees (a compile blocks no other artifact, a failed compile
fails only its own key, a request queued for an evicted lane is served by
its replacement, one lane thread per warm artifact and nothing engine-wide).
"""

from __future__ import annotations

import collections
import re
import threading
import time

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY, build_model
from repro.pipeline import (
    PipelineConfig,
    config_fingerprint,
    model_fingerprint,
    ramiel_compile,
)
from repro.resilience import FaultInjector, FaultSpec
from repro.runtime.session import create_session
from repro.runtime.worker_pool import ParallelExecutionError, WarmExecutorPool
from repro.observability import MetricsRegistry
from repro.serving.engine import Replica
from repro.serving import (
    ArtifactCache,
    ArtifactKey,
    DeadlineExpired,
    EngineConfig,
    EngineOverloaded,
    InferenceEngine,
    QoSConfig,
    QoSFrontend,
    ServingError,
    ShapeMismatchError,
    TenantConfig,
    example_inputs,
    scatter_outputs,
)
from tests.conftest import (
    FakeClock,
    LaneDouble,
    artifact_of,
    build_batch_folding_model,
    build_chain_model,
    build_diamond_model,
    gate_session,
    lane_of,
    managed_blas,
    serve_across_replicas,
)


def tiny_engine(**overrides) -> InferenceEngine:
    defaults = dict(max_batch_size=4, cache_capacity=4)
    defaults.update(overrides)
    return InferenceEngine(EngineConfig(**defaults))


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
class TestFingerprints:
    def test_identical_models_share_fingerprint(self):
        assert model_fingerprint(build_diamond_model()) == \
            model_fingerprint(build_diamond_model())

    def test_different_models_differ(self):
        assert model_fingerprint(build_diamond_model()) != \
            model_fingerprint(build_chain_model())

    def test_config_fields_change_fingerprint(self):
        base = config_fingerprint(PipelineConfig())
        assert config_fingerprint(PipelineConfig(clone=True)) != base
        assert config_fingerprint(PipelineConfig(num_cores=4)) != base

    def test_output_dir_and_generate_code_ignored(self):
        assert config_fingerprint(PipelineConfig(output_dir="/tmp/x",
                                                 generate_code=False)) == \
            config_fingerprint(PipelineConfig())

    def test_cache_key_includes_signature(self):
        model = build_diamond_model()
        with InferenceEngine() as engine:
            assert engine._key(model, (("x", "float32", (3,)),)) != \
                engine._key(model, (("x", "float32", (4,)),))

    def test_memoized_fingerprint_not_persisted_through_serialization(self):
        """A saved/reloaded/mutated model must re-derive its fingerprint,
        not trust the stale memo — else the serving cache serves the wrong
        compiled artifact."""
        import tempfile
        from pathlib import Path

        from repro.ir.serialization import load_model, save_model

        model = build_diamond_model()
        original_fp = model_fingerprint(model)  # memoized into metadata
        with tempfile.TemporaryDirectory() as tmp:
            path = save_model(model, Path(tmp) / "m.json")
            loaded = load_model(path)
        assert "ramiel.fingerprint" not in loaded.metadata
        assert model_fingerprint(loaded) == original_fp  # content unchanged
        name = next(iter(loaded.graph.initializers))
        loaded.graph.initializers[name] = loaded.graph.initializers[name] + 1.0
        loaded.metadata.pop("ramiel.fingerprint", None)
        assert model_fingerprint(loaded) != original_fp


# ---------------------------------------------------------------------------
# Batch closing: a free lane takes what is queued for its artifact now
# ---------------------------------------------------------------------------
class TestBatchClosing:
    """The work-conserving rule, with no wall clock: the frontend runs on a
    ``FakeClock`` nobody advances and lanes are gated on events."""

    KEY = "artifact"

    def serve(self, run_batch, max_batch, config=None):
        """A frontend with one lane serving ``KEY`` through ``run_batch``."""
        frontend = self.frontend(config)
        return frontend, LaneDouble(frontend, self.KEY, run_batch, max_batch)

    def frontend(self, config=None) -> QoSFrontend:
        frontend = QoSFrontend(config or QoSConfig(), MetricsRegistry(),
                               clock=FakeClock())
        # every wait of the dispatch path must be untimed: record the rest,
        # on every takers record — the last taker to leave drops its record
        # and the next take builds a fresh one
        frontend.timed_waits = []
        frontend.waiting = threading.Event()
        real_takers_of = frontend._takers_of

        def takers_of(key):
            takers = real_takers_of(key)
            cond = takers.cond
            if "wait" not in vars(cond):
                real_wait = cond.wait

                def wait(timeout=None):
                    if timeout is not None:
                        frontend.timed_waits.append(timeout)
                    frontend.waiting.set()
                    return real_wait(timeout)

                cond.wait = wait
            return takers

        frontend._takers_of = takers_of
        return frontend

    def take_in_thread(self, frontend, max_batch, closing=lambda: False):
        """Play a lane blocked in ``take_batch``; its result lands in a list."""
        taken = []
        thread = threading.Thread(target=lambda: taken.append(
            frontend.take_batch(self.KEY, max_batch, closing)), daemon=True)
        thread.start()
        return thread, taken

    def test_lone_request_is_taken_without_a_timed_wait(self):
        """(a) One lone request never waits for co-travellers: a lane that
        is already waiting answers it, and a lane that comes for it later
        is handed it at once — with the clock standing still."""
        batches = []

        def run_batch(stacked):
            batches.append({k: v.shape for k, v in stacked.items()})
            return {"y": stacked["x"] * 2}

        frontend, lane = self.serve(run_batch, max_batch=64)
        started = frontend.clock.now
        try:
            assert frontend.waiting.wait(timeout=5.0)  # idle lane, empty queue
            request = frontend.admit(self.KEY, {"x": np.ones((1, 4))}, 1)
            result = request.future.result(timeout=5.0)
            lane.close()
            # the lane is gone: the next take is played by hand
            lone = frontend.admit(self.KEY, {"x": np.ones((1, 4))}, 1)
            assert frontend.take_batch(self.KEY, 64) == [lone]
            assert frontend.timed_waits == []
            assert frontend.clock.now == started
        finally:
            frontend.close(drain_timeout=0.05)
        assert result["y"].shape == (1, 4)
        assert batches == [{"x": (1, 4)}]

    def test_arrivals_during_a_held_batch_leave_together(self):
        """(b) While the first batch is held in ``run_batch`` 11 more
        requests arrive; on release they leave as one batch of 8 (the cap)
        and one of 3 — weighted order across tenants, admission order
        within one."""
        order = []
        entered, release = threading.Event(), threading.Event()

        def run_batch(stacked):
            order.append([int(tag) for tag in stacked["x"][:, 0]])
            entered.set()
            assert release.wait(timeout=10.0)
            return {"y": stacked["x"] + 1}

        def admit(tag, tenant):
            return frontend.admit(
                self.KEY, {"x": np.full((1, 2), tag, dtype=np.float64)}, 1,
                tenant=tenant).future

        frontend, lane = self.serve(run_batch, max_batch=8, config=QoSConfig(
            tenants=(TenantConfig("vip", weight=10.0),)))
        try:
            futures = {0: admit(0, "bulk")}
            assert entered.wait(timeout=5.0)  # the lane holds [0]
            for tag in range(1, 9):
                futures[tag] = admit(tag, "bulk")
            for tag in range(9, 12):
                futures[tag] = admit(tag, "vip")
            release.set()
            # every request got its own row back
            for tag, future in futures.items():
                assert np.array_equal(future.result(timeout=10.0)["y"],
                                      np.full((1, 2), tag + 1))
            assert frontend.timed_waits == []
        finally:
            release.set()
            lane.close()
            frontend.close(drain_timeout=0.05)
        assert order == [[0], [9, 10, 11, 1, 2, 3, 4, 5], [6, 7, 8]]

    def test_only_expired_requests_fail_and_the_lane_keeps_waiting(self):
        """(d) A take that pops nothing but expired requests fails them
        with ``DeadlineExpired`` and goes on waiting: ``[]`` is never a
        batch."""
        frontend = self.frontend()
        try:
            late = [frontend.admit(self.KEY, {}, 1, deadline_s=0.1)
                    for _ in range(3)]
            frontend.clock.now += 0.2
            thread, taken = self.take_in_thread(frontend, 8)
            for request in late:
                with pytest.raises(DeadlineExpired):
                    request.future.result(timeout=5.0)
            live = frontend.admit(self.KEY, {}, 1, deadline_s=0.1)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert taken == [[live]]
            assert frontend.timed_waits == []
            stats = frontend.stats()
            assert stats["tenants"]["default"]["expired"] == 3
            assert stats["inflight"] == 1  # only the live one
        finally:
            frontend.close(drain_timeout=0.05)

    def test_closing_wakes_a_lane_waiting_on_an_empty_queue(self):
        """(e) ``closing()`` flipping while the lane waits returns ``None``
        once the lane is woken."""
        closing = []
        frontend = self.frontend()
        try:
            thread, taken = self.take_in_thread(frontend, 8, lambda: bool(closing))
            assert frontend.waiting.wait(timeout=5.0)
            closing.append(True)
            frontend.wake()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert taken == [None]
            assert frontend.timed_waits == []
        finally:
            frontend.close(drain_timeout=0.05)

    def test_batch_failure_fails_every_cobatched_request(self):
        def run_batch(stacked):
            raise ValueError("kernel exploded")

        frontend, lane = self.serve(run_batch, max_batch=4)
        try:
            futures = [frontend.admit(self.KEY, {"x": np.ones((1, 2))}, 1).future
                       for _ in range(3)]
            for fut in futures:
                with pytest.raises(ValueError, match="kernel exploded"):
                    fut.result(timeout=5.0)
            assert frontend.stats()["tenants"]["default"]["failed"] == 3
        finally:
            lane.close()
            frontend.close(drain_timeout=0.1)

    def test_close_fails_pending_and_rejects_new(self):
        """Closing the frontend under a busy lane: the batch in flight is
        answered, what is still queued fails, new work is rejected."""
        entered, release = threading.Event(), threading.Event()

        def run_batch(stacked):
            entered.set()
            release.wait(timeout=5.0)
            return {"y": stacked["x"]}

        frontend, lane = self.serve(run_batch, max_batch=1)
        first = frontend.admit(self.KEY, {"x": np.ones(1)}, 1).future
        assert entered.wait(timeout=5.0)  # the lane holds the first batch
        second = frontend.admit(self.KEY, {"x": np.ones(1)}, 1).future
        frontend.close(drain_timeout=0.05)  # the held batch outlasts the drain
        with pytest.raises(EngineOverloaded):
            second.result(timeout=5.0)
        with pytest.raises(EngineOverloaded):
            frontend.admit(self.KEY, {"x": np.ones(1)}, 1)
        release.set()
        assert first.result(timeout=5.0)["y"].shape == (1,)
        lane.close()

    def test_scatter_handles_unbatched_outputs(self):
        class Req:
            def __init__(self, n):
                self.batch_len = n

        outputs = {"batched": np.arange(6).reshape(3, 2), "scalar": np.float64(7.0)}
        parts = scatter_outputs(outputs, [Req(1), Req(2)])
        assert np.array_equal(parts[0]["batched"], [[0, 1]])
        assert np.array_equal(parts[1]["batched"], [[2, 3], [4, 5]])
        assert parts[0]["scalar"] == parts[1]["scalar"] == 7.0


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------
def _key(tag: str) -> ArtifactKey:
    return ArtifactKey(tag, "cfg", ())


class TestArtifactCache:
    def test_compile_exactly_once_under_concurrency(self):
        cache = ArtifactCache(capacity=4)
        compiles = []
        barrier = threading.Barrier(4)
        results = []

        def factory():
            compiles.append(1)
            time.sleep(0.05)
            return "artifact"

        def lookup():
            barrier.wait()
            artifact, _ = cache.get_or_create(_key("m"), factory)
            results.append(artifact)

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(compiles) == 1
        assert results == ["artifact"] * 4
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 3

    def test_eviction_when_capacity_exceeded(self):
        evicted = []
        cache = ArtifactCache(capacity=2,
                              on_evict=lambda key, art: evicted.append(key))
        for tag in ("a", "b", "c"):
            cache.get_or_create(_key(tag), lambda tag=tag: f"artifact-{tag}")
        assert len(cache) == 2
        assert evicted == [_key("a")]  # LRU order
        assert cache.stats()["evictions"] == 1
        # the evicted key recompiles on next sight
        _, hit = cache.get_or_create(_key("a"), lambda: "artifact-a2")
        assert not hit

    def test_lru_order_updated_on_hit(self):
        evicted = []
        cache = ArtifactCache(capacity=2,
                              on_evict=lambda key, art: evicted.append(key))
        cache.get_or_create(_key("a"), lambda: "a")
        cache.get_or_create(_key("b"), lambda: "b")
        cache.get_or_create(_key("a"), lambda: "never")  # refresh "a"
        cache.get_or_create(_key("c"), lambda: "c")
        assert evicted == [_key("b")]

    def test_failed_factory_is_retryable(self):
        cache = ArtifactCache(capacity=2)
        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_create(_key("a"), lambda: (_ for _ in ()).throw(
                RuntimeError("boom")))
        artifact, hit = cache.get_or_create(_key("a"), lambda: "recovered")
        assert artifact == "recovered" and not hit

    def test_entry_that_is_not_evictable_is_never_the_victim(self):
        """The engine's predicate is "compilation has ended": a lane that is
        still compiling stays, and the cache overflows until it is done."""
        evicted, compiling = [], {"a", "b", "c"}
        cache = ArtifactCache(capacity=1,
                              on_evict=lambda key, entry: evicted.append(entry),
                              evictable=lambda entry: entry not in compiling)
        cache.get_or_create(_key("a"), lambda: "a")
        cache.get_or_create(_key("b"), lambda: "b")
        assert evicted == [] and len(cache) == 2  # both still compiling
        compiling -= {"a", "b"}
        cache.get_or_create(_key("c"), lambda: "c")
        assert evicted == ["a", "b"] and cache.keys() == [_key("c")]


# ---------------------------------------------------------------------------
# Warm executor pool
# ---------------------------------------------------------------------------
class TestWarmExecutorPool:
    def test_repeated_runs_match_sequential(self):
        model = build_diamond_model()
        result = ramiel_compile(model)
        feed = example_inputs(model, seed=3)
        reference = result.run_sequential(feed)
        with WarmExecutorPool(result.parallel_module,
                              result.optimized_model.graph.initializers) as pool:
            for _ in range(3):
                outputs = pool.run(feed, timeout=60.0)
                for name, ref in reference.items():
                    np.testing.assert_allclose(outputs[name], ref, rtol=1e-5, atol=1e-6)

    def test_closed_pool_refuses_work(self):
        model = build_diamond_model()
        result = ramiel_compile(model)
        pool = WarmExecutorPool(result.parallel_module,
                                result.optimized_model.graph.initializers)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.run(example_inputs(model))


# ---------------------------------------------------------------------------
# Inference engine
# ---------------------------------------------------------------------------
class TestInferenceEngine:
    def test_serving_matches_sequential_reference(self):
        model = build_diamond_model()
        reference = ramiel_compile(model)
        with tiny_engine() as engine:
            for seed in range(3):
                feed = example_inputs(model, seed=seed)
                outputs = engine.infer(model, feed)
                expected = reference.run_sequential(feed)
                for name, ref in expected.items():
                    np.testing.assert_allclose(outputs[name], ref,
                                               rtol=1e-5, atol=1e-6)

    def test_second_request_is_cache_hit_with_zero_recompilation(self):
        model = build_diamond_model()
        with tiny_engine() as engine:
            engine.infer(model, example_inputs(model, seed=0))
            engine.infer(model, example_inputs(model, seed=1))
            cache = engine.metrics.snapshot()["cache"]
        assert cache["compiles"] == 1
        assert cache["misses"] == 1
        assert cache["hits"] == 1

    def test_equivalent_rebuilt_model_is_cache_hit(self):
        """The cache keys by content, not object identity."""
        with tiny_engine() as engine:
            engine.infer(build_diamond_model(), example_inputs(build_diamond_model()))
            engine.infer(build_diamond_model(), example_inputs(build_diamond_model()))
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1

    def test_concurrent_load_is_batched(self, pin_cores):
        """(c) What arrives while a one-replica lane executes is its next
        batch: one request is held inside the session, five more are
        submitted, and on release they run as one batch of five — exactly."""
        pin_cores(1)
        model = build_diamond_model()
        with tiny_engine(max_batch_size=8) as engine:
            engine.warmup(model)
            feeds = [example_inputs(model, seed=seed) for seed in range(6)]
            entered, release = gate_session(artifact_of(engine, model, feeds[0]))
            engine.metrics.reset()
            try:
                futures = [engine.submit(model, feeds[0])]
                assert entered.wait(timeout=10.0)  # the lane holds a batch of 1
                futures += [engine.submit(model, feed) for feed in feeds[1:]]
            finally:
                release.set()
            for future in futures:
                assert future.result(timeout=60.0)
            snapshot = engine.metrics.snapshot()
        assert snapshot["completed"] == 6
        assert snapshot["batch_histogram"] == {1: 1, 5: 1}

    @managed_blas
    def test_concurrent_load_is_batched_on_the_idle_replica(self, pin_cores):
        """The two-core twin: replica 0 is held inside its session with a
        batch of 1 while a forked replica waits idle; the five later
        requests are that replica's share — one batch of five — and every
        response is bitwise the B = 1 plan's."""
        from repro.runtime.blas import pin_blas_threads

        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=seed) for seed in range(6)]
        with tiny_engine(max_batch_size=8) as engine:
            _, artifact = serve_across_replicas(engine, model, feeds[:3])
            _, replica1 = artifact.replicas
            _wait_until_idle(engine, artifact, 2)  # a lone request is replica 0's
            entered, release = gate_session(artifact)
            runs = replica1.stats()["runs"]
            engine.metrics.reset()
            try:
                futures = [engine.submit(model, feeds[0])]
                assert entered.wait(timeout=10.0)  # replica 0 holds a batch of 1
                with engine.qos._lock:  # replica 1 sees all five at once
                    futures += [engine.submit(model, feed) for feed in feeds[1:]]
                outputs = [future.result(timeout=60.0) for future in futures[1:]]
            finally:
                release.set()
            outputs.insert(0, futures[0].result(timeout=60.0))
            assert replica1.stats()["runs"] == runs + 1
            snapshot = engine.metrics.snapshot()
        assert snapshot["completed"] == 6
        assert snapshot["batch_histogram"] == {1: 1, 5: 1}
        pin_blas_threads(1)
        plan = create_session(ramiel_compile(model), executor="plan")
        stacked = {name: np.concatenate([feed[name] for feed in feeds[1:]])
                   for name in feeds[0]}
        fused = plan.run(stacked)
        references = [plan.run(feeds[0])] + [
            {name: value[i:i + 1] for name, value in fused.items()}
            for i in range(5)]
        for served, reference in zip(outputs, references):
            _assert_bitwise(served, reference)

    def test_mismatched_non_batch_shape_rejected_cleanly(self):
        model = build_diamond_model()  # declares x: (1, 3, 16, 16)
        with tiny_engine() as engine:
            with pytest.raises(ShapeMismatchError, match="axis"):
                engine.submit(model, {"x": np.zeros((1, 3, 8, 8), dtype=np.float32)})
            with pytest.raises(ShapeMismatchError, match="dimensions"):
                engine.submit(model, {"x": np.zeros((1, 3, 16), dtype=np.float32)})
            with pytest.raises(ShapeMismatchError, match="missing"):
                engine.submit(model, {})
            with pytest.raises(ShapeMismatchError, match="no inputs named"):
                engine.submit(model, {"x": np.zeros((1, 3, 16, 16), dtype=np.float32),
                                      "bogus": np.zeros(1)})
            # a clean rejection must not poison the engine for valid requests
            outputs = engine.infer(model, example_inputs(model))
            assert outputs

    def test_request_with_larger_batch_dim(self):
        model = build_diamond_model()
        with tiny_engine() as engine:
            outputs = engine.infer(model, example_inputs(model, batch_size=3))
            (name, array), = outputs.items()
            assert array.shape[0] == 3

    def test_cache_eviction_closes_artifact_and_recompiles(self):
        with tiny_engine(cache_capacity=1) as engine:
            diamond, chain = build_diamond_model(), build_chain_model()
            engine.infer(diamond, example_inputs(diamond))
            engine.infer(chain, example_inputs(chain))   # evicts diamond
            snapshot = engine.metrics.snapshot()
            assert snapshot["cache"]["evictions"] == 1
            assert engine.cache_stats()["size"] == 1
            # diamond still serves correctly — via a fresh compilation
            engine.infer(diamond, example_inputs(diamond))
            assert engine.metrics.snapshot()["cache"]["compiles"] == 3

    def test_evicted_keys_leave_no_takers_record(self):
        """The frontend keeps one takers record per key a replica waits on,
        not one per key ever served: the last taker to leave drops it."""
        with tiny_engine(cache_capacity=2) as engine:
            for index in range(5):
                model = build_diamond_model(f"diamond{index}")
                engine.infer(model, example_inputs(model))
            assert engine.metrics.snapshot()["cache"]["evictions"] == 3
            deadline = time.monotonic() + 10.0
            while True:  # the evicted lanes' threads leave on their own
                with engine.qos._lock:
                    records = dict(engine.qos._takers)
                waiting = [key for key, takers in records.items() if takers.idle]
                if len(waiting) == len(records) <= 2:
                    break
                assert time.monotonic() < deadline, records
                time.sleep(0.001)

    def test_shutdown_rejects_new_requests(self):
        model = build_diamond_model()
        engine = tiny_engine()
        engine.infer(model, example_inputs(model))
        engine.shutdown()
        with pytest.raises(RuntimeError):
            engine.submit(model, example_inputs(model))

    def test_warmup_records_no_spurious_cache_hit(self):
        model = build_diamond_model()
        with tiny_engine() as engine:
            engine.warmup(model)
            cache = engine.metrics.snapshot()["cache"]
        assert cache["misses"] == 1
        assert cache["hits"] == 0

    def test_broken_plan_is_invalidated_and_recompiled(self):
        """Replica 0's session left broken must not poison the artifact:
        its next batch fails with an error naming it, it retires, and a
        fresh fork of the same artifact answers the next request bitwise,
        without a recompile."""
        model = build_diamond_model()
        with tiny_engine() as engine:
            feed = example_inputs(model)
            reference = engine.infer(model, feed)
            artifact = artifact_of(engine, model, feed)
            replica = artifact.replicas[0]
            replica.session.mark_broken("simulated wedged run")
            with pytest.raises(ServingError, match=re.escape(replica.label)):
                engine.infer(model, feed)
            _assert_bitwise(engine.infer(model, feed), reference)
            assert artifact_of(engine, model, feed) is artifact
            assert artifact.replicas[0] is not replica
            assert replica.retired and replica.session.closed
            snapshot = engine.metrics.snapshot()["cache"]
            assert snapshot["compiles"] == 1
            assert snapshot["evictions"] == 0

    def test_request_survives_artifact_closed_under_it(self):
        """A lane that stops while still cached never strands a request:
        it drops its own entry, so the request gets a fresh compile."""
        model = build_diamond_model()
        with tiny_engine() as engine:
            feed = example_inputs(model)
            engine.infer(model, feed)
            lane_of(engine, model, feed).close()  # dies while still cached
            outputs = engine.infer(model, feed)
            assert outputs
            assert engine.metrics.snapshot()["cache"]["compiles"] == 2

    def test_plan_executor_routes_requests_through_execution_plan(self):
        """Every request runs in a forked one-worker session: the engine's
        process builds no ExecutionPlan, and a repeat request runs on the
        slab the worker packed for the first one."""
        model = build_diamond_model()
        with tiny_engine() as engine:
            feed = example_inputs(model)
            engine.infer(model, feed)
            artifact = artifact_of(engine, model, feed)
            session = artifact.replicas[0].session
            assert session.executor == "process" and session.plan is None
            assert session.stats()["placement"]["workers"] == 1
            assert artifact.result.execution_plan is None
            (warm,) = session.stats()["pool"]["workers"]
            assert warm["slab_bytes"] > 0
            engine.infer(model, feed)
            (again,) = session.stats()["pool"]["workers"]
            assert again["allocations"] == warm["allocations"]

    def test_no_per_request_graph_executor_construction(self, monkeypatch):
        """Serving requests must not build fresh GraphExecutors (or plans).

        The interpreter is only allowed during compilation (constant
        folding); once the artifact is warm, N requests construct zero
        GraphExecutors and zero ExecutionPlans.
        """
        import repro.runtime.executor as executor_mod
        import repro.runtime.plan as plan_mod

        model = build_diamond_model()
        counters = {"executor": 0, "plan": 0}
        orig_executor_init = executor_mod.GraphExecutor.__init__
        orig_plan_init = plan_mod.ExecutionPlan.__init__

        def counting_executor_init(self, *args, **kwargs):
            counters["executor"] += 1
            return orig_executor_init(self, *args, **kwargs)

        def counting_plan_init(self, *args, **kwargs):
            counters["plan"] += 1
            return orig_plan_init(self, *args, **kwargs)

        monkeypatch.setattr(executor_mod.GraphExecutor, "__init__",
                            counting_executor_init)
        monkeypatch.setattr(plan_mod.ExecutionPlan, "__init__",
                            counting_plan_init)
        with tiny_engine() as engine:
            engine.warmup(model)
            counters["executor"] = 0
            counters["plan"] = 0
            for seed in range(4):
                engine.infer(model, example_inputs(model, seed=seed))
        assert counters["executor"] == 0
        assert counters["plan"] == 0

    def test_failed_requests_excluded_from_latency_percentiles(self):
        def run_batch(stacked):
            raise ValueError("boom")

        model = build_diamond_model()
        feed = example_inputs(model)
        with tiny_engine(max_batch_size=2) as engine:
            artifact_of(engine, model, feed).replicas[0].run_batch = run_batch
            futures = [engine.submit(model, feed) for _ in range(2)]
            for fut in futures:
                with pytest.raises(ValueError):
                    fut.result(timeout=5.0)
            snapshot = engine.metrics.snapshot()
        assert snapshot["failed"] == 2
        assert snapshot["completed"] == 0
        assert snapshot["latency_ms"]["p50"] is None


# ---------------------------------------------------------------------------
# Session-era serving: forked replicas, time-bounded batches
# ---------------------------------------------------------------------------
class TestSessionServing:
    def test_artifacts_hold_sessions(self):
        model = build_diamond_model()
        with tiny_engine() as engine:
            feed = example_inputs(model)
            engine.infer(model, feed)
            artifact = artifact_of(engine, model, feed)
            session = artifact.replicas[0].session
            assert session.executor == "process"
            assert session.pool.num_clusters == 1

    def test_concurrent_requests_through_pinned_staging_stay_private(self):
        """Fused requests get private output slices: later batches through
        the same replica must not corrupt earlier responses."""
        model = build_diamond_model()
        with tiny_engine() as engine:
            engine.warmup(model)
            futures = [engine.submit(model, example_inputs(model, seed=s))
                       for s in range(6)]
            first = [dict(f.result(timeout=10.0)) for f in futures]
            snapshots = [{n: a.copy() for n, a in out.items()} for out in first]
            # drive more traffic over the same staging buffers
            for s in range(6, 12):
                engine.infer(model, example_inputs(model, seed=s))
            for out, snap in zip(first, snapshots):
                for name, array in out.items():
                    np.testing.assert_array_equal(array, snap[name])
            # per-request results match the unbatched reference
            for s, out in enumerate(first):
                reference = engine.infer(model, example_inputs(model, seed=s))
                for name, ref in reference.items():
                    np.testing.assert_allclose(out[name], ref,
                                               rtol=1e-5, atol=1e-6)

    def test_castable_dtype_requests_still_serve_when_fused(self):
        """Requests whose dtype passes serving validation but differs from
        the declared one (a castable dtype the kernels accept) must keep
        serving, fused batches included."""
        model = build_diamond_model()  # declares float32 input
        with tiny_engine() as engine:
            feeds = [{"x": example_inputs(model, seed=s)["x"].astype(np.float64)}
                     for s in range(4)]
            engine.infer(model, feeds[0])  # compile the float64 artifact
            futures = [engine.submit(model, feed) for feed in feeds]
            results = [f.result(timeout=10.0) for f in futures]
            for feed, out in zip(feeds, results):
                reference = engine.infer(model, feed)  # single-request path
                for name, ref in reference.items():
                    np.testing.assert_allclose(out[name], ref,
                                               rtol=1e-5, atol=1e-6)

    def test_plan_path_watchdog_times_out_and_invalidates(self):
        """A stuck batch fails its request after ``timeout_s`` with an
        error naming the replica, chained from the pool's timeout; the
        replica retires and a fresh fork answers the next request bitwise,
        without a recompile."""
        model = build_diamond_model()
        injector = FaultInjector()
        with tiny_engine(timeout_s=0.5, fault_injector=injector) as engine:
            feed = example_inputs(model)
            reference = engine.infer(model, feed)
            artifact = artifact_of(engine, model, feed)
            replica = artifact.replicas[0]
            injector.add(FaultSpec(site="worker.execute", kind="hang",
                                   seconds=30.0))
            with pytest.raises(ServingError,
                               match=re.escape(replica.label)) as excinfo:
                engine.infer(model, feed)
            assert isinstance(excinfo.value.__cause__, ParallelExecutionError)
            assert "timed out" in str(excinfo.value.__cause__)
            _assert_bitwise(engine.infer(model, feed), reference)
            assert artifact_of(engine, model, feed) is artifact
            assert artifact.replicas[0] is not replica
            assert replica.retired and replica.session.closed
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1

    def test_a_probe_that_wedges_replica_0_replaces_it(self, pin_cores):
        """A fusion probe whose stacked run outlives ``timeout_s`` leaves
        replica 0's pool broken.  The compile retires it instead of
        repairing it, the lane thread forks a fresh replica before its
        first take, and the lane serves unfused from it, bitwise the plan
        at one BLAS thread, without a second compile."""
        from repro.runtime.blas import pin_blas_threads

        pin_cores(1)
        model = build_diamond_model()
        feed = example_inputs(model, seed=3)
        # the probe's first run passes; its stacked batch of two hangs
        injector = FaultInjector([FaultSpec(site="worker.execute",
                                            kind="hang", after=1,
                                            seconds=30.0)])
        with tiny_engine(timeout_s=0.5, fault_injector=injector) as engine:
            outputs = engine.infer(model, feed)
            artifact = artifact_of(engine, model, feed)
            (replica,) = artifact.replicas
            assert not artifact.batchable
            assert replica.index == 1 and not replica.broken
            assert replica.session.pool.fault_injector is injector
            assert injector.stats() == {"worker.execute:hang": 1}
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1
        pin_blas_threads(1)
        _assert_bitwise(outputs, create_session(model).run(feed))


# ---------------------------------------------------------------------------
# Lanes: one thread per artifact, pulling from the one admission queue
# ---------------------------------------------------------------------------
def _assert_bitwise(outputs, reference):
    assert set(outputs) == set(reference)
    for name, ref in reference.items():
        np.testing.assert_array_equal(np.asarray(outputs[name]), np.asarray(ref))


def _gate_compile(monkeypatch, engine, gated_model, fail_with=None):
    """Block ``engine._compile`` for ``gated_model`` until released.

    Returns ``(entered, release, calls)``: ``entered`` is set once the
    gated compile has started, ``calls`` lists every model compiled.
    """
    entered, release, calls = threading.Event(), threading.Event(), []
    real = engine._compile

    def gated(model, key):
        calls.append(model)
        if model is gated_model:
            entered.set()
            assert release.wait(timeout=30.0)
            if fail_with is not None:
                raise fail_with
        return real(model, key)

    monkeypatch.setattr(engine, "_compile", gated)
    return entered, release, calls


class TestLanes:
    def test_warm_request_completes_while_another_model_compiles(self, monkeypatch):
        """No head-of-line blocking across artifacts: a compile runs on its
        own lane, so a warm model keeps answering while it is stuck."""
        warm, cold = build_diamond_model(), build_chain_model()
        warm_feed = example_inputs(warm)
        with tiny_engine() as engine:
            reference = engine.infer(warm, warm_feed)
            entered, release, _ = _gate_compile(monkeypatch, engine, cold)
            try:
                cold_future = engine.submit(cold, example_inputs(cold))
                assert entered.wait(timeout=10.0)
                _assert_bitwise(
                    engine.submit(warm, warm_feed).result(timeout=10.0),
                    reference)
                assert not cold_future.done()
            finally:
                release.set()
            assert cold_future.result(timeout=30.0)

    def test_compile_failure_fails_only_its_own_keys_requests(self, monkeypatch):
        """A failed compile fails exactly what is queued for that key, once,
        with the compile error — and the key can be compiled again."""
        good, bad = build_diamond_model(), build_chain_model()
        good_feed, bad_feed = example_inputs(good), example_inputs(bad)
        boom = RuntimeError("compile exploded")
        with tiny_engine() as engine:
            reference = engine.infer(good, good_feed)
            entered, release, calls = _gate_compile(
                monkeypatch, engine, bad, fail_with=boom)
            try:
                doomed = [engine.submit(bad, bad_feed) for _ in range(3)]
                assert entered.wait(timeout=10.0)
                bystander = engine.submit(good, good_feed)
            finally:
                release.set()
            for future in doomed:
                with pytest.raises(RuntimeError) as excinfo:
                    future.result(timeout=10.0)
                assert excinfo.value is boom
            _assert_bitwise(bystander.result(timeout=10.0), reference)
            assert calls.count(bad) == 1  # compiled once, not once per request
            stats = engine.qos.stats()["tenants"]["default"]
            assert stats["failed"] == 3
            # the failed lane dropped its entry: the key compiles afresh
            monkeypatch.undo()
            assert engine.infer(bad, bad_feed)

    def test_request_queued_for_an_evicted_lane_is_served_by_its_replacement(self):
        """Eviction strands nothing: the lane answers the batch it holds,
        and what is still queued for its key gets a fresh lane."""
        diamond, chain = build_diamond_model(), build_chain_model()
        feeds = [example_inputs(diamond, seed=s) for s in range(2)]
        with tiny_engine(cache_capacity=1, max_batch_size=1) as engine:
            references = [engine.infer(diamond, feed) for feed in feeds]
            entered, release = gate_session(artifact_of(engine, diamond, feeds[0]))
            try:
                held = engine.submit(diamond, feeds[0])
                assert entered.wait(timeout=10.0)
                queued = engine.submit(diamond, feeds[1])  # behind the held batch
                other = engine.submit(chain, example_inputs(chain))
                # capacity 1: chain's lane evicted diamond's, mid-batch
                assert engine.metrics.snapshot()["cache"]["evictions"] == 1
            finally:
                release.set()
            _assert_bitwise(held.result(timeout=30.0), references[0])
            _assert_bitwise(queued.result(timeout=30.0), references[1])
            assert other.result(timeout=30.0)
            assert engine.qos.stats()["tenants"]["default"]["failed"] == 0

    def test_thread_census_two_lanes_two_watchdogs_nothing_engine_wide(self):
        before = set(threading.enumerate())
        engine = tiny_engine()
        try:
            for model in (build_diamond_model(), build_chain_model()):
                engine.infer(model, example_inputs(model))
            names = sorted(t.name for t in threading.enumerate()
                           if t not in before)
            # one lane thread per artifact; replica 0's worker is a process
            assert len(names) == 2, names
            assert all(n.startswith("lane-") for n in names), names
        finally:
            engine.shutdown()
        leftover = [t for t in threading.enumerate() if t not in before]
        for thread in leftover:
            thread.join(timeout=5.0)
        assert not [t.name for t in leftover if t.is_alive()]


# ---------------------------------------------------------------------------
# Replicas: a lane serves one hot model on every core
# ---------------------------------------------------------------------------
def _wait_until_idle(engine, artifact, replicas: int, timeout: float = 10.0):
    """Block until ``replicas`` of the artifact's replicas wait for work."""
    deadline = time.monotonic() + timeout
    while getattr(engine.qos._takers.get(artifact.key), "idle", 0) < replicas:
        assert time.monotonic() < deadline, "replicas did not come back idle"
        time.sleep(0.001)


def _gauge(snapshot, family, artifact):
    (value,) = [entry["value"] for key, entry in snapshot.items()
                if key.startswith(family + "{")
                and f'artifact="{artifact.key.short()}"' in key]
    return value


class TestLaneReplicas:
    @managed_blas
    def test_sixteen_bert_requests_use_every_replica_bitwise_at_one_blas_thread(
            self, pin_cores, monkeypatch):
        """The suite runs with no BLAS variable set: every forked worker
        pins itself to one thread, a response is the B = 1 plan's
        whichever replica computed it and whichever batch it rode in, and
        the engine's own process keeps its count throughout."""
        from repro.runtime.blas import blas_threads, pin_blas_threads

        pin_cores(2)
        requests = collections.Counter()  # replica index -> requests it ran
        run_batch = Replica.run_batch

        def counted(replica, stacked):
            requests[replica.index] += len(next(iter(stacked.values())))
            return run_batch(replica, stacked)

        monkeypatch.setattr(Replica, "run_batch", counted)
        model = build_model("bert", variant="small")
        feeds = [example_inputs(model, seed=40 + i) for i in range(16)]
        before = blas_threads()
        with InferenceEngine() as engine:
            outputs, artifact = serve_across_replicas(engine, model, feeds)
            assert blas_threads() == before
            assert artifact.max_replicas == 2
            replicas = list(artifact.replicas)
            assert [r.session.executor for r in replicas] == ["process"] * 2
            assert min(r.stats()["runs"] for r in replicas) >= 1
            assert sorted(requests) == [0, 1] and sum(requests.values()) == 16, requests
            for replica in replicas:
                (worker,) = replica.session.stats()["pool"]["workers"]
                assert worker["blas_threads"] == 1
                assert replica.session.stats()["placement"]["workers"] == 1
            snapshot = engine.registry.snapshot()
            r, k, b, cores = (_gauge(snapshot, f"serving_lane_{name}", artifact)
                              for name in ("replicas", "workers",
                                           "blas_threads", "cores"))
            assert (r, k, b, cores) == (2, 1, 1, 2)
            assert k * b * r <= cores
            runs = [key for key in snapshot
                    if key.startswith("serving_pool_runs_total{")]
            assert sorted(key.split('replica="')[1][0] for key in runs) == ["0", "1"]
        assert blas_threads() == before
        pin_blas_threads(1)
        plan = create_session(ramiel_compile(model), executor="plan")
        for feed, served_out in zip(feeds, outputs):
            _assert_bitwise(served_out, plan.run(feed))

    @managed_blas
    def test_the_engines_blas_count_is_the_same_before_during_and_after(
            self, pin_cores, monkeypatch):
        """The engine's process runs no model code and pins nothing: its
        BLAS thread count reads the same before a two-replica bert burst,
        while each replica runs its batches, and after shutdown — here two
        threads, which no forked worker computes with."""
        from repro.runtime.blas import blas_threads, pin_blas_threads

        pin_cores(2)
        pin_blas_threads(2)
        during = []
        run_batch = Replica.run_batch

        def read(replica, stacked):
            during.append(blas_threads())
            return run_batch(replica, stacked)

        monkeypatch.setattr(Replica, "run_batch", read)
        model = build_model("bert", variant="small")
        feeds = [example_inputs(model, seed=90 + i) for i in range(8)]
        before = blas_threads()
        with InferenceEngine() as engine:
            _, artifact = serve_across_replicas(engine, model, feeds)
            assert [r.index for r in artifact.replicas] == [0, 1]
            for replica in artifact.replicas:
                (worker,) = replica.session.stats()["pool"]["workers"]
                assert worker["blas_threads"] == 1
        after = blas_threads()
        assert during and set(during) == {before} == {after} == {2}

    @managed_blas
    def test_replica_threads_share_the_lane_without_losing_a_batch(
            self, pin_cores):
        """Four replicas on a two-core host, eight client threads and a
        short switch interval: every request is answered once, bitwise,
        and the replicas' dispatch counts add up to the engine's batches."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        pin_cores(4)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=i) for i in range(8)]
        plan = create_session(ramiel_compile(model), executor="plan")
        references = [plan.run(feed) for feed in feeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # batch 1: a row of a fused batch need not equal the batch-1 run
            with tiny_engine(max_batch_size=1) as engine:
                engine.warmup(model, feeds[0])
                with ThreadPoolExecutor(max_workers=8) as clients:
                    results = list(clients.map(
                        lambda i: (i % 8, engine.infer(model, feeds[i % 8],
                                                       timeout=60.0)),
                        range(400), timeout=120.0))
                artifact = artifact_of(engine, model, feeds[0])
                replicas = list(artifact.replicas)
                assert 2 <= len(replicas) <= artifact.max_replicas == 4
                runs = sum(r.stats()["runs"] for r in replicas)
                assert runs == engine.metrics.snapshot()["batches"]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 400
        for index, outputs in results:
            _assert_bitwise(outputs, references[index])

    def test_one_core_host_forks_one_replica(self, pin_cores):
        import multiprocessing

        from repro.runtime.blas import blas_threads

        pin_cores(1)
        model = build_model("bert", variant="small")
        feeds = [example_inputs(model, seed=60 + i) for i in range(16)]
        before = blas_threads()
        threads = set(threading.enumerate())
        children = set(multiprocessing.active_children())
        with InferenceEngine() as engine:
            engine.warmup(model, feeds[0])
            futures = [engine.submit(model, feed) for feed in feeds]
            outputs = [future.result(timeout=60.0) for future in futures]
            artifact = artifact_of(engine, model, feeds[0])
            assert artifact.max_replicas == 1
            assert [r.index for r in artifact.replicas] == [0]
            forked = set(multiprocessing.active_children()) - children
            assert [child.pid for child in forked] == [
                worker.pid for worker in artifact.replicas[0].session.pool._workers]
            lanes = [t.name for t in threading.enumerate()
                     if t not in threads and t.name.startswith("lane-")]
            assert len(lanes) == 1, lanes
        assert blas_threads() == before
        plan = create_session(ramiel_compile(model), executor="plan")
        for feed, served_out in zip(feeds, outputs):
            _assert_bitwise(served_out, plan.run(feed))

    def test_lone_requests_on_an_idle_two_core_lane_fork_one_replica(
            self, pin_cores):
        """A lone request is a share of one on replica 0: one after
        another, they never leave a backlog that would fork a second
        replica.  The engine's process keeps its BLAS count."""
        import multiprocessing

        from repro.runtime.blas import blas_threads

        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=seed) for seed in range(8)]
        before = blas_threads()
        children = set(multiprocessing.active_children())
        with tiny_engine(max_batch_size=8) as engine:
            for feed in feeds:
                engine.infer(model, feed)
            artifact = artifact_of(engine, model, feeds[0])
            assert artifact.max_replicas == 2
            assert [r.index for r in artifact.replicas] == [0]
            assert artifact.replicas[0].stats()["runs"] == len(feeds)
            assert len(set(multiprocessing.active_children()) - children) == 1
            assert blas_threads() == before
        assert blas_threads() == before

    @managed_blas
    def test_one_answer_per_request_whatever_the_load(self, pin_cores,
                                                      monkeypatch):
        """With the caller's BLAS at two threads, the answer before any
        fork, each replica's answers during a burst and the answer after
        it are the same bits: the plan's at B = 1.  Every replica, replica
        0 included, is a forked worker that pins itself to one thread, and
        the engine's process stays at two.  Small inception_v4 has a 3x3
        conv on a 9x9 map whose GEMM rounds differently at one and at two
        threads."""
        from repro.runtime.blas import blas_threads, pin_blas_threads

        pin_cores(2)
        model = build_model("inception_v4", variant="small")
        feed = example_inputs(model, seed=3)
        plan = create_session(ramiel_compile(model), executor="plan")
        pin_blas_threads(1)
        reference = plan.run(feed)
        pin_blas_threads(2)
        at_two = plan.run(feed)
        if all(np.array_equal(at_two[name], ref) for name, ref in reference.items()):
            pytest.skip("this host's BLAS rounds alike at one and two threads")

        answers = collections.defaultdict(list)
        run_batch = Replica.run_batch

        def recorded(replica, stacked):
            outputs = run_batch(replica, stacked)
            answers[replica.index].append(outputs)
            return outputs

        monkeypatch.setattr(Replica, "run_batch", recorded)
        with InferenceEngine() as engine:
            first = engine.infer(model, feed)
            assert len(artifact_of(engine, model, feed).replicas) == 1
            burst, artifact = serve_across_replicas(engine, model, [feed] * 4)
            assert [r.index for r in artifact.replicas] == [0, 1]
            assert sorted(answers) == [0, 1]
            after = engine.infer(model, feed)
        assert blas_threads() == 2  # the engine's process was never pinned
        batches = [outputs for runs in answers.values() for outputs in runs]
        for outputs in [first, *burst, after]:
            _assert_bitwise(outputs, reference)
        for outputs in batches:  # a fused batch: every row is the answer
            for name, ref in reference.items():
                for row in np.asarray(outputs[name]):
                    np.testing.assert_array_equal(row[None], ref)

    def test_unmanaged_blas_keeps_one_replica(self, pin_cores, monkeypatch):
        import repro.runtime.worker_pool as worker_pool
        import repro.serving.engine as engine_module

        pin_cores(2)
        # the engine reads the count, and the forked worker reports it
        for module in (engine_module, worker_pool):
            monkeypatch.setattr(module, "blas_threads", lambda: "unmanaged")
        model = build_diamond_model()
        feed = example_inputs(model)
        with tiny_engine() as engine:
            engine.infer(model, feed)
            artifact = artifact_of(engine, model, feed)
            assert artifact.max_replicas == 1
            snapshot = engine.registry.snapshot()
            assert _gauge(snapshot, "serving_lane_blas_threads", artifact) == 0


# ---------------------------------------------------------------------------
# The batch-fusion probe: one verdict per compiled model
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", [*sorted(MODEL_REGISTRY), "batch_folding"])
def test_probe_verdict_is_identical_across_executors(name):
    """``batchable`` is a property of the compiled model, not of the
    executor that probed it: replica 0's plan probes once and the lane's
    forked replicas serve under that verdict, so a one-worker process
    session must reach the same one.  Every zoo model fuses (BERT's reshape
    targets follow the batch); a reshape that folds the batch into another
    axis fails the probe on both, and replica 0 serves on after its failed
    stacked run.  Either way the engine's answer is bitwise the
    interpreter's.  Everything computes at the forked workers' one BLAS
    thread (``restore_blas`` puts the count back)."""
    from repro.runtime.blas import pin_blas_threads

    pin_blas_threads(1)
    if name == "batch_folding":
        model = build_batch_folding_model()
    else:
        model = build_model(name, variant="small")
    feed = example_inputs(model, seed=5)
    reference = create_session(model, executor="interp").run(feed)
    with InferenceEngine() as engine:
        summary = engine.warmup(model)
        assert summary["batchable"] is (name != "batch_folding")
        outputs = engine.infer(model, feed)
        artifact = artifact_of(engine, model, feed)
        assert not artifact.replicas[0].broken
        with create_session(artifact.result, executor="process",
                            cores=1) as forked:
            assert engine._probe_batchable(
                forked.run, artifact.key.input_signature) is artifact.batchable
    for key, ref in reference.items():
        np.testing.assert_array_equal(outputs[key], ref)


# ---------------------------------------------------------------------------
# Input synthesis: one synthesiser, declared dtypes
# ---------------------------------------------------------------------------
def _float32_or_int_inputs(model, batch_size=1, seed=0):
    """The synthesiser ``example_inputs`` replaced (float32 for every input
    not declared ``int*``): the reference its zoo feeds must not move from."""
    rng = np.random.default_rng(seed)
    feed = {}
    for info in model.graph.inputs:
        shape = [1 if d is None else d for d in (info.shape or (1,))]
        shape[0] = batch_size
        if info.dtype.value.startswith("int"):
            feed[info.name] = rng.integers(0, 100, size=shape).astype(info.dtype.value)
        else:
            feed[info.name] = rng.standard_normal(shape).astype(np.float32)
    return feed


class TestExampleInputs:
    @pytest.mark.parametrize("variant", ["small", "default"])
    def test_zoo_feeds_are_bitwise_unchanged(self, variant):
        """perflab feeds every workload through ``example_inputs``: its
        zoo feeds stay the bytes they were."""
        for name in MODEL_REGISTRY:
            model = build_model(name, variant=variant)
            for seed, batch in ((0, 1), (7, 1), (101, 3)):
                got = example_inputs(model, batch_size=batch, seed=seed)
                want = _float32_or_int_inputs(model, batch_size=batch, seed=seed)
                assert list(got) == list(want)
                for key, array in want.items():
                    assert got[key].dtype == array.dtype, (name, key)
                    assert got[key].shape == array.shape, (name, key)
                    assert got[key].tobytes() == array.tobytes(), (name, key)

    def test_declared_dtypes_are_fed_and_bind(self):
        """A ``uint8`` and a ``float64`` input get feeds of those dtypes
        (they used to get float32, which ``bind_input`` rejects)."""
        from repro.ir import GraphBuilder
        from repro.ir.dtypes import DType

        b = GraphBuilder("mixed_dtypes", seed=0)
        pixels = b.input("pixels", (1, 4), dtype=DType.UINT8)
        scale = b.input("scale", (1, 4), dtype=DType.FLOAT64)
        b.output(b.node("Mul", [b.node("Cast", [pixels], to="float64"), scale]),
                 dtype=DType.FLOAT64)
        model = b.build()
        feed = example_inputs(model, batch_size=2, seed=3)
        assert {k: v.dtype for k, v in feed.items()} == {
            "pixels": np.dtype(np.uint8), "scale": np.dtype(np.float64)}
        assert feed["pixels"].shape == feed["scale"].shape == (2, 4)
        session = create_session(model)
        binding = session.bind()
        for name, array in feed.items():
            binding.bind_input(name, array)
        (out,) = session.run_with_binding(binding).values()
        np.testing.assert_array_equal(
            out, feed["pixels"].astype(np.float64) * feed["scale"])
