"""Tests for the multi-tenant QoS layer and artifact-cache partitioning.

Covers the admission queue's start-time-fair-queueing discipline (weighted
shares under a 10:1 skew, per-tenant FIFO), the frontend's edge cases the
issue calls out (deadline already expired at admission, queue-full
rejection ordering, deadline expiry while queued, drain semantics), the
RetryPolicy integration on dispatch, and the per-tenant cache quotas that
stop one heavy tenant from evicting another's warm artifacts.

The frontend tests run against a fake engine whose routing is controlled
by hand-resolved futures — deterministic, no compilation, no sleeps on
the happy path.  A final block exercises the real engine end to end.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.runtime.session import create_session
from repro.serving import (
    ArtifactCache,
    BatcherClosed,
    EngineConfig,
    InferenceEngine,
    example_inputs,
)
from repro.serving.qos import (
    AdmissionQueue,
    DeadlineExpired,
    EngineOverloaded,
    QoSConfig,
    QoSFrontend,
    TenantConfig,
    TenantQueueFull,
    UnknownTenant,
    _QoSRequest,
)
from tests.conftest import build_diamond_model


def make_request(tenant: str, batch_len: int = 1, model=None,
                 signature=("sig",), deadline=None) -> _QoSRequest:
    return _QoSRequest(tenant=tenant, model=model, arrays={},
                       batch_len=batch_len, signature=signature,
                       future=Future(), deadline=deadline, enqueue_t=0.0)


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------
class TestConfigs:
    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            TenantConfig("")
        with pytest.raises(ValueError):
            TenantConfig("t", weight=0)
        with pytest.raises(ValueError):
            TenantConfig("t", max_queue=0)
        with pytest.raises(ValueError):
            TenantConfig("t", deadline_s=0)
        with pytest.raises(ValueError):
            TenantConfig("t", cache_quota=0)

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError):
            QoSConfig(tenants=(TenantConfig("a"), TenantConfig("a")))

    def test_unknown_tenant_inherits_default_template(self):
        config = QoSConfig(default_tenant=TenantConfig(
            "default", weight=2.0, max_queue=7))
        resolved = config.tenant_config("newcomer")
        assert resolved.name == "newcomer"
        assert resolved.weight == 2.0
        assert resolved.max_queue == 7

    def test_strict_tenants_reject_unknown(self):
        config = QoSConfig(tenants=(TenantConfig("a"),), strict_tenants=True)
        with pytest.raises(UnknownTenant):
            config.tenant_config("stranger")
        assert config.tenant_config("a").name == "a"

    def test_cache_quota_lookup(self):
        config = QoSConfig(tenants=(TenantConfig("a", cache_quota=3),))
        assert config.cache_quota_for("a") == 3
        assert config.cache_quota_for("b") is None
        assert config.cache_quota_for(None) is None


# ---------------------------------------------------------------------------
# AdmissionQueue: start-time fair queueing
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def queue(self, **overrides) -> AdmissionQueue:
        defaults = dict(
            tenants=(TenantConfig("heavy", weight=10.0, max_queue=1000),
                     TenantConfig("light", weight=1.0, max_queue=1000)),
            max_queue_depth=10_000)
        defaults.update(overrides)
        return AdmissionQueue(QoSConfig(**defaults))

    def test_weighted_shares_under_10_to_1_skew(self):
        """Both tenants fully backlogged: dispatch honors the 10:1 weights."""
        q = self.queue()
        for i in range(100):
            q.push(make_request("heavy"))
            q.push(make_request("light"))
        popped = [q.pop().tenant for _ in range(110)]
        heavy_share = popped[:55].count("heavy")
        # Ideal is 50 of 55 (10/11); leave slack for stamp ties.
        assert heavy_share >= 45, popped[:55]
        # Nobody is starved outright either.
        assert popped[:55].count("light") >= 2

    def test_per_tenant_fifo_order(self):
        q = self.queue()
        reqs = [make_request("heavy") for _ in range(5)]
        for r in reqs:
            q.push(r)
        assert [q.pop() for _ in range(5)] == reqs

    def test_idle_tenant_does_not_bank_credit(self):
        """A tenant idle while others ran restarts at the virtual clock,
        not at its ancient last-finish stamp (no starvation of the busy
        tenant, no unbounded catch-up burst)."""
        q = self.queue()
        for _ in range(50):
            q.push(make_request("heavy"))
        for _ in range(30):
            q.pop()
        q.push(make_request("light"))
        # The light arrival lands relative to the *current* virtual time:
        # it waits its weighted share (~10 heavy dispatches at 10:1), not
        # behind all 20 remaining heavy requests.
        popped = [q.pop().tenant for _ in range(12)]
        assert "light" in popped

    def test_tenant_queue_bound(self):
        q = self.queue(tenants=(TenantConfig("t", max_queue=2),))
        q.push(make_request("t"))
        q.push(make_request("t"))
        with pytest.raises(TenantQueueFull):
            q.push(make_request("t"))
        assert q.depth == 2  # queued requests keep their slots

    def test_global_queue_bound(self):
        q = self.queue(max_queue_depth=3)
        for i in range(3):
            q.push(make_request(f"t{i}"))
        with pytest.raises(EngineOverloaded):
            q.push(make_request("t9"))

    def test_eligibility_filter_skips_capped_heads(self):
        q = self.queue()
        blocked = make_request("heavy", signature=("busy",))
        ready = make_request("light", signature=("idle",))
        q.push(blocked)
        q.push(ready)
        popped = q.pop(lambda r: r.signature != ("busy",))
        assert popped is ready
        assert q.pop() is blocked

    def test_drain_all_empties_every_queue(self):
        q = self.queue()
        reqs = [make_request("heavy"), make_request("light")]
        for r in reqs:
            q.push(r)
        assert sorted(map(id, q.drain_all())) == sorted(map(id, reqs))
        assert q.depth == 0


# ---------------------------------------------------------------------------
# QoSFrontend against a fake engine
# ---------------------------------------------------------------------------
class _FakeEngine:
    """Just enough engine for QoSFrontend: registry, tracer, _route_once.

    Each call to ``_route_once`` appends ``(tenant-partition, future)`` to
    ``routed`` and returns a future the test resolves by hand — dispatch
    order and in-flight lifetime are fully controlled.
    """

    def __init__(self, route_once=None):
        self.registry = MetricsRegistry()
        self.tracer = None
        self.routed = []
        self._route_once_fn = route_once

    def _route_once(self, model, signature, arrays, batch_len,
                    partition=None):
        if self._route_once_fn is not None:
            return self._route_once_fn(model, signature, arrays, batch_len,
                                       partition)
        future: Future = Future()
        self.routed.append((partition, future))
        return future, None


def make_frontend(config=None, route_once=None):
    engine = _FakeEngine(route_once=route_once)
    frontend = QoSFrontend(engine, config or QoSConfig())
    return engine, frontend


class TestQoSFrontend:
    def test_deadline_already_expired_at_admission(self):
        _, frontend = make_frontend()
        try:
            with pytest.raises(DeadlineExpired):
                frontend.submit(object(), {}, 1, ("sig",), tenant="t",
                                deadline_s=0.0)
            with pytest.raises(DeadlineExpired):
                frontend.submit(object(), {}, 1, ("sig",), tenant="t",
                                deadline_s=-1.0)
            assert frontend.stats()["tenants"]["t"]["expired"] == 2
            assert frontend.stats()["depth"] == 0
        finally:
            frontend.close(drain_timeout=0.1)

    def test_tenant_default_deadline_applies(self):
        config = QoSConfig(tenants=(TenantConfig("slo", deadline_s=30.0),))
        engine, frontend = make_frontend(config)
        try:
            future = frontend.submit(object(), {}, 1, ("sig",), tenant="slo")
            wait_until(lambda: engine.routed)
            engine.routed[0][1].set_result({"y": 1})
            assert future.result(timeout=5) == {"y": 1}
        finally:
            frontend.close(drain_timeout=0.1)

    def test_queue_full_rejection_ordering(self):
        """The overflowing request is rejected; queued ones complete FIFO."""
        config = QoSConfig(tenants=(TenantConfig("t", max_queue=2),),
                           max_artifact_inflight=1)
        engine, frontend = make_frontend(config)
        try:
            model = object()
            f1 = frontend.submit(model, {}, 1, ("sig",), tenant="t")
            wait_until(lambda: len(engine.routed) == 1)  # r1 in flight
            f2 = frontend.submit(model, {}, 1, ("sig",), tenant="t")
            f3 = frontend.submit(model, {}, 1, ("sig",), tenant="t")
            with pytest.raises(TenantQueueFull) as excinfo:
                frontend.submit(model, {}, 1, ("sig",), tenant="t")
            assert excinfo.value.http_status == 429
            assert excinfo.value.retry_after_s is not None
            # r2/r3 kept their slots and dispatch strictly in FIFO order.
            engine.routed[0][1].set_result({"r": 1})
            wait_until(lambda: len(engine.routed) == 2)
            assert not f3.done()
            engine.routed[1][1].set_result({"r": 2})
            wait_until(lambda: len(engine.routed) == 3)
            engine.routed[2][1].set_result({"r": 3})
            assert f1.result(timeout=5) == {"r": 1}
            assert f2.result(timeout=5) == {"r": 2}
            assert f3.result(timeout=5) == {"r": 3}
            stats = frontend.stats()["tenants"]["t"]
            assert stats["rejected"] == 1
            assert stats["completed"] == 3
        finally:
            frontend.close(drain_timeout=0.1)

    def test_global_overload_returns_503(self):
        config = QoSConfig(max_queue_depth=1, max_artifact_inflight=1)
        engine, frontend = make_frontend(config)
        try:
            model = object()
            frontend.submit(model, {}, 1, ("sig",), tenant="a")
            wait_until(lambda: len(engine.routed) == 1)
            frontend.submit(model, {}, 1, ("sig",), tenant="b")  # fills depth 1
            with pytest.raises(EngineOverloaded) as excinfo:
                frontend.submit(model, {}, 1, ("sig",), tenant="c")
            assert excinfo.value.http_status == 503
        finally:
            frontend.close(drain_timeout=0.1)

    def test_deadline_expires_while_queued(self):
        config = QoSConfig(max_artifact_inflight=1)
        engine, frontend = make_frontend(config)
        try:
            model = object()
            frontend.submit(model, {}, 1, ("sig",), tenant="t")
            wait_until(lambda: len(engine.routed) == 1)
            starved = frontend.submit(model, {}, 1, ("sig",), tenant="t",
                                      deadline_s=0.02)
            time.sleep(0.05)  # budget runs out behind the in-flight request
            engine.routed[0][1].set_result({})
            with pytest.raises(DeadlineExpired):
                starved.result(timeout=5)
            assert len(engine.routed) == 1  # never wasted service on it
        finally:
            frontend.close(drain_timeout=0.1)

    def test_inflight_cap_serializes_one_artifact(self):
        config = QoSConfig(max_artifact_inflight=1)
        engine, frontend = make_frontend(config)
        try:
            model = object()
            frontend.submit(model, {}, 1, ("sig",), tenant="t")
            frontend.submit(model, {}, 1, ("sig",), tenant="t")
            wait_until(lambda: len(engine.routed) == 1)
            time.sleep(0.05)
            assert len(engine.routed) == 1  # capped, not dispatched
            # A different artifact is not capped by the busy one.
            frontend.submit(model, {}, 1, ("other",), tenant="t")
            wait_until(lambda: len(engine.routed) == 2)
            assert engine.routed[1][0] == "t"
            engine.routed[0][1].set_result({})
            wait_until(lambda: len(engine.routed) == 3)
            engine.routed[1][1].set_result({})
            engine.routed[2][1].set_result({})
        finally:
            frontend.close(drain_timeout=0.5)

    def test_dispatch_retries_batcher_closed_under_policy(self):
        """A concurrently invalidated artifact is re-routed, not failed."""
        attempts = []

        def flaky_route(model, signature, arrays, batch_len, partition):
            attempts.append(partition)
            if len(attempts) < 3:
                raise BatcherClosed("artifact died")
            future: Future = Future()
            future.set_result({"ok": True})
            return future, None

        engine, frontend = make_frontend(route_once=flaky_route)
        try:
            future = frontend.submit(object(), {}, 1, ("sig",), tenant="t")
            assert future.result(timeout=5) == {"ok": True}
            assert len(attempts) == 3
        finally:
            frontend.close(drain_timeout=0.1)

    def test_dispatch_retry_respects_remaining_deadline(self):
        """Retries never outlive the request's budget (PR 8 integration)."""
        def always_closed(model, signature, arrays, batch_len, partition):
            raise BatcherClosed("artifact keeps dying")

        config = QoSConfig(dispatch_retry=dataclass_replace_retry())
        engine, frontend = make_frontend(config, route_once=always_closed)
        try:
            future = frontend.submit(object(), {}, 1, ("sig",), tenant="t",
                                     deadline_s=0.05)
            with pytest.raises((BatcherClosed, DeadlineExpired)):
                future.result(timeout=5)
        finally:
            frontend.close(drain_timeout=0.1)

    def test_strict_tenancy_rejects_unknown_synchronously(self):
        config = QoSConfig(tenants=(TenantConfig("known"),),
                           strict_tenants=True)
        _, frontend = make_frontend(config)
        try:
            with pytest.raises(UnknownTenant) as excinfo:
                frontend.submit(object(), {}, 1, ("sig",), tenant="nope")
            assert excinfo.value.http_status == 403
        finally:
            frontend.close(drain_timeout=0.1)

    def test_drain_rejects_new_and_finishes_queued(self):
        config = QoSConfig(max_artifact_inflight=1)
        engine, frontend = make_frontend(config)
        try:
            model = object()
            f1 = frontend.submit(model, {}, 1, ("sig",), tenant="t")
            f2 = frontend.submit(model, {}, 1, ("sig",), tenant="t")
            wait_until(lambda: len(engine.routed) == 1)
            frontend.begin_drain()
            with pytest.raises(EngineOverloaded):
                frontend.submit(model, {}, 1, ("sig",), tenant="t")
            resolver = threading.Thread(target=self._resolve_all,
                                        args=(engine, 2))
            resolver.start()
            assert frontend.drain(timeout=5.0)
            resolver.join()
            assert f1.result(timeout=1) == {}
            assert f2.result(timeout=1) == {}
        finally:
            frontend.close(drain_timeout=0.1)

    @staticmethod
    def _resolve_all(engine: _FakeEngine, expected: int) -> None:
        deadline = time.monotonic() + 5.0
        resolved = 0
        while resolved < expected and time.monotonic() < deadline:
            if len(engine.routed) > resolved:
                engine.routed[resolved][1].set_result({})
                resolved += 1
            else:
                time.sleep(0.001)

    def test_close_fails_leftover_queued_requests(self):
        config = QoSConfig(max_artifact_inflight=1)
        engine, frontend = make_frontend(config)
        model = object()
        frontend.submit(model, {}, 1, ("sig",), tenant="t")
        wait_until(lambda: len(engine.routed) == 1)
        stuck = frontend.submit(model, {}, 1, ("sig",), tenant="t")
        frontend.close(drain_timeout=0.05)  # in-flight request never resolves
        with pytest.raises(EngineOverloaded):
            stuck.result(timeout=5)

    def test_metrics_families_present(self):
        engine, frontend = make_frontend()
        try:
            future = frontend.submit(object(), {}, 1, ("sig",), tenant="m")
            wait_until(lambda: engine.routed)
            engine.routed[0][1].set_result({})
            future.result(timeout=5)
            text = engine.registry.render_prometheus()
            for family in ("qos_admitted_total", "qos_requests_done_total",
                           "qos_queue_wait_seconds", "qos_queue_depth",
                           "qos_inflight_requests"):
                assert family in text, family
        finally:
            frontend.close(drain_timeout=0.1)


def dataclass_replace_retry():
    import dataclasses as _dc

    from repro.resilience import RetryPolicy
    return RetryPolicy(max_attempts=100, backoff_base_s=0.01,
                       backoff_max_s=0.01, jitter=0.0,
                       retry_on=(BatcherClosed,))


# ---------------------------------------------------------------------------
# Artifact-cache partitioning
# ---------------------------------------------------------------------------
def fake_key(tag: str):
    from repro.serving import ArtifactKey
    return ArtifactKey(model_fingerprint=f"model-{tag}",
                       config_fingerprint="config", input_signature=(tag,))


class _Closeable:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestCachePartitioning:
    def test_quota_evicts_own_partition_only(self):
        """A tenant at its quota churns through its own artifacts while a
        colder tenant's (globally older!) entry stays warm."""
        evicted = []
        quotas = {"heavy": 2}
        cache = ArtifactCache(capacity=10,
                              on_evict=lambda k, a: evicted.append(k),
                              quota_for=quotas.get)
        protected = fake_key("protected")
        cache.get_or_create(protected, _Closeable, partition="light")
        heavy_keys = [fake_key(f"h{i}") for i in range(4)]
        for key in heavy_keys:
            cache.get_or_create(key, _Closeable, partition="heavy")
        # heavy exceeded its quota twice: its own two oldest went.
        assert evicted == heavy_keys[:2]
        assert protected in cache
        assert cache.partition_sizes() == {"light": 1, "heavy": 2}

    def test_capacity_overflow_prefers_over_quota_partition(self):
        """Global LRU pressure victimizes the over-quota partition first
        even when the protected partition holds the oldest entry."""
        evicted = []
        quotas = {"bounded": 1}
        cache = ArtifactCache(capacity=2,
                              on_evict=lambda k, a: evicted.append(k),
                              quota_for=quotas.get)
        oldest = fake_key("oldest")
        cache.get_or_create(oldest, _Closeable, partition="other")
        cache.get_or_create(fake_key("b1"), _Closeable, partition="bounded")
        # "bounded" is at quota; an unpartitioned insert overflows capacity
        # and evicts from it... nothing is over quota here, so plain LRU:
        cache.get_or_create(fake_key("free"), _Closeable)
        assert evicted == [oldest]

    def test_hit_keeps_original_partition(self):
        cache = ArtifactCache(capacity=4, quota_for={"a": 1}.get)
        key = fake_key("shared")
        cache.get_or_create(key, _Closeable, partition="a")
        _, hit = cache.get_or_create(key, _Closeable, partition="b")
        assert hit
        assert cache.partition_sizes() == {"a": 1}

    def test_invalidate_and_clear_forget_partitions(self):
        cache = ArtifactCache(capacity=4, quota_for={}.get)
        key = fake_key("gone")
        cache.get_or_create(key, _Closeable, partition="p")
        cache.invalidate(key)
        assert cache.partition_sizes() == {}
        cache.get_or_create(key, _Closeable, partition="p")
        cache.clear()
        assert cache.partition_sizes() == {}

    def test_unpartitioned_insert_never_hits_quota_paths(self):
        cache = ArtifactCache(capacity=2, quota_for={"t": 1}.get)
        for i in range(3):
            cache.get_or_create(fake_key(f"u{i}"), _Closeable)
        assert len(cache) == 2  # plain LRU behavior


# ---------------------------------------------------------------------------
# Real engine end to end
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def qos_engine(self, **qos_overrides) -> InferenceEngine:
        defaults = dict(tenants=(TenantConfig("gold", weight=4.0),
                                 TenantConfig("free", weight=1.0)))
        defaults.update(qos_overrides)
        return InferenceEngine(EngineConfig(
            max_batch_size=4, max_wait_s=0.002, cache_capacity=4,
            qos=QoSConfig(**defaults)))

    def test_qos_results_match_direct_submit(self):
        model = build_diamond_model()
        feed = example_inputs(model)
        direct = InferenceEngine(EngineConfig(max_batch_size=4))
        try:
            reference = direct.infer(model, feed)
        finally:
            direct.shutdown()
        engine = self.qos_engine()
        try:
            outputs = engine.submit(model, feed, tenant="gold").result(
                timeout=60)
            for name, ref in reference.items():
                np.testing.assert_array_equal(np.asarray(ref),
                                              np.asarray(outputs[name]))
        finally:
            engine.shutdown()

    def test_concurrent_multi_tenant_traffic_all_completes(self):
        model = build_diamond_model()
        feed = example_inputs(model)
        engine = self.qos_engine()
        try:
            futures = [engine.submit(model, feed,
                                     tenant="gold" if i % 2 else "free")
                       for i in range(16)]
            for future in futures:
                assert future.result(timeout=60)
            stats = engine.qos.stats()
            assert stats["tenants"]["gold"]["completed"] == 8
            assert stats["tenants"]["free"]["completed"] == 8
        finally:
            engine.shutdown()

    def test_engine_drain_then_reject(self):
        model = build_diamond_model()
        feed = example_inputs(model)
        engine = self.qos_engine()
        try:
            engine.submit(model, feed, tenant="gold").result(timeout=60)
            assert engine.drain(timeout=10.0)
            with pytest.raises(EngineOverloaded):
                engine.submit(model, feed, tenant="gold")
        finally:
            engine.shutdown()

    def test_default_engine_applies_the_stock_bounds(self):
        """A default InferenceEngine() is behind admission control: a flood
        past the default tenant's queue bound is rejected synchronously,
        and every admitted request still resolves bitwise-correct."""
        model = build_diamond_model()
        feed = example_inputs(model)
        interp = create_session(model, executor="interp")
        references = set()
        for size in range(1, 9):  # a fused batch may take any size up to 8
            stacked = {k: np.concatenate([v] * size) for k, v in feed.items()}
            row = {k: v[:1] for k, v in interp.run(stacked).items()}
            references.add(b"".join(row[k].tobytes() for k in sorted(row)))
        gate = threading.Event()
        engine = InferenceEngine()
        try:
            engine.warmup(model, feed)
            session = list(engine._cache.values())[0].session
            for name in ("run", "run_with_binding"):
                def gated(*args, _real=getattr(session, name), **kwargs):
                    gate.wait(timeout=30.0)
                    return _real(*args, **kwargs)
                setattr(session, name, gated)
            admitted = []
            with pytest.raises(TenantQueueFull) as excinfo:
                for _ in range(200):
                    admitted.append(engine.submit(model, feed))
            assert excinfo.value.retry_after_s is not None
            # 64 queued at most, plus whatever was already dispatched (<= 32)
            assert 64 <= len(admitted) <= 64 + 32
            gate.set()
            for future in admitted:
                out = future.result(timeout=60)
                assert b"".join(out[k].tobytes()
                                for k in sorted(out)) in references
            stats = engine.qos.stats()["tenants"]["default"]
            assert stats["completed"] == len(admitted) + 1  # + the warmup
            assert stats["rejected"] == 1
        finally:
            gate.set()
            engine.shutdown()

    def test_warmup_is_an_admitted_request(self):
        """warmup() takes the admitted path (no QoS bypass) and still costs
        exactly one cache access, as it always did."""
        model = build_diamond_model()

        def admitted(engine):
            return engine.registry.get_value(
                "qos_admitted_total", labels={"tenant": "default"})

        with InferenceEngine() as engine:
            summary = engine.warmup(model)
            assert summary["batchable"] is True
            assert admitted(engine) == 1
            cache = engine.metrics.snapshot()["cache"]
            assert (cache["misses"], cache["hits"]) == (1, 0)
            assert engine.cache_stats()["misses"] == 1
            engine.warmup(model)
            assert admitted(engine) == 2
            cache = engine.metrics.snapshot()["cache"]
            assert (cache["misses"], cache["hits"]) == (1, 1)
            assert engine.cache_stats()["hits"] == 1

    def test_shutdown_closes_frontend(self):
        engine = self.qos_engine()
        engine.shutdown()
        assert engine.qos._closed

    def test_cache_partition_label_follows_tenant(self):
        model = build_diamond_model()
        feed = example_inputs(model)
        engine = self.qos_engine(tenants=(
            TenantConfig("gold", weight=4.0, cache_quota=2),
            TenantConfig("free", weight=1.0)))
        try:
            engine.submit(model, feed, tenant="gold").result(timeout=60)
            sizes = engine._cache.partition_sizes()
            assert sizes.get("gold") == 1
        finally:
            engine.shutdown()
