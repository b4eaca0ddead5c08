"""Tests for the multi-tenant QoS layer and artifact-cache partitioning.

Covers the admission queue's start-time-fair-queueing discipline (weighted
shares under a 10:1 skew, per-tenant FIFO), the frontend's edge cases the
issue calls out (deadline already expired at admission, queue-full
rejection ordering, deadline expiry while queued, drain semantics), weights
and deadlines holding up to the moment a batch is taken, and the per-tenant
cache quotas that stop one heavy tenant from evicting another's warm
artifacts.

The frontend tests play the lane by hand — ``take_batch`` / ``complete``
from the test thread, a fake clock for deadlines — so they are
deterministic: no compilation, no sleeps.  A final block exercises the real
engine end to end.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.observability import MetricsRegistry
from repro.runtime.session import create_session
from repro.serving import (
    ArtifactCache,
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
from tests.conftest import (
    FakeClock,
    LaneDouble,
    artifact_of,
    build_chain_model,
    build_diamond_model,
    gate_session,
)

#: the artifact every request is for unless a test says otherwise
KEY = "artifact"

def make_request(tenant: str, batch_len: int = 1, key=KEY,
                 deadline=None) -> _QoSRequest:
    return _QoSRequest(tenant=tenant, key=key, inputs={},
                       batch_len=batch_len, future=Future(),
                       deadline=deadline, enqueue_t=0.0)


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
        popped = [q.pop(KEY).tenant for _ in range(110)]
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
        assert [q.pop(KEY) for _ in range(5)] == reqs

    def test_idle_tenant_does_not_bank_credit(self):
        """A tenant idle while others ran restarts at the virtual clock,
        not at its ancient last-finish stamp (no starvation of the busy
        tenant, no unbounded catch-up burst)."""
        q = self.queue()
        for _ in range(50):
            q.push(make_request("heavy"))
        for _ in range(30):
            q.pop(KEY)
        q.push(make_request("light"))
        # The light arrival lands relative to the *current* virtual time:
        # it waits its weighted share (~10 heavy dispatches at 10:1), not
        # behind all 20 remaining heavy requests.
        popped = [q.pop(KEY).tenant for _ in range(12)]
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

    def test_pop_skips_other_artifacts_without_reordering(self):
        """``pop(key)`` passes over other artifacts' entries — they are
        neither blocked behind it nor reordered among themselves."""
        q = self.queue()
        a1, b1, a2, b2 = (make_request("heavy", key=k) for k in "abab")
        c1 = make_request("light", key="a")
        for request in (a1, b1, a2, b2, c1):
            q.push(request)
        assert q.pop("b") is b1  # not blocked behind a1
        assert q.pop("missing") is None
        assert q.depth == 4
        assert q.pop("b") is b2
        assert q.pop("b") is None
        # artifact a's entries kept their order: heavy (weight 10) first
        assert [q.pop("a") for _ in range(3)] == [a1, a2, c1]
        assert q.depth == 0

    def test_drain_all_of_one_key_leaves_the_rest_queued(self):
        q = self.queue()
        keep, drop = make_request("heavy", key="a"), make_request("heavy", key="b")
        q.push(keep)
        q.push(drop)
        assert q.has("b")
        assert q.drain_all("b") == [drop]
        assert not q.has("b") and q.depth == 1
        assert q.pop("a") is keep

    def test_drain_all_empties_every_queue(self):
        q = self.queue()
        reqs = [make_request("heavy"), make_request("light")]
        for r in reqs:
            q.push(r)
        assert sorted(map(id, q.drain_all())) == sorted(map(id, reqs))
        assert q.depth == 0


# ---------------------------------------------------------------------------
# QoSFrontend with the test playing the lane
# ---------------------------------------------------------------------------
def make_frontend(config=None, clock=None) -> QoSFrontend:
    kwargs = {"clock": clock} if clock is not None else {}
    return QoSFrontend(config or QoSConfig(), MetricsRegistry(), **kwargs)


def take_one(frontend: QoSFrontend, key=KEY) -> _QoSRequest:
    """Play the lane: take the next request for ``key`` (must be queued)."""
    assert frontend.has_queued(key)
    (request,) = frontend.take_batch(key, 1)
    return request


def take_in_thread(frontend: QoSFrontend, key=KEY, max_batch: int = 8,
                   **kwargs):
    """Play a replica blocked in ``take_batch``; its batch lands in a list."""
    taken = []
    thread = threading.Thread(target=lambda: taken.append(
        frontend.take_batch(key, max_batch, **kwargs)), daemon=True)
    thread.start()
    return thread, taken


def wait_idle(frontend: QoSFrontend, count: int, key=KEY) -> None:
    """Block until ``count`` takers of ``key`` are inside ``take_batch``."""
    deadline = time.monotonic() + 5.0
    while True:
        with frontend._lock:
            takers = frontend._takers.get(key)
            if takers is not None and takers.idle == count:
                return
        assert time.monotonic() < deadline, "takers did not arrive"
        time.sleep(0.001)


def joined(thread, taken):
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    (batch,) = taken
    return batch


class TestTakeShares:
    """How one key's backlog is divided over its takers (a lane's replicas)."""

    def test_eight_queued_split_four_and_four_over_two_takers(self):
        frontend = make_frontend()
        try:
            takers = [take_in_thread(frontend, primary=primary)
                      for primary in (True, False)]
            wait_idle(frontend, 2)
            with frontend._lock:  # both takers see all eight at once
                admitted = [frontend.admit(KEY, {}, 1) for _ in range(8)]
            batches = [joined(*taker) for taker in takers]
            assert sorted(map(len, batches)) == [4, 4]
            assert sorted(map(id, batches[0] + batches[1])) == \
                sorted(map(id, admitted))
        finally:
            frontend.close(drain_timeout=0.05)

    def test_a_taker_the_lane_could_still_start_counts(self):
        """One idle taker and one spare: half now, and the rest is the
        next taker's — capped at ``max_batch`` either way."""
        frontend = make_frontend()
        try:
            for _ in range(8):
                frontend.admit(KEY, {}, 1)
            assert len(frontend.take_batch(KEY, 8, spare=lambda: 1)) == 4
            assert len(frontend.take_batch(KEY, 3, spare=lambda: 1)) == 2
            assert len(frontend.take_batch(KEY, 8)) == 2
            assert not frontend.has_queued(KEY)
        finally:
            frontend.close(drain_timeout=0.05)

    def test_a_lone_request_waits_for_the_idle_primary(self):
        """With replica 0 idle, a process replica's take leaves a lone
        request to it; once replica 0 is busy, the next lone request is
        the process replica's."""
        frontend = make_frontend()
        try:
            primary = take_in_thread(frontend, primary=True)
            other = take_in_thread(frontend, primary=False)
            wait_idle(frontend, 2)
            lone = frontend.admit(KEY, {}, 1)
            assert joined(*primary) == [lone]
            wait_idle(frontend, 1)
            assert other[0].is_alive() and other[1] == []
            second = frontend.admit(KEY, {}, 1)  # replica 0 is busy now
            assert joined(*other) == [second]
        finally:
            frontend.close(drain_timeout=0.05)

    def test_an_admit_wakes_only_its_own_keys_takers(self):
        frontend = make_frontend()
        try:
            thread, taken = take_in_thread(frontend, key="b")
            # a second taker keeps "b"'s record alive after the first takes
            other = take_in_thread(frontend, key="b")
            wait_idle(frontend, 2, key="b")
            cond = frontend._takers["b"].cond
            notified = []
            real_notify_all = cond.notify_all

            def notify_all():
                notified.append(True)
                real_notify_all()

            cond.notify_all = notify_all
            request = frontend.admit("a", {}, 1)
            assert notified == [] and thread.is_alive()
            assert frontend.take_batch("a", 8) == [request]
            mine = frontend.admit("b", {}, 1)
            assert notified == [True]
            wait_idle(frontend, 1, key="b")  # one taker took it, one waits
            frontend.wake()  # a closing lane still wakes every key's takers
            assert notified == [True, True]
        finally:
            frontend.close(drain_timeout=0.05)
        batches = [joined(*taker) for taker in ((thread, taken), other)]
        assert sorted(batches, key=bool) == [None, [mine]]


class TestQoSFrontend:
    def test_deadline_already_expired_at_admission(self):
        frontend = make_frontend()
        try:
            with pytest.raises(DeadlineExpired):
                frontend.admit(KEY, {}, 1, tenant="t", deadline_s=0.0)
            with pytest.raises(DeadlineExpired):
                frontend.admit(KEY, {}, 1, tenant="t", deadline_s=-1.0)
            assert frontend.stats()["tenants"]["t"]["expired"] == 2
            assert frontend.stats()["depth"] == 0
        finally:
            frontend.close(drain_timeout=0.1)

    def test_tenant_default_deadline_applies(self):
        config = QoSConfig(tenants=(TenantConfig("slo", deadline_s=30.0),))
        clock = FakeClock()
        frontend = make_frontend(config, clock)
        try:
            future = frontend.admit(KEY, {}, 1, tenant="slo").future
            request = take_one(frontend)
            assert request.deadline == clock.now + 30.0
            frontend.complete(request, {"y": 1})
            assert future.result(timeout=5) == {"y": 1}
        finally:
            frontend.close(drain_timeout=0.1)

    def test_queue_full_rejection_ordering(self):
        """The overflowing request is rejected; queued ones complete FIFO."""
        config = QoSConfig(tenants=(TenantConfig("t", max_queue=2),))
        frontend = make_frontend(config)
        try:
            f1 = frontend.admit(KEY, {}, 1, tenant="t").future
            r1 = take_one(frontend)  # r1 in flight
            f2 = frontend.admit(KEY, {}, 1, tenant="t").future
            f3 = frontend.admit(KEY, {}, 1, tenant="t").future
            with pytest.raises(TenantQueueFull) as excinfo:
                frontend.admit(KEY, {}, 1, tenant="t")
            assert excinfo.value.http_status == 429
            assert excinfo.value.retry_after_s is not None
            # r2/r3 kept their slots and are taken strictly in FIFO order.
            frontend.complete(r1, {"r": 1})
            r2 = take_one(frontend)
            assert r2.future is f2 and not f3.done()
            frontend.complete(r2, {"r": 2})
            r3 = take_one(frontend)
            assert r3.future is f3
            frontend.complete(r3, {"r": 3})
            assert f1.result(timeout=5) == {"r": 1}
            assert f2.result(timeout=5) == {"r": 2}
            assert f3.result(timeout=5) == {"r": 3}
            stats = frontend.stats()["tenants"]["t"]
            assert stats["rejected"] == 1
            assert stats["completed"] == 3
        finally:
            frontend.close(drain_timeout=0.1)

    def test_global_overload_returns_503(self):
        frontend = make_frontend(QoSConfig(max_queue_depth=1))
        try:
            frontend.admit(KEY, {}, 1, tenant="a")
            take_one(frontend)  # in flight: no longer counts as queued
            frontend.admit(KEY, {}, 1, tenant="b")  # fills depth 1
            with pytest.raises(EngineOverloaded) as excinfo:
                frontend.admit(KEY, {}, 1, tenant="c")
            assert excinfo.value.http_status == 503
        finally:
            frontend.close(drain_timeout=0.1)

    def test_deadline_expires_while_queued(self):
        """Under the stock config a deadline holds up to the moment of
        execution: a request whose budget runs out while it waits behind a
        held batch is failed when the lane comes for it, never served."""
        clock = FakeClock()
        frontend = make_frontend(clock=clock)
        try:
            frontend.admit(KEY, {}, 1, tenant="t")
            held = take_one(frontend)  # the lane is busy with this batch
            starved = frontend.admit(KEY, {}, 1, tenant="t", deadline_s=0.1)
            patient = frontend.admit(KEY, {}, 1, tenant="t", deadline_s=60.0)
            clock.now += 0.2  # the budget runs out behind the held batch
            frontend.complete(held, {})
            assert take_one(frontend) is patient  # never wasted service on it
            with pytest.raises(DeadlineExpired):
                starved.future.result(timeout=5)
            stats = frontend.stats()
            assert stats["tenants"]["t"]["expired"] == 1
            assert stats["inflight"] == 1  # only the patient one
        finally:
            frontend.close(drain_timeout=0.1)

    def test_weights_hold_up_to_the_moment_of_execution(self):
        """24 requests of a weight-1 tenant are queued; a weight-10 tenant's
        request arriving after them is in the very next batch taken."""
        config = QoSConfig(tenants=(TenantConfig("vip", weight=10.0),))
        frontend = make_frontend(config)
        try:
            for _ in range(24):
                frontend.admit(KEY, {}, 1, tenant="bulk")
            in_flight = frontend.take_batch(KEY, 8)
            assert [r.tenant for r in in_flight] == ["bulk"] * 8
            vip = frontend.admit(KEY, {}, 1, tenant="vip")
            next_batch = frontend.take_batch(KEY, 8)
            assert next_batch[0] is vip
            assert [r.tenant for r in next_batch[1:]] == ["bulk"] * 7
        finally:
            frontend.close(drain_timeout=0.05)

    def test_take_batch_serves_one_artifact_only(self):
        frontend = make_frontend()
        try:
            mine = frontend.admit(KEY, {}, 1)
            frontend.admit("other", {}, 1)
            assert frontend.take_batch(KEY, 8) == [mine]
            assert frontend.has_queued("other") and not frontend.has_queued(KEY)
        finally:
            frontend.close(drain_timeout=0.05)

    def test_closing_lane_takes_nothing_more(self):
        """A lane told to stop leaves what is queued to its replacement."""
        frontend = make_frontend()
        try:
            frontend.admit(KEY, {}, 1)
            assert frontend.take_batch(KEY, 1, closing=lambda: True) is None
            assert frontend.has_queued(KEY)
        finally:
            frontend.close(drain_timeout=0.05)

    def test_fail_queued_fails_one_artifacts_requests(self):
        frontend = make_frontend()
        try:
            doomed = [frontend.admit(KEY, {}, 1, tenant="t") for _ in range(2)]
            spared = frontend.admit("other", {}, 1, tenant="t")
            boom = RuntimeError("compile exploded")
            frontend.fail_queued(KEY, boom)
            for request in doomed:
                assert request.future.exception(timeout=1) is boom
            assert not spared.future.done()
            stats = frontend.stats()
            assert stats["tenants"]["t"]["failed"] == 2 and stats["depth"] == 1
        finally:
            frontend.close(drain_timeout=0.05)

    def test_a_cancelled_future_does_not_break_its_lane(self):
        """The gateway's response timeout cancels the future it awaits;
        answering that request later must be a no-op, not an error."""
        frontend = make_frontend()
        try:
            request = frontend.admit(KEY, {}, 1, tenant="t")
            assert request.future.cancel()
            frontend.complete(take_one(frontend), {"late": True})
            assert frontend.stats()["inflight"] == 0
            assert frontend.drain(timeout=1.0)
        finally:
            frontend.close(drain_timeout=0.1)

    def test_strict_tenancy_rejects_unknown_synchronously(self):
        config = QoSConfig(tenants=(TenantConfig("known"),),
                           strict_tenants=True)
        frontend = make_frontend(config)
        try:
            with pytest.raises(UnknownTenant) as excinfo:
                frontend.admit(KEY, {}, 1, tenant="nope")
            assert excinfo.value.http_status == 403
        finally:
            frontend.close(drain_timeout=0.1)

    def test_drain_rejects_new_and_finishes_queued(self):
        frontend = make_frontend()
        try:
            f1 = frontend.admit(KEY, {}, 1, tenant="t").future
            f2 = frontend.admit(KEY, {}, 1, tenant="t").future
            r1 = take_one(frontend)
            frontend.begin_drain()
            with pytest.raises(EngineOverloaded):
                frontend.admit(KEY, {}, 1, tenant="t")
            assert not frontend.drain(timeout=0.01)  # r1 taken, r2 queued

            def finish() -> None:
                frontend.complete(r1, {})
                frontend.complete(take_one(frontend), {})

            resolver = threading.Thread(target=finish)
            resolver.start()
            assert frontend.drain(timeout=5.0)
            resolver.join(timeout=5.0)
            assert not resolver.is_alive()
            assert f1.result(timeout=1) == {}
            assert f2.result(timeout=1) == {}
        finally:
            frontend.close(drain_timeout=0.1)

    def test_close_fails_leftover_queued_requests(self):
        frontend = make_frontend()
        frontend.admit(KEY, {}, 1, tenant="t")
        take_one(frontend)  # in flight, never answered
        stuck = frontend.admit(KEY, {}, 1, tenant="t")
        frontend.close(drain_timeout=0.05)
        with pytest.raises(EngineOverloaded):
            stuck.future.result(timeout=5)
        assert frontend.take_batch(KEY, 1) is None  # lanes are released

    def test_metrics_families_present(self):
        frontend = make_frontend()
        try:
            future = frontend.admit(KEY, {}, 1, tenant="m").future
            frontend.complete(take_one(frontend), {})
            future.result(timeout=5)
            text = frontend._registry.render_prometheus()
            for family in ("qos_admitted_total", "qos_requests_done_total",
                           "qos_queue_wait_seconds", "qos_queue_depth",
                           "qos_inflight_requests"):
                assert family in text, family
        finally:
            frontend.close(drain_timeout=0.1)

    def test_queue_wait_is_observed_when_the_request_is_taken(self):
        """``qos_queue_wait_seconds`` is the whole wait: admission to the
        moment a lane takes the request, however long a batch was held."""
        clock = FakeClock()
        frontend = make_frontend(clock=clock)
        hist = frontend._registry.histogram("qos_queue_wait_seconds")
        try:
            frontend.admit(KEY, {}, 1)
            held = take_one(frontend)
            frontend.admit(KEY, {}, 1)
            clock.now += 2.5  # waits behind the held batch
            frontend.complete(held, {})
            assert hist.count == 1
            take_one(frontend)
            assert (hist.count, hist.sum) == (2, 2.5)
        finally:
            frontend.close(drain_timeout=0.05)

    def test_retry_after_estimate_is_per_request_not_per_pop(self):
        """The dispatch-interval EWMA gets one sample per take — the time
        since the previous take over the requests taken — so a fused batch
        (eight pops microseconds apart) does not decay it towards zero and
        a rejected client is not told to come back too early."""
        clock = FakeClock()
        frontend = make_frontend(
            QoSConfig(tenants=(TenantConfig("t", max_queue=200),)), clock)
        try:
            for _ in range(2):  # two takes of 8 requests, 16 ms apart
                for _ in range(8):
                    frontend.admit(KEY, {}, 1, tenant="t")
                assert len(frontend.take_batch(KEY, 8)) == 8
                clock.now += 0.016
            assert frontend._dispatch_interval_ewma == pytest.approx(0.002)
            for _ in range(200):
                frontend.admit(KEY, {}, 1, tenant="t")
            with pytest.raises(TenantQueueFull) as excinfo:
                frontend.admit(KEY, {}, 1, tenant="t")
            # 200 queued x 2 ms per request, not the 0.1 s floor
            assert excinfo.value.retry_after_s == 0.4
        finally:
            frontend.close(drain_timeout=0.05)

    def test_lanes_and_submitters_under_contention_lose_nothing(self):
        """Stress: more threads than cores on the frontend's lock, two
        takers per key sharing its backlog.  Every admitted request
        resolves exactly once with its own payload, and the frontend's
        books balance, its idle-taker counts included."""
        keys = ("a", "b", "c")
        frontend = make_frontend(QoSConfig(
            default_tenant=TenantConfig("default", max_queue=10_000),
            max_queue_depth=10_000))
        lanes = [LaneDouble(frontend, key, lambda stacked: {"y": stacked["x"]},
                            4, primary=primary)
                 for key in keys for primary in (True, False)]
        futures = {}

        def submitter(worker: int) -> None:
            for i in range(60):
                tag = worker * 1000 + i
                futures[tag] = frontend.admit(
                    keys[i % 3], {"x": np.full((1, 1), tag)}, 1,
                    tenant=f"t{worker % 2}").future

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=submitter, args=(w,))
                       for w in range(4)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            for tag, future in futures.items():
                assert future.result(timeout=30.0)["y"].item() == tag
            assert frontend.drain(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
            for lane in lanes:
                lane.close()
            frontend.close(drain_timeout=0.1)
        stats = frontend.stats()
        assert stats["depth"] == 0 and stats["inflight"] == 0
        assert frontend._takers == {}  # no taker waits, so no record is kept
        assert sum(t["completed"] for t in stats["tenants"].values()) == 240
        assert sum(t["failed"] for t in stats["tenants"].values()) == 0


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
            max_batch_size=4, cache_capacity=4, qos=QoSConfig(**defaults)))

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
            _, gate = gate_session(artifact_of(engine, model, feed))
            admitted = []
            with pytest.raises(TenantQueueFull) as excinfo:
                for _ in range(200):
                    admitted.append(engine.submit(model, feed))
            assert excinfo.value.retry_after_s is not None
            # 64 queued at most, plus the one batch the lane holds (<= 8)
            assert 64 <= len(admitted) <= 64 + 8
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

    def test_one_batch_in_flight_per_artifact(self):
        """At the default config a busy artifact's requests wait in the
        admission queue — one batch in flight, never a second — while
        another artifact is served past them."""
        model, other = build_diamond_model(), build_chain_model()
        feed = example_inputs(model)
        active, peak = [0], [0]
        entered, release = threading.Event(), threading.Event()
        with InferenceEngine() as engine:
            engine.warmup(model, feed)
            session = artifact_of(engine, model, feed).replicas[0].session
            for name in ("run", "run_with_binding"):
                def gated(*args, _real=getattr(session, name), **kwargs):
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                    entered.set()
                    assert release.wait(timeout=30.0)
                    try:
                        return _real(*args, **kwargs)
                    finally:
                        active[0] -= 1
                setattr(session, name, gated)
            try:
                first = engine.submit(model, feed)
                assert entered.wait(timeout=10.0)
                rest = [engine.submit(model, feed) for _ in range(12)]
                stats = engine.qos.stats()
                assert stats["inflight"] == 1 and stats["depth"] == 12
                # a different artifact is not held up by the busy one
                assert engine.submit(other, example_inputs(other)).result(
                    timeout=60)
            finally:
                release.set()
            for future in [first, *rest]:
                assert future.result(timeout=60)
            assert peak[0] == 1

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
