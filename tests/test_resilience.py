"""Chaos suite for the self-healing execution stack.

Drives :mod:`repro.resilience`'s deterministic :class:`FaultInjector`
through crash / hang / slow / exception / channel-corruption faults
against the warm pools (thread and process backends) and the serving
engine, asserting the properties the layer promises:

* a killed worker is detected and respawned *individually* — never via a
  full pool restart — within seconds, not the batch timeout;
* an injected failure mid-batch is retried and the caller's future
  resolves with **bitwise-correct** outputs;
* a persistently failing artifact trips its circuit breaker and serving
  degrades onto the in-process ``"plan"`` executor, then recovers through
  a half-open probe;
* every recovery decision is visible in ``stats()`` and the shared
  ``MetricsRegistry``.

Also the regression tests for the satellites: the one-shot process
driver's child-leak fix and cross-process traceback preservation.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from tests.conftest import (
    build_chain_model,
    build_diamond_model,
    build_wide_model,
    cached_artifacts,
)
from repro.pipeline import ramiel_compile
from repro.resilience import (
    BreakerOpen,
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    PoolSupervisor,
    ResilienceConfig,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.runtime.process_runtime import (
    ParallelExecutionError,
    execute_generated_module,
    remote_error_text,
)
from repro.runtime.session import create_session
from repro.runtime.worker_pool import WarmExecutorPool
from repro.serving import EngineConfig, InferenceEngine, example_inputs


def _compile(model):
    return ramiel_compile(model)


@pytest.fixture(scope="module")
def chain_compiled():
    """Single-cluster artifact: crashes cannot strand peer workers."""
    model = build_chain_model()
    result = _compile(model)
    feed = example_inputs(model, seed=7)
    reference = result.run_parallel(feed, backend="thread")
    return model, result, feed, reference


@pytest.fixture(scope="module")
def wide_compiled():
    """Four-cluster artifact for multi-worker chaos."""
    model = build_wide_model()
    result = _compile(model)
    feed = example_inputs(model, seed=11)
    reference = result.run_parallel(feed, backend="thread")
    return model, result, feed, reference


def _assert_bitwise(outputs, reference) -> None:
    assert set(outputs) == set(reference)
    for name, ref in reference.items():
        np.testing.assert_array_equal(np.asarray(outputs[name]),
                                      np.asarray(ref))


def _wait_until(predicate, timeout_s: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"{what} not reached within {timeout_s}s")


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                             backoff_multiplier=2.0, backoff_max_s=0.3,
                             jitter=0.1, seed=42)
        first, second = list(policy.delays()), list(policy.delays())
        assert first == second  # seeded jitter replays exactly
        assert len(first) == 4  # one delay per retry
        assert all(delay <= 0.3 * 1.1 for delay in first)

    def test_retries_until_success(self):
        calls, retries = [], []
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError(f"boom {len(calls)}")
            return "ok"

        result = policy.call(flaky, on_retry=lambda n, e: retries.append(n))
        assert result == "ok"
        assert len(calls) == 3
        assert retries == [1, 2]

    def test_exhaustion_raises_last_failure(self):
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0, jitter=0.0)
        calls = []

        def always():
            calls.append(1)
            raise ValueError(f"boom {len(calls)}")

        with pytest.raises(ValueError, match="boom 2"):
            policy.call(always)
        assert len(calls) == 2

    def test_deadline_budget_stops_retries(self):
        policy = RetryPolicy(max_attempts=10, backoff_base_s=1.0,
                             backoff_multiplier=1.0, backoff_max_s=1.0,
                             jitter=0.0, deadline_s=2.5)
        fake_now = [0.0]
        calls = []

        def always():
            calls.append(1)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            policy.call(always, clock=lambda: fake_now[0],
                        sleep=lambda s: fake_now.__setitem__(
                            0, fake_now[0] + s))
        # 2.5s budget funds two 1s sleeps, not a third
        assert len(calls) == 3

    def test_non_retryable_exceptions_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.0,
                             retry_on=(ValueError,))
        calls = []

        def wrong_kind():
            calls.append(1)
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            policy.call(wrong_kind)
        assert len(calls) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=5.0,
                                 clock=lambda: now[0])
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        now[0] = 5.1
        assert breaker.state == "half-open"
        assert breaker.allow()        # the single probe is admitted
        assert not breaker.allow()    # ... and only the single probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.stats()["opens"] == 1

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=2.0,
                                 clock=lambda: now[0])
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 2.5
        assert breaker.allow()
        breaker.record_failure()      # the probe fails
        assert breaker.state == "open"
        now[0] = 4.0                  # 1.5s into the *new* cooldown
        assert breaker.state == "open"
        now[0] = 4.6
        assert breaker.state == "half-open"

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


# ---------------------------------------------------------------------------
# FaultInjector schedules
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_counter_schedule_after_and_times(self):
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", after=2, times=2,
            message="boom")])
        directives = [injector.directive("worker.execute") for _ in range(6)]
        assert directives == [None, None, ("exc", "boom"), ("exc", "boom"),
                              None, None]
        assert injector.stats() == {"worker.execute:exc": 2}

    def test_worker_filter_and_site_filter(self):
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="crash", worker=1, times=-1)])
        assert injector.directive("worker.execute", worker=0) is None
        assert injector.directive("worker.execute", worker=1) == ("crash",)
        assert injector.directive("other.site", worker=1) is None

    def test_probability_is_seed_deterministic(self):
        def draws(seed):
            injector = FaultInjector([FaultSpec(
                site="s", kind="exc", times=-1, probability=0.5)], seed=seed)
            return [injector.directive("s") is not None for _ in range(32)]

        assert draws(3) == draws(3)
        assert any(draws(3)) and not all(draws(3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="s", kind="meltdown")


# ---------------------------------------------------------------------------
# Pool-level chaos: injected worker faults + supervision
# ---------------------------------------------------------------------------
class TestPoolChaos:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_slow_worker_still_bitwise_correct(self, chain_compiled, backend):
        _, result, feed, reference = chain_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="slow", seconds=0.2, times=1)])
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend) as pool:
            pool.set_fault_injector(injector)
            outputs = pool.run(feed, timeout=30.0)
            _assert_bitwise(outputs, reference)
            assert not pool.broken
            assert injector.stats() == {"worker.execute:slow": 1}

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_injected_exception_ships_remote_traceback(self, chain_compiled,
                                                       backend):
        _, result, feed, reference = chain_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", times=1,
            message="chaos-exc-marker")])
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend) as pool:
            pool.set_fault_injector(injector)
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.run(feed, timeout=30.0)
            text = str(excinfo.value)
            assert "chaos-exc-marker" in text
            # the worker-side frame crossed the process boundary
            assert "Remote traceback" in text
            assert "apply_worker_fault" in text
            assert pool.broken
            # no worker died: heal() just clears the broken flag
            assert pool.heal() == []
            assert not pool.broken
            _assert_bitwise(pool.run(feed, timeout=30.0), reference)
            assert pool.stats()["restarts"] == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_crashed_worker_is_respawned_not_restarted(self, chain_compiled,
                                                       backend):
        _, result, feed, reference = chain_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="crash", worker=0, times=1)])
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend, fail_grace_s=1.0) as pool:
            pool.set_fault_injector(injector)
            supervisor = PoolSupervisor(pool, interval_s=0.1,
                                        hang_timeout_s=2.0).start()
            try:
                start = time.monotonic()
                # The batch timeout is 120s; supervision must fail the run
                # in seconds via fail_inflight, not wait out the watchdog.
                with pytest.raises(ParallelExecutionError, match="died|timed out"):
                    pool.run(feed, timeout=120.0)
                detection_s = time.monotonic() - start
                assert detection_s < 30.0
                _wait_until(
                    lambda: not pool.broken and pool.worker_alive(0)
                    and pool.stats()["respawns"] >= 1,
                    timeout_s=15.0, what="supervised respawn")
                outputs = pool.run(feed, timeout=30.0)
                _assert_bitwise(outputs, reference)
                stats = pool.stats()
                assert stats["respawns"] >= 1
                assert stats["restarts"] == 0  # never a full restart
                assert supervisor.stats()["deaths_detected"] >= 1
                assert supervisor.stats()["respawns"] >= 1
            finally:
                supervisor.stop()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_hung_worker_is_declared_wedged_and_replaced(self, chain_compiled,
                                                         backend):
        _, result, feed, reference = chain_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="hang", seconds=8.0, times=1)])
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend, fail_grace_s=1.0) as pool:
            pool.set_fault_injector(injector)
            supervisor = PoolSupervisor(pool, interval_s=0.1,
                                        hang_timeout_s=1.0).start()
            try:
                start = time.monotonic()
                with pytest.raises(ParallelExecutionError, match="wedged"):
                    pool.run(feed, timeout=120.0)
                assert time.monotonic() - start < 30.0
                _wait_until(
                    lambda: not pool.broken and pool.stats()["respawns"] >= 1,
                    timeout_s=15.0, what="wedged-worker respawn")
                _assert_bitwise(pool.run(feed, timeout=30.0), reference)
                assert pool.stats()["restarts"] == 0
                assert supervisor.stats()["wedges_detected"] >= 1
            finally:
                supervisor.stop()

    def test_corrupted_result_channel_fails_fast(self, chain_compiled):
        _, result, feed, reference = chain_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="corrupt", times=1)])
        with WarmExecutorPool(result.parallel_module, weights) as pool:
            pool.set_fault_injector(injector)
            start = time.monotonic()
            with pytest.raises(ParallelExecutionError,
                               match="corrupted result-channel message"):
                pool.run(feed, timeout=120.0)
            assert time.monotonic() - start < 10.0  # not the batch timeout
            assert pool.stats()["protocol_errors"] >= 1
            assert pool.heal() == []  # the worker itself is still alive
            _assert_bitwise(pool.run(feed, timeout=30.0), reference)

    def test_multi_cluster_crash_converges_under_supervision(
            self, wide_compiled):
        """Peers stranded on a dead worker's channels heal via wedge sweeps."""
        _, result, feed, reference = wide_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="crash", worker=1, times=1)])
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process", fail_grace_s=1.0) as pool:
            pool.set_fault_injector(injector)
            supervisor = PoolSupervisor(pool, interval_s=0.1,
                                        hang_timeout_s=1.5).start()
            try:
                outputs = None
                for _ in range(5):
                    _wait_until(lambda: not pool.broken, timeout_s=20.0,
                                what="pool healed")
                    try:
                        outputs = pool.run(feed, timeout=60.0)
                        break
                    except ParallelExecutionError:
                        continue
                assert outputs is not None, "pool never converged"
                _assert_bitwise(outputs, reference)
                stats = pool.stats()
                assert stats["respawns"] >= 1
                assert stats["restarts"] == 0
            finally:
                supervisor.stop()

    def test_fault_metrics_visible_in_registry(self, chain_compiled):
        from repro.observability import MetricsRegistry

        _, result, feed, reference = chain_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="crash", worker=0, times=1)])
        registry = MetricsRegistry()
        with WarmExecutorPool(result.parallel_module, weights,
                              fail_grace_s=1.0) as pool:
            pool.set_fault_injector(injector)
            pool.publish_metrics(registry, labels={"model": "chain"})
            supervisor = PoolSupervisor(pool, interval_s=0.1,
                                        hang_timeout_s=2.0).start()
            supervisor.publish_metrics(registry, labels={"model": "chain"})
            try:
                with pytest.raises(ParallelExecutionError):
                    pool.run(feed, timeout=120.0)
                _wait_until(lambda: pool.stats()["respawns"] >= 1,
                            timeout_s=15.0, what="respawn")
                snapshot = registry.snapshot()
                assert snapshot['pool_worker_respawns_total{model="chain"}'][
                    "value"] >= 1
                assert snapshot['pool_workers_alive{model="chain"}'][
                    "value"] == pool.num_clusters
                assert snapshot['supervisor_respawns_total{model="chain"}'][
                    "value"] >= 1
                assert snapshot['pool_failures_total{model="chain"}'][
                    "value"] == 1
            finally:
                supervisor.stop()


# ---------------------------------------------------------------------------
# Session.recover
# ---------------------------------------------------------------------------
class TestSessionRecover:
    def test_plan_session_rebuilds_fresh_plan(self):
        model = build_diamond_model()
        session = create_session(model, executor="plan")
        feed = example_inputs(model, seed=5)
        reference = session.run(feed)
        old_plan = session.plan
        session.mark_broken("simulated wedge")
        with pytest.raises(RuntimeError, match="broken"):
            session.run(feed)
        session.recover()
        assert session.plan is not old_plan  # the old lock may be held forever
        _assert_bitwise(session.run(feed), reference)
        session.close()

    def test_pool_session_heals_workers(self, chain_compiled):
        _, result, feed, reference = chain_compiled
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", times=1)])
        session = create_session(result, executor="pool")
        try:
            session.pool.set_fault_injector(injector)
            with pytest.raises(ParallelExecutionError):
                session.run(feed, timeout=30.0)
            assert session.pool.broken
            session.recover()
            assert not session.pool.broken
            _assert_bitwise(session.run(feed, timeout=30.0), reference)
            assert session.pool.stats()["restarts"] == 0
        finally:
            session.close()

    def test_interp_session_recovers(self):
        model = build_diamond_model()
        session = create_session(model, executor="interp")
        feed = example_inputs(model, seed=5)
        reference = session.run(feed)
        session.mark_broken("simulated")
        session.recover()
        _assert_bitwise(session.run(feed), reference)
        session.close()

    def test_closed_session_cannot_recover(self):
        model = build_chain_model()
        session = create_session(model, executor="plan")
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.recover()


# ---------------------------------------------------------------------------
# ResilientDispatcher
# ---------------------------------------------------------------------------
class TestResilientDispatcher:
    @staticmethod
    def _config(**kw):
        kw.setdefault("retry", RetryPolicy(max_attempts=3, backoff_base_s=0.0,
                                           jitter=0.0))
        return ResilienceConfig(**kw)

    def test_retry_with_recovery_then_success(self):
        calls, recovered = [], []

        def primary():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError("transient")
            return {"y": 1}

        dispatcher = ResilientDispatcher(
            primary, self._config(), recover=lambda: recovered.append(1))
        assert dispatcher() == {"y": 1}
        stats = dispatcher.stats()
        assert stats["retries"] == 2
        assert stats["recoveries"] == 2
        assert stats["breaker"]["state"] == "closed"

    def test_breaker_opens_and_serves_degraded(self):
        def primary():
            raise ValueError("persistent")

        def fallback():
            return {"y": "degraded"}

        dispatcher = ResilientDispatcher(
            primary, self._config(breaker_threshold=2, breaker_cooldown_s=60.0),
            fallback=fallback)
        assert dispatcher() == {"y": "degraded"}  # exhausted -> fallback
        assert dispatcher() == {"y": "degraded"}
        stats = dispatcher.stats()
        assert stats["breaker"]["state"] == "open"
        assert stats["exhausted"] == 2
        # breaker now open: the primary is not touched at all
        before = stats["primary_runs"]
        assert dispatcher() == {"y": "degraded"}
        assert dispatcher.stats()["primary_runs"] == before
        assert dispatcher.stats()["degraded_runs"] == 3

    def test_open_breaker_without_fallback_raises_breaker_open(self):
        def primary():
            raise ValueError("persistent")

        dispatcher = ResilientDispatcher(
            primary,
            self._config(breaker_threshold=1, breaker_cooldown_s=60.0,
                         degrade=False))
        with pytest.raises(ValueError):
            dispatcher()
        with pytest.raises(BreakerOpen):
            dispatcher()

    def test_half_open_probe_restores_the_fast_path(self):
        healthy = [False]

        def primary():
            if not healthy[0]:
                raise ValueError("still broken")
            return {"y": "fast"}

        def fallback():
            return {"y": "degraded"}

        dispatcher = ResilientDispatcher(
            primary,
            self._config(breaker_threshold=1, breaker_cooldown_s=0.05,
                         retry=RetryPolicy(max_attempts=1)),
            fallback=fallback)
        assert dispatcher() == {"y": "degraded"}
        assert dispatcher.stats()["breaker"]["opens"] == 1
        healthy[0] = True
        time.sleep(0.06)  # cooldown elapses -> next call is the probe
        assert dispatcher() == {"y": "fast"}
        assert dispatcher.stats()["breaker"]["state"] == "closed"
        assert dispatcher() == {"y": "fast"}


# ---------------------------------------------------------------------------
# Serving-engine integration
# ---------------------------------------------------------------------------
class TestServingResilience:
    def test_injected_batch_failure_is_retried_to_bitwise_correctness(self):
        model = build_diamond_model()
        feed = example_inputs(model, seed=21)
        with InferenceEngine(EngineConfig(executor="plan",
                                          max_batch_size=1)) as plain:
            reference = plain.infer(model, feed)

        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", times=2,
            message="serving-chaos")])
        config = EngineConfig(
            executor="pool", max_batch_size=1, timeout_s=60.0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                                  jitter=0.0),
                fault_injector=injector,
                hang_timeout_s=5.0))
        with InferenceEngine(config) as engine:
            engine.warmup(model, feed)  # injector fires on the first batches
            outputs = engine.infer(model, feed)
            _assert_bitwise(outputs, reference)
            snapshot = engine.registry.snapshot()
            retried = [v["value"] for k, v in snapshot.items()
                       if k.startswith("serving_resilience_retries_total")]
            assert retried and max(retried) >= 1

    def test_breaker_degrades_to_plan_and_recovers(self):
        model = build_diamond_model()
        feed = example_inputs(model, seed=22)
        with InferenceEngine(EngineConfig(executor="plan",
                                          max_batch_size=1)) as plain:
            reference = plain.infer(model, feed)

        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", times=-1,
            message="always failing")])
        config = EngineConfig(
            executor="pool", max_batch_size=1, timeout_s=60.0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                                  jitter=0.0),
                breaker_threshold=1, breaker_cooldown_s=0.3,
                fault_injector=injector,
                hang_timeout_s=5.0))
        with InferenceEngine(config) as engine:
            # every primary attempt fails: the batch must still resolve,
            # served by the degraded in-process plan executor
            outputs = engine.infer(model, feed)
            _assert_bitwise(outputs, reference)
            artifacts = cached_artifacts(engine)
            assert len(artifacts) == 1
            dispatcher = artifacts[0].dispatcher
            stats = dispatcher.stats()
            assert stats["degraded_runs"] >= 1
            assert stats["breaker"]["opens"] >= 1
            assert artifacts[0].supervisor is not None
            assert artifacts[0].supervisor.running

            # while open, requests keep being served (degraded)
            _assert_bitwise(engine.infer(model, feed), reference)

            # the fault clears; after cooldown a half-open probe restores
            # the pool fast path
            injector.clear()
            time.sleep(0.35)
            primary_before = dispatcher.stats()["primary_runs"]
            _assert_bitwise(engine.infer(model, feed), reference)
            assert dispatcher.stats()["primary_runs"] > primary_before
            assert dispatcher.stats()["breaker"]["state"] == "closed"
            snapshot = engine.registry.snapshot()
            degraded = [v["value"] for k, v in snapshot.items()
                        if k.startswith("serving_resilience_degraded_runs")]
            assert degraded and max(degraded) >= 1

    def test_default_config_is_fail_fast_through_the_dispatcher(self):
        """The default policy is a value of ResilienceConfig, not its
        absence: every batch runs through the dispatcher, which makes one
        attempt, never opens its breaker and surfaces the executor's own
        error."""
        model = build_diamond_model()
        feed = example_inputs(model, seed=23)
        boom = RuntimeError("boom")

        def failing_run(*args, **kwargs):
            raise boom

        with InferenceEngine(EngineConfig(max_batch_size=1)) as engine:
            reference = engine.infer(model, feed)
            artifact = cached_artifacts(engine)[0]
            artifact.session.run = failing_run
            for _ in range(5):  # past the stock breaker threshold of 3
                with pytest.raises(RuntimeError) as excinfo:
                    engine.infer(model, feed)
                assert excinfo.value is boom  # never BreakerOpen
            stats = artifact.dispatcher.stats()
            assert stats["primary_runs"] == 6
            assert stats["retries"] == 0 and stats["recoveries"] == 0
            assert stats["degraded_runs"] == 0
            assert stats["breaker"]["state"] == "closed"
            # a transient failure leaves the (unbroken) artifact cached
            del artifact.session.run
            _assert_bitwise(engine.infer(model, feed), reference)
            assert cached_artifacts(engine) == [artifact]

        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", times=-1, message="boom")])
        with InferenceEngine(EngineConfig(executor="pool", max_batch_size=1,
                                          timeout_s=60.0)) as engine:
            engine.warmup(model, feed)
            artifact = cached_artifacts(engine)[0]
            assert artifact.supervisor is None
            assert not [t for t in threading.enumerate()
                        if t.name.startswith("pool-supervisor")]
            artifact.session.pool.set_fault_injector(injector)
            with pytest.raises(Exception, match="boom"):
                engine.infer(model, feed)
            assert artifact.dispatcher.stats()["retries"] == 0
            # the failed run broke the pool: the artifact was dropped
            assert artifact not in cached_artifacts(engine)


# ---------------------------------------------------------------------------
# One-shot process driver: leak fix + remote tracebacks (satellites)
# ---------------------------------------------------------------------------
def _hang_cluster(inputs, weights, channels):  # pragma: no cover - child code
    time.sleep(60.0)
    return {}


def _boom_cluster(inputs, weights, channels):  # pragma: no cover - child code
    raise RuntimeError("deliberate child failure")


def _ok_cluster(inputs, weights, channels):  # pragma: no cover - child code
    return {"y": np.zeros(1, np.float32)}


class _FakeModule:
    MODEL_NAME = "fake"
    CHANNEL_NAMES = ()
    GRAPH_OUTPUTS = ("y",)

    def __init__(self, *fns):
        self.CLUSTER_FUNCTIONS = list(fns)


def _cluster_children():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("warm-cluster-")]


class TestProcessDriverHardening:
    def test_timeout_reaps_child_processes(self):
        module = _FakeModule(_hang_cluster, _ok_cluster)
        with pytest.raises(ParallelExecutionError, match="timed out"):
            execute_generated_module(module, {}, {}, backend="process",
                                     timeout=1.0)
        # The fix: a timed-out run must not leak live children.  (Before,
        # the workers kept running until interpreter exit.)
        _wait_until(lambda: not _cluster_children(), timeout_s=5.0,
                    what="child processes reaped")

    def test_worker_failure_reaps_and_ships_remote_traceback(self):
        module = _FakeModule(_boom_cluster, _ok_cluster)
        with pytest.raises(ParallelExecutionError) as excinfo:
            execute_generated_module(module, {}, {}, backend="process",
                                     timeout=30.0)
        text = str(excinfo.value)
        assert "deliberate child failure" in text
        assert "Remote traceback" in text
        assert "_boom_cluster" in text  # the worker-side frame is named
        _wait_until(lambda: not _cluster_children(), timeout_s=5.0,
                    what="child processes reaped")

    def test_remote_error_text_includes_frames(self):
        try:
            raise ValueError("original")
        except ValueError as exc:
            text = remote_error_text(exc)
        assert "ValueError('original')" in text
        assert "Remote traceback" in text
        assert "test_remote_error_text_includes_frames" in text
