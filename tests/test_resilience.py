"""Chaos suite for the self-healing execution stack.

Drives :mod:`repro.resilience`'s deterministic :class:`FaultInjector`
through crash / hang / slow / exception / channel-corruption faults
against the warm pools (thread and process backends) and the serving
engine, asserting the properties the layer promises:

* a dead worker fails its run within the pool's fail grace, not the batch
  timeout, and is respawned *individually* — at the next dispatch or by
  ``heal()``, the one repair — and every new worker must answer a ping
  before the pool uses it;
* an injected failure mid-batch is retried and the caller's future
  resolves with **bitwise-correct** outputs;
* a forked serving replica that still fails after its retries (or whose
  heal fails) retires and hands its batch to replica 0, which answers it
  bitwise without building anything; the lane forks a fresh replica once
  the fault clears;
* every recovery decision is visible in ``stats()`` and the shared
  ``MetricsRegistry``.

Also the regression tests for the satellites: the one-shot process
driver's child-leak fix and cross-process traceback preservation.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from tests.conftest import (
    build_chain_model,
    build_diamond_model,
    build_wide_model,
    cached_artifacts,
    gate_session,
    managed_blas,
    serve_across_replicas,
)
from repro.pipeline import ramiel_compile
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceConfig,
    RetryPolicy,
)
from repro.runtime import worker_pool
from repro.runtime.session import create_session
from repro.runtime.worker_pool import (
    ParallelExecutionError,
    WarmExecutorPool,
    remote_error_text,
)
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
# Pool-level chaos: injected worker faults, liveness and heal()
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

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_crashed_worker_is_respawned_not_restarted(self, chain_compiled,
                                                       backend):
        _, result, feed, reference = chain_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="crash", worker=0, times=1)])
        grace = 1.0
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend, fail_grace_s=grace) as pool:
            pool.set_fault_injector(injector)
            start = time.monotonic()
            # The batch timeout is 120s; the dead worker must fail the run
            # within the fail grace, not wait out the watchdog.
            with pytest.raises(ParallelExecutionError, match="died"):
                pool.run(feed, timeout=120.0)
            assert time.monotonic() - start < grace + 1.0
            assert pool.heal() == [0]
            assert not pool.broken and pool.worker_alive(0)
            _assert_bitwise(pool.run(feed, timeout=30.0), reference)
            stats = pool.stats()
            assert stats["respawns"] == 1

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_hung_worker_is_declared_wedged_and_replaced(self, chain_compiled,
                                                         backend):
        """A worker silent past the run's timeout is wedged; heal() finds
        it does not answer a ping and replaces it."""
        _, result, feed, reference = chain_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="hang", seconds=8.0, times=1)])
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend, fail_grace_s=1.0) as pool:
            pool.set_fault_injector(injector)
            start = time.monotonic()
            with pytest.raises(ParallelExecutionError, match="timed out"):
                pool.run(feed, timeout=1.0)
            assert pool.heal() == [0]
            assert time.monotonic() - start < 8.0  # not the hang itself
            _assert_bitwise(pool.run(feed, timeout=30.0), reference)
            assert pool.stats()["respawns"] == 1

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

    def test_multi_cluster_crash_converges_through_heal(self, wide_compiled):
        """Peers stranded on a dead worker's channels: the run fails within
        the fail grace, and heal() replaces the dead worker and every peer
        that does not answer a ping."""
        _, result, feed, reference = wide_compiled
        weights = result.optimized_model.graph.initializers
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="crash", worker=1, times=1)])
        grace = 1.0
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process", fail_grace_s=grace) as pool:
            pool.set_fault_injector(injector)
            start = time.monotonic()
            with pytest.raises(ParallelExecutionError, match="cluster 1"):
                pool.run(feed, timeout=60.0)
            assert time.monotonic() - start < grace + 1.0
            assert 1 in pool.heal()
            assert not pool.broken
            _assert_bitwise(pool.run(feed, timeout=60.0), reference)
            assert pool.stats()["respawns"] >= 1

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
            with pytest.raises(ParallelExecutionError):
                pool.run(feed, timeout=120.0)
            pool.heal()
            snapshot = registry.snapshot()
            assert snapshot['pool_worker_respawns_total{model="chain"}'][
                "value"] == 1
            assert snapshot['pool_workers_alive{model="chain"}'][
                "value"] == pool.num_clusters
            assert snapshot['pool_failures_total{model="chain"}'][
                "value"] == 1


# ---------------------------------------------------------------------------
# A pool watches its own workers: no watcher thread, no shared done pipe
# ---------------------------------------------------------------------------
def _sigkill(pool, index: int) -> None:
    """SIGKILL one process worker and wait until the pool sees it dead."""
    os.kill(pool._workers[index].pid, signal.SIGKILL)
    _wait_until(lambda: not pool.worker_alive(index), timeout_s=10.0,
                what=f"worker {index} dead")


def _exit_at_once(*args) -> None:
    """A worker loop that returns before serving anything."""


class TestPoolLiveness:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_worker_that_never_serves_fails_the_startup_check(
            self, wide_compiled, backend, monkeypatch):
        """The startup ping notices a dead worker at once — end-of-file on
        a process's done pipe, a quiet poll's liveness check for a thread —
        not after the 60 s bound."""
        _, result, _, _ = wide_compiled
        weights = result.optimized_model.graph.initializers
        monkeypatch.setattr(worker_pool, "_worker", _exit_at_once)
        start = time.monotonic()
        with pytest.raises(ParallelExecutionError, match="startup ping"):
            WarmExecutorPool(result.parallel_module, weights, backend=backend)
        assert time.monotonic() - start < 5.0

    def test_start_and_respawn_each_run_one_ping_round(self, wide_compiled,
                                                       monkeypatch):
        _, result, feed, reference = wide_compiled
        weights = result.optimized_model.graph.initializers
        rounds = []
        unresponsive = WarmExecutorPool._unresponsive

        def spy(pool, indices, timeout):
            rounds.append(sorted(indices))
            return unresponsive(pool, indices, timeout)

        monkeypatch.setattr(WarmExecutorPool, "_unresponsive", spy)
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as pool:
            assert rounds == [[0, 1, 2, 3]]
            _sigkill(pool, 1)
            _assert_bitwise(pool.run(feed, timeout=30.0), reference)
            assert rounds == [[0, 1, 2, 3], [1]]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_failed_respawn_at_dispatch_is_a_failed_run(
            self, wide_compiled, backend, monkeypatch):
        _, result, feed, _ = wide_compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend) as pool:
            # Worker 0 leaves its loop, and so will its replacement.
            pool._job_queues[0].put(None)
            _wait_until(lambda: not pool.worker_alive(0),
                        what="worker 0 gone")
            monkeypatch.setattr(worker_pool, "_worker", _exit_at_once)
            with pytest.raises(ParallelExecutionError):
                pool.run(feed, timeout=10.0)
            assert pool.broken
            assert pool.stats()["failures"] == 1
            assert pool.stats()["runs"] == 0

    def test_an_idle_worker_killed_is_respawned_at_dispatch(self,
                                                             wide_compiled):
        _, result, feed, reference = wide_compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as pool:
            assert pool.num_clusters == 4
            _assert_bitwise(pool.run(feed, timeout=30.0), reference)
            _sigkill(pool, 1)
            start = time.monotonic()
            outputs = pool.run(feed, timeout=30.0)
            assert time.monotonic() - start < 5.0
            _assert_bitwise(outputs, reference)
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["failures"] == 0

    def test_each_process_worker_owns_its_done_pipe(self, wide_compiled):
        _, result, _, _ = wide_compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as pool:
            before = list(pool._done)
            assert len({id(pipe) for pipe in before}) == pool.num_clusters
            assert all(isinstance(pipe._lock, type(threading.Lock()))
                       for pipe in [*before, *pool._job_queues])
            _sigkill(pool, 2)
            assert pool.heal() == [2]
            assert pool._done[2] is not before[2]  # replaced with the worker
            assert [pool._done[i] for i in (0, 1, 3)] == [
                before[i] for i in (0, 1, 3)]

    def test_a_kill_anywhere_in_a_traced_run_heals_bitwise(self,
                                                           wide_compiled):
        """SIGKILL a worker at ten offsets across a traced run: whatever the
        run did, heal() and the next run come back bitwise, never a hang."""
        from repro.observability import Tracer

        _, result, feed, reference = wide_compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process", fail_grace_s=1.0,
                              tracer=Tracer()) as pool:
            times = []
            for _ in range(5):
                start = time.monotonic()
                pool.run(feed, timeout=30.0)
                times.append(time.monotonic() - start)
            run_s = sorted(times)[2]  # a warm run's length
            for offset in range(10):
                victim = offset % pool.num_clusters
                pid = pool._workers[victim].pid
                killer = threading.Timer(run_s * offset / 10, os.kill,
                                         (pid, signal.SIGKILL))
                start = time.monotonic()
                killer.start()
                try:
                    pool.run(feed, timeout=30.0)
                except ParallelExecutionError:
                    pass
                killer.join(timeout=10.0)
                pool.heal()
                _assert_bitwise(pool.run(feed, timeout=30.0), reference)
                assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# Session.recover
# ---------------------------------------------------------------------------
def _heal_fails():
    raise ParallelExecutionError("worker(s) [0] of 'chain' died or did not "
                                 "answer their startup ping within 60.0s")


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
        finally:
            session.close()

    def test_pool_session_recover_raises_when_heal_fails(self, chain_compiled,
                                                         monkeypatch):
        _, result, feed, _ = chain_compiled
        session = create_session(result, executor="process")
        try:
            pool = session.pool
            pool.set_fault_injector(FaultInjector([FaultSpec(
                site="worker.execute", kind="exc", times=1)]))
            with pytest.raises(ParallelExecutionError):
                session.run(feed, timeout=30.0)
            assert pool.broken
            monkeypatch.setattr(pool, "heal", _heal_fails)
            with pytest.raises(ParallelExecutionError, match="startup ping"):
                session.recover()
            assert pool.broken
        finally:
            session.close()

    @managed_blas
    def test_a_failed_heal_fails_over_to_replica_0(
            self, chain_compiled, monkeypatch, pin_cores):
        pin_cores(2)
        model, _, feed, _ = chain_compiled
        feeds = [feed] + [example_inputs(model, seed=s) for s in (8, 9)]
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", times=1)])
        config = EngineConfig(max_batch_size=1, timeout_s=60.0,
                              resilience=ResilienceConfig(retry=RetryPolicy(
                                  max_attempts=3, backoff_base_s=0.01,
                                  jitter=0.0)))
        with InferenceEngine(config) as engine:
            served, artifact = serve_across_replicas(engine, model, feeds)
            replica = artifact.replicas[1]
            runs = replica.stats()["runs"]
            pool = replica.session.pool
            pool.set_fault_injector(injector)
            monkeypatch.setattr(pool, "heal", _heal_fails)
            outputs = replica.run_batch(feed)
            assert injector.stats() == {"worker.execute:exc": 1}
            assert replica.stats() == {"runs": runs + 1, "retries": 1,
                                       "recoveries": 0, "failovers": 1}
            assert replica.retired and replica.session.broken
        _assert_plan_bitwise(model, feeds + [feed], served + [outputs])

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
# Serving-engine integration: faults reach the lane's forked replicas
# ---------------------------------------------------------------------------
def _assert_plan_bitwise(model, feeds, served) -> None:
    """Every served output is the one-BLAS-thread plan's, bit for bit."""
    from repro.runtime.blas import pin_blas_threads

    pin_blas_threads(1)
    plan = create_session(model, executor="plan")
    assert len(feeds) == len(served)
    for feed, outputs in zip(feeds, served):
        _assert_bitwise(outputs, plan.run(feed))


def _replica_gauge(engine, family: str, replica) -> float:
    (value,) = [entry["value"] for key, entry in engine.registry.snapshot().items()
                if key.startswith(family + "{")
                and f'replica="{replica.index}"' in key]
    return value


class TestServingResilience:
    """The chaos tests fork a lane's second replica
    (``serve_across_replicas`` on two pinned cores), then fail that
    replica's one worker: the configured ``fault_injector`` reaches only
    forked replicas."""

    @managed_blas
    def test_injected_batch_failure_is_retried_to_bitwise_correctness(
            self, pin_cores):
        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=21 + i) for i in range(3)]
        injector = FaultInjector()
        config = EngineConfig(
            max_batch_size=1, timeout_s=60.0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                                  jitter=0.0),
                fault_injector=injector))
        with InferenceEngine(config) as engine:
            served, artifact = serve_across_replicas(engine, model, feeds)
            replica0, replica = artifact.replicas
            assert replica.session.pool._injector is injector
            injector.add(FaultSpec(site="worker.execute", kind="exc",
                                   times=2, message="serving-chaos"))
            outputs = replica.run_batch(feeds[0])
            assert injector.stats() == {"worker.execute:exc": 2}
            stats = replica.stats()
            assert stats["retries"] == stats["recoveries"] == 2
            assert stats["failovers"] == 0 and not replica.retired
            assert _replica_gauge(engine, "serving_resilience_retries_total",
                                  replica) == 2
            assert replica0.stats()["retries"] == 0
        _assert_plan_bitwise(model, feeds + feeds[:1], served + [outputs])

    @managed_blas
    def test_a_failing_replica_fails_over_then_reforks(
            self, pin_cores):
        """A forked replica that keeps failing through its retries retires
        and replica 0 answers its batch; once the fault clears, the next
        backlog forks a fresh replica that serves with no failover."""
        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=22 + i) for i in range(3)]
        injector = FaultInjector()
        config = EngineConfig(
            max_batch_size=1, timeout_s=60.0,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                                  jitter=0.0),
                fault_injector=injector))
        with InferenceEngine(config) as engine:
            served, artifact = serve_across_replicas(engine, model, feeds)
            replica0, replica = artifact.replicas
            runs = replica.stats()["runs"]
            injector.add(FaultSpec(site="worker.execute", kind="exc",
                                   times=-1, message="always failing"))
            # every attempt fails: the batch still resolves, on replica 0
            served.append(replica.run_batch(feeds[0]))
            assert replica.stats() == {"runs": runs + 2, "retries": 1,
                                       "recoveries": 1, "failovers": 1}
            assert replica.retired and replica.session.broken
            assert _replica_gauge(engine, "serving_resilience_failovers_total",
                                  replica) == 1
            assert replica0.stats()["failovers"] == 0

            # the retired replica's idle thread notices and closes it
            engine.qos.wake()
            _wait_until(lambda: artifact.replicas == [replica0]
                        and replica.session.closed,
                        what="the retired replica dropped")
            injector.clear()
            again, _ = serve_across_replicas(engine, model, feeds)
            served += again
            (fresh,) = artifact.replicas[1:]
            assert fresh is not replica and fresh.index == 2
            assert fresh.stats()["runs"] >= 1
            assert fresh.stats()["failovers"] == 0 and not fresh.retired
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1
        _assert_plan_bitwise(model, feeds + feeds[:1] + feeds, served)

    @managed_blas
    def test_a_failover_builds_no_session_and_no_thread(
            self, pin_cores, monkeypatch):
        """Replica 0 answers a retiring replica's batch with what it already
        has: no session is created and no thread is started."""
        import repro.serving.engine as engine_module

        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=40 + i) for i in range(3)]
        config = EngineConfig(max_batch_size=1, timeout_s=60.0)
        with InferenceEngine(config) as engine:
            served, artifact = serve_across_replicas(engine, model, feeds)
            replica = artifact.replicas[1]
            replica.session.pool.set_fault_injector(FaultInjector([FaultSpec(
                site="worker.execute", kind="exc", times=-1)]))
            created = []
            real_create = engine_module.create_session
            monkeypatch.setattr(
                engine_module, "create_session",
                lambda *a, **kw: created.append(a) or real_create(*a, **kw))
            threads = set(threading.enumerate())
            served.append(replica.run_batch(feeds[0]))
            assert replica.stats()["failovers"] == 1
            assert created == []
            assert set(threading.enumerate()) <= threads
        _assert_plan_bitwise(model, feeds + feeds[:1], served)

    @managed_blas
    def test_a_failover_that_fails_raises_replica_0s_error(self, pin_cores):
        """When replica 0 cannot answer a retiring replica's batch either,
        the requests get replica 0's error, chained from the replica's."""
        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=50 + i) for i in range(3)]
        boom = RuntimeError("replica 0 failed too")

        def failing_run(*args, **kwargs):
            raise boom

        with InferenceEngine(EngineConfig(max_batch_size=1,
                                          timeout_s=60.0)) as engine:
            _, artifact = serve_across_replicas(engine, model, feeds)
            replica0, replica = artifact.replicas
            replica.session.pool.set_fault_injector(FaultInjector([FaultSpec(
                site="worker.execute", kind="exc", times=-1)]))
            replica0.session.run = failing_run
            with pytest.raises(RuntimeError) as excinfo:
                replica.run_batch(feeds[0])
            assert excinfo.value is boom
            assert isinstance(excinfo.value.__cause__, ParallelExecutionError)
            assert replica.retired and replica.stats()["failovers"] == 1
            del replica0.session.run

    def test_default_config_is_fail_fast_through_the_dispatcher(self):
        """The default policy is a value of ResilienceConfig, not its
        absence: replica 0 makes one attempt per batch and surfaces the
        executor's own error, every time."""
        model = build_diamond_model()
        feed = example_inputs(model, seed=23)
        boom = RuntimeError("boom")

        def failing_run(*args, **kwargs):
            raise boom

        with InferenceEngine(EngineConfig(max_batch_size=1)) as engine:
            reference = engine.infer(model, feed)
            artifact = cached_artifacts(engine)[0]
            artifact.replicas[0].session.run = failing_run
            for _ in range(5):
                with pytest.raises(RuntimeError) as excinfo:
                    engine.infer(model, feed)
                assert excinfo.value is boom  # never another exception type
            assert artifact.replicas[0].stats() == {
                "runs": 6, "retries": 0, "recoveries": 0, "failovers": 0}
            # a transient failure leaves the (unbroken) artifact cached
            del artifact.replicas[0].session.run
            _assert_bitwise(engine.infer(model, feed), reference)
            assert cached_artifacts(engine) == [artifact]

    @managed_blas
    def test_a_broken_forked_replica_retires_and_replica_0_serves_on(
            self, pin_cores):
        """Under the fail-fast default a forked replica whose one attempt
        fails retires and replica 0 answers its batch, after the batch it
        holds: the lane drops the replica, the artifact stays cached with
        no recompile, replica 0 serves on, and the process's BLAS count is
        back once the replica has closed."""
        from repro.runtime.blas import blas_threads

        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=23 + i) for i in range(4)]
        before = blas_threads()
        with InferenceEngine(EngineConfig(max_batch_size=1,
                                          timeout_s=60.0)) as engine:
            served, artifact = serve_across_replicas(engine, model, feeds[:3])
            replica0, replica = artifact.replicas
            replica.session.pool.set_fault_injector(FaultInjector([FaultSpec(
                site="worker.execute", kind="exc", times=-1, message="boom")]))
            entered, release = gate_session(artifact)
            held = engine.submit(model, feeds[0])  # replica 0 takes it
            assert entered.wait(timeout=30.0)
            failed_over = engine.submit(model, feeds[1])
            _wait_until(lambda: replica.retired, what="the replica retired")
            assert not failed_over.done()  # queued behind replica 0's batch
            release.set()
            served.append(held.result(timeout=60.0))
            served.append(failed_over.result(timeout=60.0))
            assert replica.stats()["retries"] == 0
            assert replica.stats()["failovers"] == 1
            _wait_until(lambda: artifact.replicas == [replica0],
                        what="the retired replica dropped")
            _wait_until(lambda: replica.session.closed
                        and blas_threads() == before,
                        what="the retired replica closed, BLAS count back")
            served.append(engine.infer(model, feeds[3]))
            assert cached_artifacts(engine) == [artifact]
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1
            assert artifact.replicas == [replica0]
        _assert_plan_bitwise(model, feeds[:3] + feeds[:2] + [feeds[3]], served)


# ---------------------------------------------------------------------------
# One-shot process driver: leak fix + remote tracebacks (satellites)
# ---------------------------------------------------------------------------
class TestReplicaChaos:
    @managed_blas
    def test_a_killed_replica_worker_heals_alone_while_the_others_serve(
            self, pin_cores):
        """Kill the worker of a "plan" lane's process replica while a
        closed loop keeps four requests in flight: that replica's pool
        repairs itself (respawn at dispatch, or a retry after ``heal()``),
        replica 0 never retries, both keep serving, and every response is
        the B = 1 plan's, bit for bit."""
        from concurrent.futures import FIRST_COMPLETED, wait

        from repro.models import build_model
        from repro.runtime.blas import blas_threads, pin_blas_threads

        from tests.conftest import serve_across_replicas

        pin_cores(2)
        model = build_model("bert", variant="small")
        feeds = [example_inputs(model, seed=80 + i) for i in range(8)]
        before = blas_threads()
        config = EngineConfig(resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01, jitter=0.0)))
        served = []
        with InferenceEngine(config) as engine:
            warm, artifact = serve_across_replicas(engine, model, feeds)
            served += list(zip(range(len(feeds)), warm))
            replica0, replica1 = artifact.replicas
            pool = replica1.session.pool
            victim = pool._workers[0].pid
            runs = [replica0.stats()["runs"],
                    replica1.stats()["runs"]]
            inflight, sent, killed_at = {}, 0, None
            deadline = time.monotonic() + 60.0

            def submit():
                nonlocal sent
                index = sent % len(feeds)
                inflight[engine.submit(model, feeds[index])] = index
                sent += 1

            for _ in range(4):
                submit()
            while inflight and time.monotonic() < deadline:
                done, _ = wait(list(inflight), timeout=30.0,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    served.append((inflight.pop(future), future.result()))
                    if len(served) == 16 and killed_at is None:
                        os.kill(victim, signal.SIGKILL)
                        killed_at = [replica0.stats()["runs"],
                                     replica1.stats()["runs"]]
                    healed = (killed_at is not None and pool.stats()["respawns"]
                              and replica1.stats()["runs"]
                              >= killed_at[1] + 3)
                    if not healed and len(served) < 400:
                        submit()
            assert not inflight, "requests left unanswered"
            assert killed_at is not None
            assert list(artifact.replicas) == [replica0, replica1]
            assert not replica1.retired and pool is replica1.session.pool
            assert pool.stats()["respawns"] == 1
            assert victim not in [worker.pid for worker in pool._workers]
            after = [replica0.stats()["runs"],
                     replica1.stats()["runs"]]
            assert after[0] > killed_at[0] >= runs[0]
            assert after[1] >= killed_at[1] + 3
            zero = replica0.stats()
            assert zero["retries"] == zero["recoveries"] == 0
            assert replica1.stats()["failovers"] == 0
        assert blas_threads() == before  # the last replica put it back
        pin_blas_threads(1)
        plan = create_session(ramiel_compile(model), executor="plan")
        references = [plan.run(feed) for feed in feeds]
        for index, outputs in served:
            _assert_bitwise(outputs, references[index])


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
    """A process pool used once reaps its children and ships worker
    tracebacks home."""

    def test_timeout_reaps_child_processes(self):
        module = _FakeModule(_hang_cluster, _ok_cluster)
        with WarmExecutorPool(module, {}, backend="process") as pool:
            with pytest.raises(ParallelExecutionError, match="timed out"):
                pool.run({}, timeout=1.0)
        # The fix: a timed-out run must not leak live children.  (Before,
        # the workers kept running until interpreter exit.)
        _wait_until(lambda: not _cluster_children(), timeout_s=5.0,
                    what="child processes reaped")

    def test_worker_failure_reaps_and_ships_remote_traceback(self):
        module = _FakeModule(_boom_cluster, _ok_cluster)
        with WarmExecutorPool(module, {}, backend="process") as pool:
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.run({}, timeout=30.0)
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
