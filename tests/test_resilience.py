"""Chaos suite for the execution stack's one repair rule: replace, never heal.

Drives :mod:`repro.resilience`'s deterministic :class:`FaultInjector`
through crash / hang / slow / exception / channel-corruption faults
against the warm pools (thread and process backends) and the serving
engine, asserting the properties the layer promises:

* a worker that dies mid-run fails its run within the pool's fail grace,
  not the batch timeout, and one that died while idle fails the next run
  at dispatch, naming it; every failure leaves the pool broken, and the
  one repair is to replace it — ``Session.recover()`` closes the pool and
  starts new workers, each of which must answer a ping before use;
* a serving batch runs once on a forked replica: a batch that fails
  fails its requests with a ``ServingError`` naming the replica, chained
  from the executor's error, and the replica retires; a fresh fork —
  before the lane thread's next take for replica 0, on the next backlog
  for another — answers **bitwise**, without a recompile;
* every recovery decision is visible in ``stats()`` and the shared
  ``MetricsRegistry``.

Also the regression tests for the satellites: the one-shot process
driver's child-leak fix and cross-process traceback preservation.
"""

from __future__ import annotations

import multiprocessing
import os
import re
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
from repro.resilience import FaultInjector, FaultSpec
from repro.runtime import worker_pool
from repro.runtime.session import create_session
from repro.runtime.worker_pool import (
    ParallelExecutionError,
    WarmExecutorPool,
    remote_error_text,
)
from repro.serving import (
    EngineConfig,
    InferenceEngine,
    ServingError,
    example_inputs,
)


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
# Pool-level chaos: injected worker faults end in an explicit error, and
# Session.recover() replaces the broken pool
# ---------------------------------------------------------------------------
#: the session executor of each pool backend
EXECUTOR = {"thread": "pool", "process": "process"}


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
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", times=1,
            message="chaos-exc-marker")])
        with create_session(result, executor=EXECUTOR[backend]) as session:
            session.pool.set_fault_injector(injector)
            with pytest.raises(ParallelExecutionError) as excinfo:
                session.run(feed, timeout=30.0)
            text = str(excinfo.value)
            assert "chaos-exc-marker" in text
            # the worker-side frame crossed the process boundary
            assert "Remote traceback" in text
            assert "apply_worker_fault" in text
            assert session.pool.broken
            # no worker died, and the broken pool is replaced all the same
            session.recover()
            assert not session.pool.broken
            _assert_bitwise(session.run(feed, timeout=30.0), reference)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_crashed_worker_is_respawned_not_restarted(self, chain_compiled,
                                                       backend):
        """A crashed worker fails its run within the fail grace; recover()
        spawns a new worker in a new pool (the dead one is not restarted)."""
        _, result, feed, reference = chain_compiled
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="crash", worker=0, times=1)])
        with create_session(result, executor=EXECUTOR[backend]) as session:
            pool = session.pool
            pool.set_fault_injector(injector)
            start = time.monotonic()
            # The batch timeout is 120s; the dead worker must fail the run
            # within the fail grace (2 s), not wait out the watchdog.
            with pytest.raises(ParallelExecutionError, match="died"):
                session.run(feed, timeout=120.0)
            assert time.monotonic() - start < 3.0
            assert pool.stats()["failures"] == 1
            session.recover()
            assert session.pool is not pool and pool.closed
            assert session.pool._workers[0] is not pool._workers[0]
            _assert_bitwise(session.run(feed, timeout=30.0), reference)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_hung_worker_is_declared_wedged_and_replaced(self, chain_compiled,
                                                         backend):
        """A worker silent past the run's timeout is wedged; recover()
        replaces it without waiting for it."""
        _, result, feed, reference = chain_compiled
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="hang", seconds=8.0, times=1)])
        with create_session(result, executor=EXECUTOR[backend]) as session:
            session.pool.set_fault_injector(injector)
            start = time.monotonic()
            with pytest.raises(ParallelExecutionError, match="timed out"):
                session.run(feed, timeout=1.0)
            session.recover()
            assert time.monotonic() - start < 8.0  # not the hang itself
            _assert_bitwise(session.run(feed, timeout=30.0), reference)

    def test_corrupted_result_channel_fails_fast(self, chain_compiled):
        _, result, feed, reference = chain_compiled
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="corrupt", times=1)])
        with create_session(result, executor="pool") as session:
            pool = session.pool
            pool.set_fault_injector(injector)
            start = time.monotonic()
            with pytest.raises(ParallelExecutionError,
                               match="corrupted result-channel message"):
                session.run(feed, timeout=120.0)
            assert time.monotonic() - start < 10.0  # not the batch timeout
            assert pool.stats()["protocol_errors"] >= 1
            session.recover()
            _assert_bitwise(session.run(feed, timeout=30.0), reference)

    def test_multi_cluster_crash_converges_through_heal(self, wide_compiled):
        """Peers stranded on a dead worker's channels: the run fails within
        the fail grace, closing the broken pool does not wait for them, and
        a fresh pool over the same module — what recover() builds — answers
        bitwise."""
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
            assert pool.broken
            start = time.monotonic()
            pool.close()
            assert time.monotonic() - start < 2.0  # reaped, not joined
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as fresh:
            _assert_bitwise(fresh.run(feed, timeout=60.0), reference)

    def test_fault_metrics_visible_in_registry(self, chain_compiled):
        """A failure shows in the registry; after recover() the pool gauges
        describe the new pool, published under the same labels."""
        from repro.observability import MetricsRegistry

        _, result, feed, reference = chain_compiled
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="crash", worker=0, times=1)])
        registry = MetricsRegistry()
        with create_session(result, executor="pool") as session:
            session.pool.set_fault_injector(injector)
            session.publish_metrics(registry, labels={"model": "chain"})
            with pytest.raises(ParallelExecutionError):
                session.run(feed, timeout=120.0)
            snapshot = registry.snapshot()
            assert snapshot['pool_failures_total{model="chain"}'][
                "value"] == 1
            assert snapshot['pool_workers_alive{model="chain"}'][
                "value"] == 0
            session.recover()
            _assert_bitwise(session.run(feed, timeout=30.0), reference)
            snapshot = registry.snapshot()
            assert snapshot['pool_failures_total{model="chain"}'][
                "value"] == 0
            assert snapshot['pool_runs_total{model="chain"}']["value"] == 1
            assert snapshot['pool_workers_alive{model="chain"}'][
                "value"] == session.pool.num_clusters


# ---------------------------------------------------------------------------
# A pool watches its own workers: no watcher thread, no shared done pipe
# ---------------------------------------------------------------------------
def _sigkill(pool, index: int) -> None:
    """SIGKILL one process worker and wait until it is dead."""
    worker = pool._workers[index]
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=10.0)
    assert not worker.is_alive(), f"worker {index} still alive"


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

    def test_only_the_start_runs_a_ping_round(self, wide_compiled,
                                              monkeypatch):
        """The startup ping is the pool's one probe: runs ping nobody, and
        a worker found dead is not replaced in place."""
        _, result, feed, reference = wide_compiled
        weights = result.optimized_model.graph.initializers
        rounds = []
        ready = WarmExecutorPool._await_ready

        def spy(pool, timeout):
            rounds.append(pool.num_clusters)
            return ready(pool, timeout)

        monkeypatch.setattr(WarmExecutorPool, "_await_ready", spy)
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as pool:
            assert rounds == [4]
            for _ in range(3):
                _assert_bitwise(pool.run(feed, timeout=30.0), reference)
            _sigkill(pool, 1)
            with pytest.raises(ParallelExecutionError):
                pool.run(feed, timeout=30.0)
            assert rounds == [4]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_a_failed_respawn_at_dispatch_is_a_failed_run(
            self, wide_compiled, backend):
        """A worker that left its loop while idle fails the next run at
        once, naming it, before any job is dispatched: the pool respawns
        nothing in place, and stays broken until it is replaced."""
        _, result, feed, _ = wide_compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend=backend) as pool:
            gone = pool._workers[0]
            pool._job_queues[0].put(None)
            gone.join(timeout=10.0)
            assert not gone.is_alive()
            start = time.monotonic()
            with pytest.raises(ParallelExecutionError,
                               match="worker 0 of 'wide' died while idle"):
                pool.run(feed, timeout=10.0)
            assert time.monotonic() - start < 1.0
            assert pool.broken
            assert pool._workers[0] is gone and not gone.is_alive()
            stats = pool.stats()
            assert (stats["runs"], stats["failures"]) == (0, 1)
            assert [row["jobs"] for row in stats["workers"]] == [0] * 4
            with pytest.raises(ParallelExecutionError, match="broken"):
                pool.run(feed, timeout=10.0)

    def test_an_idle_worker_killed_is_respawned_at_dispatch(self,
                                                             wide_compiled):
        """SIGKILL an idle process worker: the next dispatch fails at once,
        naming it, instead of respawning it silently; the broken pool is
        closed and a fresh one over the same module — what recover()
        builds — respawns it, and the next run is bitwise."""
        _, result, feed, reference = wide_compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as pool:
            assert pool.num_clusters == 4
            _assert_bitwise(pool.run(feed, timeout=30.0), reference)
            killed = pool._workers[1].pid
            _sigkill(pool, 1)
            start = time.monotonic()
            with pytest.raises(ParallelExecutionError,
                               match="worker 1 of 'wide' died while idle"):
                pool.run(feed, timeout=30.0)
            assert time.monotonic() - start < 1.0
            assert pool.broken
            stats = pool.stats()
            assert (stats["runs"], stats["failures"]) == (1, 1)
            assert [row["jobs"] for row in stats["workers"]] == [1] * 4
            with pytest.raises(ParallelExecutionError, match="broken"):
                pool.run(feed, timeout=30.0)
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as fresh:
            assert fresh._workers[1].pid != killed
            start = time.monotonic()
            _assert_bitwise(fresh.run(feed, timeout=30.0), reference)
            assert time.monotonic() - start < 5.0

    def test_each_process_worker_owns_its_done_pipe(self, wide_compiled):
        _, result, _, _ = wide_compiled
        weights = result.optimized_model.graph.initializers
        with WarmExecutorPool(result.parallel_module, weights,
                              backend="process") as pool:
            pipes = list(pool._done)
            assert len({id(pipe) for pipe in pipes}) == pool.num_clusters
            assert all(isinstance(pipe._lock, type(threading.Lock()))
                       for pipe in [*pipes, *pool._job_queues])
            _sigkill(pool, 2)
            # the killed worker's pipe reads end-of-file; no other stirs
            assert [pipe.reader.poll(0) for pipe in pipes] == [
                False, False, True, False]
            with pytest.raises(EOFError):
                pipes[2].reader.recv()

    def test_a_kill_anywhere_in_a_traced_run_heals_bitwise(self,
                                                           wide_compiled):
        """SIGKILL a worker at ten offsets across a traced run: whatever the
        run did, the pool's next run is an explicit error, never a hang,
        and a fresh pool over the same module answers bitwise."""
        from repro.observability import Tracer

        _, result, feed, reference = wide_compiled
        weights = result.optimized_model.graph.initializers

        def fresh():
            return WarmExecutorPool(result.parallel_module, weights,
                                    backend="process", fail_grace_s=1.0,
                                    tracer=Tracer())

        pool = fresh()
        try:
            times = []
            for _ in range(5):
                start = time.monotonic()
                pool.run(feed, timeout=30.0)
                times.append(time.monotonic() - start)
            run_s = sorted(times)[2]  # a warm run's length
            for offset in range(10):
                victim = pool._workers[offset % pool.num_clusters]
                killer = threading.Timer(run_s * offset / 10, os.kill,
                                         (victim.pid, signal.SIGKILL))
                start = time.monotonic()
                killer.start()
                try:
                    pool.run(feed, timeout=30.0)
                except ParallelExecutionError:
                    pass
                killer.join(timeout=10.0)
                victim.join(timeout=10.0)
                with pytest.raises(ParallelExecutionError):
                    pool.run(feed, timeout=30.0)
                pool.close()
                pool = fresh()
                _assert_bitwise(pool.run(feed, timeout=30.0), reference)
                assert time.monotonic() - start < 10.0
        finally:
            pool.close()


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
            pool = session.pool
            pool.set_fault_injector(injector)
            with pytest.raises(ParallelExecutionError):
                session.run(feed, timeout=30.0)
            assert pool.broken
            session.recover()
            assert pool.closed and session.pool is not pool
            assert not session.pool.broken
            _assert_bitwise(session.run(feed, timeout=30.0), reference)
        finally:
            session.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_recover_after_a_kill_and_a_wedge_starts_new_workers(
            self, chain_compiled, backend):
        """One rule for every failure: recover() closes the broken pool and
        starts new workers, with the session's tracer and fault injector
        attached, and the next run is bitwise."""
        from repro.observability import Tracer

        _, result, feed, reference = chain_compiled
        tracer, injector = Tracer(), FaultInjector()
        with create_session(result, executor=EXECUTOR[backend],
                            tracer=tracer) as session:
            session.pool.set_fault_injector(injector)
            _assert_bitwise(session.run(feed, timeout=30.0), reference)
            for fault in ("kill", "wedge"):
                pool = session.pool
                old = ({id(w) for w in pool._workers}
                       | {getattr(w, "pid", None) for w in pool._workers}) - {None}
                if fault == "wedge":
                    injector.add(FaultSpec(site="worker.execute", kind="hang",
                                           seconds=8.0, times=1))
                elif backend == "process":
                    _sigkill(pool, 0)
                else:  # a thread cannot be killed; it can crash
                    injector.add(FaultSpec(site="worker.execute",
                                           kind="crash", times=1))
                with pytest.raises(ParallelExecutionError,
                                   match="timed out|died"):
                    session.run(feed, timeout=1.0)
                start = time.monotonic()
                session.recover()
                assert time.monotonic() - start < 2.0
                assert pool.closed and session.pool is not pool
                new = session.pool
                assert not old & {id(w) for w in new._workers}
                assert not old & {getattr(w, "pid", None) for w in new._workers}
                assert new.tracer is tracer
                assert new.fault_injector is injector
                _assert_bitwise(session.run(feed, timeout=30.0), reference)
                if backend == "process":  # its spans come from the new pid
                    (buffer,) = session.worker_trace_buffers()
                    assert buffer.pid == new._workers[0].pid

    def test_pool_session_recover_raises_when_heal_fails(self, chain_compiled,
                                                         monkeypatch):
        """When the new pool fails its startup check, recover() raises and
        the session stays broken: the caller's fallback takes over."""
        _, result, feed, _ = chain_compiled
        session = create_session(result, executor="process")
        try:
            pool = session.pool
            pool.set_fault_injector(FaultInjector([FaultSpec(
                site="worker.execute", kind="exc", times=1)]))
            with pytest.raises(ParallelExecutionError):
                session.run(feed, timeout=30.0)
            assert pool.broken
            monkeypatch.setattr(worker_pool, "_worker", _exit_at_once)
            with pytest.raises(ParallelExecutionError, match="startup ping"):
                session.recover()
            assert session.broken and session.pool.broken
            with pytest.raises(RuntimeError, match="broken"):
                session.run(feed, timeout=30.0)
        finally:
            session.close()

    @managed_blas
    def test_a_failed_heal_fails_over_to_replica_0(
            self, chain_compiled, monkeypatch, pin_cores):
        """A forked replica whose one attempt fails is not healed: it
        retires with its pool as it is and raises an error naming it.  Any
        replacement pool would fail its startup ping here, and none is
        started."""
        pin_cores(2)
        model, _, feed, _ = chain_compiled
        feeds = [feed] + [example_inputs(model, seed=s) for s in (8, 9)]
        injector = FaultInjector([FaultSpec(
            site="worker.execute", kind="exc", times=1)])
        with InferenceEngine(EngineConfig(max_batch_size=1,
                                          timeout_s=60.0)) as engine:
            served, artifact = serve_across_replicas(engine, model, feeds)
            replica = artifact.replicas[1]
            pool = replica.session.pool
            runs = replica.stats()["runs"]
            pool.set_fault_injector(injector)
            monkeypatch.setattr(worker_pool, "_worker", _exit_at_once)
            with pytest.raises(ServingError,
                               match=re.escape(replica.label)) as excinfo:
                replica.run_batch(feed)
            assert isinstance(excinfo.value.__cause__, ParallelExecutionError)
            assert injector.stats() == {"worker.execute:exc": 1}
            assert replica.stats() == {"runs": runs + 1}
            assert replica.retired and replica.session.broken
            assert replica.session.pool is pool
        _assert_plan_bitwise(model, feeds, served)

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


class TestServingResilience:
    """The chaos tests fail a lane replica's one worker: every replica is
    a forked one-worker session, and the configured ``fault_injector``
    reaches each of them.  Most fork a second replica first
    (``serve_across_replicas`` on two pinned cores)."""

    @managed_blas
    def test_a_failing_replica_fails_over_then_reforks(
            self, pin_cores):
        """A replica whose batch fails retires after its one attempt and
        raises an error naming it; once the fault clears, the next
        backlog forks a fresh replica that serves.  The engine's
        ``fault_injector`` reaches every replica's pool."""
        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=22 + i) for i in range(3)]
        injector = FaultInjector()
        config = EngineConfig(max_batch_size=1, timeout_s=60.0,
                              fault_injector=injector)
        with InferenceEngine(config) as engine:
            served, artifact = serve_across_replicas(engine, model, feeds)
            replica0, replica = artifact.replicas
            assert replica0.session.pool.fault_injector is injector
            assert replica.session.pool.fault_injector is injector
            runs = replica.stats()["runs"]
            injector.add(FaultSpec(site="worker.execute", kind="exc",
                                   times=-1, message="always failing"))
            # the one attempt fails: an explicit error, naming the replica
            with pytest.raises(ServingError,
                               match=re.escape(replica.label)) as excinfo:
                replica.run_batch(feeds[0])
            assert "always failing" in str(excinfo.value.__cause__)
            assert injector.stats() == {"worker.execute:exc": 1}
            assert replica.stats() == {"runs": runs + 1}
            assert replica.retired and replica.session.broken

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
            assert fresh.session.pool.fault_injector is injector
            assert fresh.stats()["runs"] >= 1 and not fresh.retired
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1
        _assert_plan_bitwise(model, feeds + feeds, served)

    def test_a_killed_replica_0_batch_fails_and_a_fresh_fork_answers(
            self, pin_cores):
        """Replica 0's worker killed mid-batch through the engine's
        ``fault_injector``: the request fails with an error naming replica
        0, chained from the pool's, and the next request is answered by a
        freshly forked replica, bitwise the B = 1 plan, with one compile."""
        pin_cores(1)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=60 + i) for i in range(2)]
        injector = FaultInjector()
        config = EngineConfig(max_batch_size=1, timeout_s=60.0,
                              fault_injector=injector)
        with InferenceEngine(config) as engine:
            served = [engine.infer(model, feeds[0])]
            artifact = cached_artifacts(engine)[0]
            (replica,) = artifact.replicas
            injector.add(FaultSpec(site="worker.execute", kind="crash"))
            with pytest.raises(ServingError,
                               match=re.escape(replica.label)) as excinfo:
                engine.infer(model, feeds[0])
            assert isinstance(excinfo.value.__cause__, ParallelExecutionError)
            assert injector.stats() == {"worker.execute:crash": 1}
            served.append(engine.infer(model, feeds[1]))
            (fresh,) = artifact.replicas
            assert fresh is not replica and fresh.index == 1
            assert replica.retired and replica.session.closed
            assert fresh.session.pool.fault_injector is injector
            assert cached_artifacts(engine) == [artifact]
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1
        _assert_plan_bitwise(model, feeds, served)

    @managed_blas
    def test_a_failover_builds_no_session_and_no_thread(
            self, pin_cores, monkeypatch):
        """A failed batch raises from what the replica already has: no
        session is created and no thread is started."""
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
            with pytest.raises(ServingError):
                replica.run_batch(feeds[0])
            assert replica.retired
            assert created == []
            assert set(threading.enumerate()) <= threads
        _assert_plan_bitwise(model, feeds, served)

    @managed_blas
    def test_a_failover_that_fails_raises_replica_0s_error(self, pin_cores):
        """A failed batch is not handed to another replica: its requests
        get a ``ServingError`` naming the replica that ran it, chained
        from the executor's own error, and replica 0 is not asked."""
        pin_cores(2)
        model = build_diamond_model()
        feeds = [example_inputs(model, seed=50 + i) for i in range(3)]
        asked = []

        def recorded_run(*args, **kwargs):
            asked.append(args)
            raise RuntimeError("replica 0 was asked")

        with InferenceEngine(EngineConfig(max_batch_size=1,
                                          timeout_s=60.0)) as engine:
            _, artifact = serve_across_replicas(engine, model, feeds)
            replica0, replica = artifact.replicas
            replica.session.pool.set_fault_injector(FaultInjector([FaultSpec(
                site="worker.execute", kind="exc", times=-1)]))
            replica0.session.run = recorded_run
            with pytest.raises(ServingError) as excinfo:
                replica.run_batch(feeds[0])
            assert replica.label.endswith("/r1")
            assert replica.label in str(excinfo.value)
            assert isinstance(excinfo.value.__cause__, ParallelExecutionError)
            assert "injected fault" in str(excinfo.value.__cause__)
            assert asked == []
            assert replica.retired and not replica0.retired
            del replica0.session.run

    def test_default_config_is_fail_fast_through_the_dispatcher(
            self, pin_cores):
        """A batch makes one attempt and surfaces the executor's own error
        as the cause of a ``ServingError`` naming the replica, every time;
        the replica retires and a fresh fork answers the next request."""
        pin_cores(1)
        model = build_diamond_model()
        feed = example_inputs(model, seed=23)
        boom = RuntimeError("boom")

        def failing_run(*args, **kwargs):
            raise boom

        with InferenceEngine(EngineConfig(max_batch_size=1)) as engine:
            reference = engine.infer(model, feed)
            artifact = cached_artifacts(engine)[0]
            for _ in range(3):
                replica = artifact.replicas[0]
                replica.session.run = failing_run
                with pytest.raises(ServingError,
                                   match=re.escape(replica.label)) as excinfo:
                    engine.infer(model, feed)
                assert excinfo.value.__cause__ is boom
                assert replica.stats() == {"runs": 2} and replica.retired
                _assert_bitwise(engine.infer(model, feed), reference)
                assert artifact.replicas[0] is not replica
            assert cached_artifacts(engine) == [artifact]
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1

    @managed_blas
    def test_a_broken_forked_replica_retires_and_replica_0_serves_on(
            self, pin_cores):
        """A forked replica whose one attempt fails fails its batch with an
        error naming it, while replica 0 holds another batch: the lane
        drops the replica, the artifact stays cached with no recompile,
        replica 0 serves on, and the engine's process never changes its
        BLAS count."""
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
            failed = engine.submit(model, feeds[1])  # the idle replica's
            with pytest.raises(ServingError, match=re.escape(replica.label)):
                failed.result(timeout=60.0)
            assert replica.retired and not held.done()
            release.set()
            served.append(held.result(timeout=60.0))
            _wait_until(lambda: artifact.replicas == [replica0],
                        what="the retired replica dropped")
            _wait_until(lambda: replica.session.closed,
                        what="the retired replica closed")
            assert blas_threads() == before
            served.append(engine.infer(model, feeds[3]))
            assert cached_artifacts(engine) == [artifact]
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1
            assert artifact.replicas == [replica0]
        assert blas_threads() == before
        _assert_plan_bitwise(model, feeds[:3] + [feeds[0], feeds[3]], served)


# ---------------------------------------------------------------------------
# Replica chaos: a forked replica's worker killed under load
# ---------------------------------------------------------------------------
class TestReplicaChaos:
    @managed_blas
    def test_a_killed_replica_worker_heals_alone_while_the_others_serve(
            self, pin_cores):
        """Kill the worker of a lane's second replica while a closed loop
        keeps four requests in flight: that replica's next batch fails
        once, with an error naming it, and the replica retires; the next
        backlog forks a fresh replica (a new pool, one new worker) that
        serves on, nothing recompiles, nothing hangs, and every answer is
        the B = 1 plan's, bit for bit."""
        from concurrent.futures import FIRST_COMPLETED, wait

        from repro.models import build_model
        from repro.runtime.blas import blas_threads, pin_blas_threads

        pin_cores(2)
        model = build_model("bert", variant="small")
        feeds = [example_inputs(model, seed=80 + i) for i in range(8)]
        before = blas_threads()
        served, failed = [], []
        with InferenceEngine() as engine:
            warm, artifact = serve_across_replicas(engine, model, feeds)
            served += list(zip(range(len(feeds)), warm))
            replica0, replica1 = artifact.replicas
            victim = replica1.session.pool._workers[0].pid
            inflight, sent, killed_at = {}, 0, None
            deadline = time.monotonic() + 60.0

            def submit():
                nonlocal sent
                index = sent % len(feeds)
                inflight[engine.submit(model, feeds[index])] = index
                sent += 1

            def fresh_replicas():
                return [r for r in artifact.replicas if r.index > 1]

            for _ in range(4):
                submit()
            while inflight and time.monotonic() < deadline:
                done, _ = wait(list(inflight), timeout=30.0,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    index = inflight.pop(future)
                    try:
                        served.append((index, future.result()))
                    except ServingError as exc:
                        failed.append(exc)
                    if len(served) == 16 and killed_at is None:
                        os.kill(victim, signal.SIGKILL)
                        killed_at = replica0.stats()["runs"]
                    replaced = killed_at is not None and any(
                        r.stats()["runs"] >= 3 for r in fresh_replicas())
                    if not replaced and len(served) < 400:
                        submit()
            assert not inflight, "requests left unanswered"
            assert killed_at is not None
            assert replica1.retired and replica1 not in artifact.replicas
            assert failed and all(
                replica1.label in str(exc)
                and isinstance(exc.__cause__, ParallelExecutionError)
                for exc in failed)
            (fresh,) = fresh_replicas()
            assert fresh.stats()["runs"] >= 3 and not fresh.retired
            assert victim not in [worker.pid
                                  for worker in fresh.session.pool._workers]
            assert replica0.stats()["runs"] > killed_at
            assert not replica0.retired
            assert engine.metrics.snapshot()["cache"]["compiles"] == 1
        assert blas_threads() == before
        pin_blas_threads(1)
        plan = create_session(ramiel_compile(model), executor="plan")
        references = [plan.run(feed) for feed in feeds]
        for index, outputs in served:
            _assert_bitwise(outputs, references[index])


# ---------------------------------------------------------------------------
# One-shot process driver: leak fix + remote tracebacks
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
