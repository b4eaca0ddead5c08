"""Planned destinations: the plan and every warm worker compute into their own slab.

The generated code names a destination for every call that can take one;
the plan and the ``pool`` / ``process`` workers hand it views into one
liveness-packed slab per input signature.  A destination that outlives its
interval — a range handed to a value still read later, a value that
crosses a cluster boundary or reaches the caller — shows up here as a NaN
in an output once every slab and scratch byte is overwritten between two
warm runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_model, list_models
from repro.pipeline import ramiel_compile
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.runtime.blas import pin_blas_threads
from repro.runtime.plan import ClusterSlabPlanner
from repro.runtime.session import create_session
from repro.runtime.worker_pool import WarmExecutorPool
from repro.serving import example_inputs

_EXECUTORS = ("plan", "pool", "process")


def _assert_bitwise(got, want, what):
    assert got.keys() == want.keys(), what
    for name, ref in want.items():
        np.testing.assert_array_equal(got[name], ref, err_msg=f"{what}: {name}")


def _check_poisoned(run, poison, want, what):
    """Two warm runs, every slab and scratch byte overwritten, a third run:
    all bitwise equal to ``want``."""
    for _ in range(2):
        _assert_bitwise(run(), want, f"{what} warm")
    poison()
    _assert_bitwise(run(), want, f"{what} after poisoning")


def _poison_plan(plan):
    for memory in plan._memory.values():
        memory.slab.fill(0xFF)
    plan._workspace.poison()


def _poison_workers(pool):
    """Each worker overwrites its memory before its next job (a fault
    directive shipped with the job), and only then."""
    injector = FaultInjector([FaultSpec("worker.execute", "poison",
                                        times=pool.num_clusters)])
    pool.set_fault_injector(injector)


@pytest.mark.parametrize("name", list_models())
@pytest.mark.parametrize("clone", [False, True])
def test_poisoned_slabs_leave_every_executor_bitwise(name, clone, pin_cores):
    """The plan, the placed ``pool`` and ``process`` sessions, and a thread
    pool with one worker per *compiled* cluster (every cross-cluster value
    a hand-off by reference), at default and cloned clusterings.  Every
    side computes at the forked workers' one BLAS thread: bitwise at equal
    budget (``restore_blas`` puts the count back)."""
    pin_cores(2)
    pin_blas_threads(1)
    model = build_model(name, variant="small")
    result = ramiel_compile(model, clone=clone)
    feed = example_inputs(model, seed=11)
    want = create_session(result, executor="interp").run(feed)
    _assert_bitwise(result.run_sequential(feed), want, "standalone sequential module")
    for executor in _EXECUTORS:
        with create_session(result, executor=executor) as session:
            if session.plan is not None:
                _check_poisoned(lambda: session.run(feed),
                                lambda: _poison_plan(session.plan), want, executor)
                continue
            _check_poisoned(lambda: session.run(feed),
                            lambda: _poison_workers(session.pool), want, executor)
            slabs = [row["slab_bytes"] for row in session.stats()["pool"]["workers"]]
            assert sum(slabs) > 0, f"{executor}: no worker computed into a slab"
    graph = result.optimized_model.graph
    clusters = [cluster.nodes for cluster in result.clustering_merged.clusters]
    with WarmExecutorPool(result.parallel_module, graph.initializers,
                          planner=ClusterSlabPlanner(graph, clusters)) as pool:
        _check_poisoned(lambda: pool.run(feed, timeout=60.0),
                        lambda: _poison_workers(pool), want,
                        f"{len(clusters)} compiled clusters")


@pytest.mark.parametrize("executor", ["pool", "process"])
def test_warm_worker_sessions_allocate_nothing(executor, pin_cores):
    pin_cores(2)
    model = build_model("inception_v3", variant="small")
    result = ramiel_compile(model)
    feed = example_inputs(model, seed=4)
    want = create_session(result, executor="interp").run(feed)
    with create_session(result, executor=executor) as session:
        session.run(feed)
        warm = [(row["allocations"], row["slab_bytes"])
                for row in session.stats()["pool"]["workers"]]
        assert len(warm) == 2 and all(allocations > 0 for allocations, _ in warm)
        for _ in range(10):
            _assert_bitwise(session.run(feed), want, executor)
        assert [(row["allocations"], row["slab_bytes"])
                for row in session.stats()["pool"]["workers"]] == warm


@pytest.mark.parametrize("name", list_models())
def test_no_cluster_slab_holds_a_crossing_value_or_a_graph_output(name):
    """A thread channel hands the consumer the producer's array, and a graph
    output reaches the caller: neither may live in a slab range."""
    result = ramiel_compile(build_model(name, variant="small"))
    graph = result.optimized_model.graph
    clusters = [cluster.nodes for cluster in result.clustering_merged.clusters]
    planner = ClusterSlabPlanner(graph, clusters)
    _, layouts = planner.plan(example_inputs(result.model, seed=0))
    assert planner.pinned >= set(graph.output_names)
    assert len(clusters) == 1 or planner.pinned > set(graph.output_names)
    for layout in layouts:
        for slot, _, _, _ in layout.views:
            produced = [value for value in planner.order[slot].outputs if value]
            assert not set(produced) & planner.pinned


def test_a_job_pipe_carries_a_layout_larger_than_an_atomic_write():
    """A slab layout can exceed ``PIPE_BUF``; a non-blocking job pipe must
    still deliver it whole (a partial write would tear the message)."""
    import multiprocessing

    from repro.runtime.worker_pool import ControlPipe

    pipe = ControlPipe(multiprocessing.get_context("fork"), blocking=False)
    layout = [(slot, slot * 64, (1, 64, 8, 8), "<f4") for slot in range(600)]
    pipe.put(("job", layout))
    assert pipe.get(timeout=5.0) == ("job", layout)


def _large_layout(views: int = 6000):
    """A layout whose pickled job is larger than an empty pipe (64 KB)."""
    from repro.runtime.plan import Destinations

    dtype = np.dtype(np.float32)
    return Destinations([(0, 64 * k, (k % 7 + 1, 3), dtype) for k in range(views)],
                        64 * views, 64 * views, 0)


def test_a_large_put_into_an_undrained_pipe_times_out():
    """Nobody reads: a message larger than the pipe's free space raises
    ``queue.Full`` once its timeout passes instead of blocking for good."""
    import multiprocessing
    import queue
    import time
    from multiprocessing.reduction import ForkingPickler

    from repro.runtime.worker_pool import ControlPipe

    layout = _large_layout()
    assert len(ForkingPickler.dumps(layout)) > 1 << 16
    pipe = ControlPipe(multiprocessing.get_context("fork"), blocking=False)
    start = time.monotonic()
    with pytest.raises(queue.Full):
        pipe.put(("job", layout), timeout=0.3)
    assert 0.3 <= time.monotonic() - start < 5.0


def test_a_large_put_arrives_whole_while_the_reader_drains():
    import multiprocessing
    import threading

    from repro.runtime.worker_pool import ControlPipe

    layout = _large_layout()
    pipe = ControlPipe(multiprocessing.get_context("fork"), blocking=False)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.get(timeout=10.0)))
    reader.start()
    pipe.put(("job", layout), timeout=10.0)
    reader.join()
    assert got == [("job", layout)]


def test_a_stopped_workers_large_layout_breaks_the_pool_within_the_timeout():
    """A process worker is stopped (alive, not draining its job pipe), then
    a new signature ships it a layout larger than its pipe: the run fails
    within its timeout and the pool is marked broken, rather than the
    coordinator blocking on the write."""
    import os
    import signal
    import time

    from repro.runtime.worker_pool import ParallelExecutionError

    model = build_model("googlenet", variant="small")
    result = ramiel_compile(model)
    graph = result.optimized_model.graph
    clusters = [cluster.nodes for cluster in result.clustering_merged.clusters]
    planner = ClusterSlabPlanner(graph, clusters)
    feed = example_inputs(model, seed=3)
    with WarmExecutorPool(result.parallel_module, graph.initializers, backend="process",
                          planner=planner) as pool:
        pool.run(feed, timeout=60.0)
        victim = pool._workers[0]
        # A dead worker would fail the run at dispatch; a stopped one is
        # alive and never drains.
        os.kill(victim.pid, signal.SIGSTOP)

        class NewSignature:
            def plan(self, inputs):
                return 99, [_large_layout()] * len(clusters)

        pool._planner = NewSignature()
        start = time.monotonic()
        try:
            with pytest.raises(ParallelExecutionError,
                               match="not draining its job pipe"):
                pool.run(feed, timeout=1.0)
            assert time.monotonic() - start < 10.0
        finally:
            os.kill(victim.pid, signal.SIGKILL)
        assert pool.broken
