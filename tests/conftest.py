"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.dataflow import DataflowGraph
from repro.ir import GraphBuilder


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture()
def pin_cores(monkeypatch):
    """``pin_cores(n)``: pool-backed sessions place onto ``n`` cores, whatever
    the host has — the one seam (`session.available_cores`) placement reads."""
    import repro.runtime.session as session_module

    def pin(cores: int) -> None:
        monkeypatch.setattr(session_module, "available_cores", lambda: cores)
    return pin


def _initial_blas():
    from repro.runtime.blas import blas_threads

    return blas_threads()


#: this process's BLAS thread count before any test ran
INITIAL_BLAS = _initial_blas()

#: for tests that pin BLAS threads or fork lane replicas: a host whose
#: OpenBLAS copies export no known thread setter keeps one replica
managed_blas = pytest.mark.skipif(
    INITIAL_BLAS == "unmanaged",
    reason="a loaded OpenBLAS copy exports no known thread setter")


@pytest.fixture(autouse=True)
def restore_blas():
    """Every test starts at the BLAS thread count the process started with.

    An engine that forks a lane replica pins the whole process to one BLAS
    thread, and so do tests that pin it themselves; without this a test
    would compute at a budget that depends on what ran before it.
    """
    if INITIAL_BLAS != "unmanaged":
        from repro.runtime.blas import blas_threads, pin_blas_threads

        if blas_threads() != INITIAL_BLAS:
            pin_blas_threads(INITIAL_BLAS)


def compiled_pool(result, backend: str = "process", **kwargs):
    """One worker per *compiled* cluster of ``result``, placed nowhere.

    Transport, tracing and chaos tests want the cross-worker hand-offs of
    the compiled clustering on any host, including toy models a session
    would place on a single worker (their predicted speedup is below 1).
    """
    from repro.runtime.worker_pool import WarmExecutorPool

    return WarmExecutorPool(result.parallel_module,
                            result.optimized_model.graph.initializers,
                            backend=backend, **kwargs)


def build_diamond_model(name: str = "diamond"):
    """A small fork/join CNN: conv -> (branch1 || branch2) -> concat -> head."""
    b = GraphBuilder(name, seed=0)
    x = b.input("x", (1, 3, 16, 16))
    stem = b.conv_relu(x, 8, kernel=3, pads=1)
    left = b.conv_relu(stem, 4, kernel=1)
    right = b.conv_relu(stem, 4, kernel=3, pads=1)
    merged = b.concat([left, right], axis=1)
    pooled = b.global_avgpool(merged)
    flat = b.flatten(pooled)
    logits = b.gemm(flat, 10)
    probs = b.softmax(logits, axis=-1)
    b.output(probs)
    return b.build()


def build_chain_model(length: int = 5, name: str = "chain"):
    """A purely sequential conv chain (no parallelism)."""
    b = GraphBuilder(name, seed=0)
    x = b.input("x", (1, 3, 8, 8))
    y = x
    for _ in range(length):
        y = b.conv_relu(y, 4, kernel=3, pads=1)
    b.output(y)
    return b.build()


def build_wide_model(branches: int = 4, name: str = "wide"):
    """One stem feeding several independent branches joined by a concat."""
    b = GraphBuilder(name, seed=0)
    x = b.input("x", (1, 3, 8, 8))
    stem = b.conv_relu(x, 8, kernel=3, pads=1)
    outs = [b.conv_relu(stem, 4, kernel=3, pads=1) for _ in range(branches)]
    merged = b.concat(outs, axis=1)
    b.output(merged)
    return b.build()


@pytest.fixture()
def diamond_model():
    """Fork/join model fixture."""
    return build_diamond_model()


@pytest.fixture()
def chain_model():
    """Sequential chain model fixture."""
    return build_chain_model()


@pytest.fixture()
def wide_model():
    """Wide fork/join model fixture."""
    return build_wide_model()


@pytest.fixture()
def diamond_dfg(diamond_model) -> DataflowGraph:
    """Dataflow graph of the diamond model."""
    from repro.graph import model_to_dataflow

    return model_to_dataflow(diamond_model)


def make_dataflow(edges, costs=None, name="toy") -> DataflowGraph:
    """Build a DataflowGraph directly from an edge list (helper for unit tests)."""
    dfg = DataflowGraph(name)
    nodes = []
    for src, dst in edges:
        for n in (src, dst):
            if n not in nodes:
                nodes.append(n)
    costs = costs or {}
    for n in nodes:
        dfg.add_node(n, "Generic", cost=float(costs.get(n, 1.0)))
    for src, dst in edges:
        dfg.add_edge(src, dst)
    return dfg


def lane_of(engine, model, feed):
    """The lane serving ``feed`` on ``engine`` (one cache access, like any lookup)."""
    _, _, signature = engine._validate(model, feed)
    return engine._lane_for(model, engine._key(model, signature))


def artifact_of(engine, model, feed):
    """The warm ``CompiledArtifact`` serving ``feed`` on ``engine``.

    The one way tests reach an artifact's session / dispatcher / watchdog:
    the lane for the request's key, through its documented ``wait()``.
    """
    return lane_of(engine, model, feed).wait(timeout=60.0)


def serve_across_replicas(engine, model, feeds, timeout: float = 60.0):
    """Serve ``feeds`` (at least three) concurrently, so that the lane forks
    a second replica and that replica answers at least one of them.

    Replica 0 is held on its first request until every other one is
    queued, and on its second until another replica has answered — so the
    second take finds replica 0 busy with requests still queued, which is
    what forks a replica.  Returns ``(outputs in feed order, artifact)``.
    """
    import threading
    from concurrent.futures import FIRST_COMPLETED, wait

    artifact = artifact_of(engine, model, feeds[0])
    session = artifact.session
    real_run = session.run
    entered = threading.Event()
    gates = [threading.Event(), threading.Event()]
    calls = []

    def held(*args, **kwargs):
        call = len(calls)
        calls.append(call)
        if call < len(gates):
            if call == 0:
                entered.set()
            assert gates[call].wait(timeout=timeout)
        return real_run(*args, **kwargs)

    session.run = held
    try:
        futures = [engine.submit(model, feeds[0])]
        assert entered.wait(timeout=timeout)
        futures += [engine.submit(model, feed) for feed in feeds[1:]]
        gates[0].set()
        answered, _ = wait(futures[2:], timeout=timeout,
                           return_when=FIRST_COMPLETED)
        assert answered, "no second replica answered"
    finally:
        for gate in gates:
            gate.set()
        del session.run
    return [future.result(timeout=timeout) for future in futures], artifact


def cached_artifacts(engine):
    """Every compiled artifact in ``engine``'s cache, LRU-oldest first."""
    return [lane.wait(timeout=60.0) for lane in engine._cache.values()]


def gate_session(artifact):
    """Hold every batch of ``artifact`` inside its session until released.

    Returns ``(entered, release)``: ``entered`` is set once a batch is
    held; set ``release`` to let it (and every later batch) run.
    """
    import threading

    entered, release = threading.Event(), threading.Event()
    for name in ("run", "run_with_binding"):
        def gated(*args, _real=getattr(artifact.session, name), **kwargs):
            entered.set()
            assert release.wait(timeout=30.0)
            return _real(*args, **kwargs)
        setattr(artifact.session, name, gated)
    return entered, release


class FakeClock:
    """An injectable ``QoSFrontend(clock=...)`` that only the test advances."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class LaneDouble:
    """A lane without an engine, for frontend-level tests.

    One thread serving ``key`` out of a ``QoSFrontend`` exactly as the
    engine's lanes do — ``take_batch -> stack -> run_batch -> scatter ->
    complete`` — with ``run_batch`` supplied by the test.
    """

    def __init__(self, frontend, key, run_batch, max_batch):
        import threading

        self.frontend, self.key = frontend, key
        self._run_batch, self._max_batch = run_batch, max_batch
        self._closing = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"lane-double-{key}")
        self._thread.start()

    def _run(self):
        from repro.serving import scatter_outputs, stack_requests

        while True:
            batch = self.frontend.take_batch(self.key, self._max_batch,
                                             lambda: self._closing)
            if batch is None:
                return
            try:
                outputs = scatter_outputs(
                    self._run_batch(stack_requests(batch)), batch)
            except BaseException as exc:  # noqa: BLE001 - as the real lane does
                for request in batch:
                    self.frontend.complete(request, exc=exc)
            else:
                for request, result in zip(batch, outputs):
                    self.frontend.complete(request, result)

    def close(self, timeout: float = 5.0) -> None:
        self._closing = True
        self.frontend.wake()
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive()
