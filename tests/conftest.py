"""Shared fixtures for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings

from repro.graph.dataflow import DataflowGraph
from repro.ir import GraphBuilder

#: tier-1 draws the same examples on every run; ``--hypothesis-profile
#: default`` (or any other registered profile) draws fresh ones
settings.register_profile("derandomized", derandomize=True)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("derandomized")


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic random generator."""
    return np.random.default_rng(1234)


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

    Tests that build reference answers pin this process's BLAS threads
    themselves (the serving engine never does: only its forked workers
    pin theirs); without this a test would compute at a budget that
    depends on what ran before it.
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


def build_batch_folding_model(name: str = "batch_folding"):
    """A reshape that folds the batch into the rows, ``(1, 8, 16) -> (8, 16)``:
    a stacked batch cannot pass through it, so the engine serves it unfused."""
    b = GraphBuilder(name, seed=0)
    x = b.input("x", (1, 8, 16))
    rows = b.reshape(b.relu(x), [8, 16])
    product = b.matmul(rows, b.weight("w", (16, 4)))
    b.output(b.relu(b.reshape(product, [1, 32])))
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


@st.composite
def random_dags(draw, max_nodes: int = 18) -> DataflowGraph:
    """Random weighted DAG: edges always point from a lower to a higher
    node number (``n3 -> n7``).

    Costs come from a small pool half of the time, so equal (and zero)
    distances are common and the algorithms' tie-breaking is exercised; the
    nodes are inserted in a drawn order, so the insertion index that breaks
    ties need not be a topological order; a few edges are repeated, as when
    one tensor feeds two inputs of a node.
    """
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    cost = st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                     st.floats(min_value=0.0, max_value=20.0,
                               allow_nan=False, allow_infinity=False))
    costs = draw(st.lists(cost, min_size=num_nodes, max_size=num_nodes))
    edge_flags = draw(st.lists(st.booleans(),
                               min_size=num_nodes * (num_nodes - 1) // 2,
                               max_size=num_nodes * (num_nodes - 1) // 2))
    density = draw(st.floats(min_value=0.1, max_value=0.6))

    dfg = DataflowGraph("random")
    for i in draw(st.permutations(range(num_nodes))):
        dfg.add_node(f"n{i}", "Generic", cost=float(costs[i]))
    flag_iter = iter(edge_flags)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if next(flag_iter) and (j - i == 1 or (i * 31 + j) % 100 < density * 100):
                dfg.add_edge(f"n{i}", f"n{j}")
    edges = dfg.edges()
    if edges:
        for k in draw(st.lists(st.integers(0, len(edges) - 1), max_size=3)):
            dfg.add_edge(edges[k].src, edges[k].dst)
    return dfg


def lane_of(engine, model, feed):
    """The lane serving ``feed`` on ``engine`` (one cache access, like any lookup)."""
    _, _, signature = engine._validate(model, feed)
    return engine._lane_for(model, engine._key(model, signature))


def artifact_of(engine, model, feed):
    """The warm ``CompiledArtifact`` serving ``feed`` on ``engine``.

    The one way tests reach an artifact's replicas: the lane for the
    request's key, through its documented ``wait()``.
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
    session = artifact.replicas[0].session
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
    """Hold every batch of ``artifact`` inside replica 0's session until released.

    Returns ``(entered, release)``: ``entered`` is set once a batch is
    held; set ``release`` to let it (and every later batch) run.
    """
    import threading

    entered, release = threading.Event(), threading.Event()
    session = artifact.replicas[0].session
    for name in ("run", "run_with_binding"):
        def gated(*args, _real=getattr(session, name), **kwargs):
            entered.set()
            assert release.wait(timeout=30.0)
            return _real(*args, **kwargs)
        setattr(session, name, gated)
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
    engine's replicas do — ``take_batch -> stack -> run_batch -> scatter ->
    complete`` — with ``run_batch`` supplied by the test; ``primary=False``
    plays a forked replica.
    """

    def __init__(self, frontend, key, run_batch, max_batch, primary=True):
        import threading

        self.frontend, self.key = frontend, key
        self._run_batch, self._max_batch = run_batch, max_batch
        self._primary = primary
        self._closing = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"lane-double-{key}")
        self._thread.start()

    def _run(self):
        from repro.serving import scatter_outputs, stack_requests

        while True:
            batch = self.frontend.take_batch(self.key, self._max_batch,
                                             lambda: self._closing,
                                             primary=self._primary)
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
