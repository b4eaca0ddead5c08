"""Unified execution surface: compile once, bind buffers, run many.

:func:`create_session` is the package's one execution front door, modeled
on ONNX Runtime's ``InferenceSession`` + ``IOBinding`` pattern:

* a :class:`Session` owns the compiled artifact (pipeline result, execution
  plan and its memory slabs, or a warm worker pool) behind one executor name
  from :data:`EXECUTOR_REGISTRY` — the single registry every entry point
  (the CLI's ``trace --executor`` flag, this module) validates against;
* :meth:`Session.run` executes a plain feed dict, whatever the executor;
* :meth:`Session.bind` returns an :class:`IOBinding`.  ``bind_input`` pins
  caller-owned staging buffers, and
  ``bind_output`` threads caller-owned destinations through
  ``ExecutionPlan.run(feed, out=...)`` so graph outputs stop allocating
  per run;
* :meth:`Session.run_with_binding` executes a bound feed.  On a warm
  ``"plan"`` session the loop performs **zero** plan allocations and
  **zero** graph-output allocations — outputs land in place in the bound
  buffers (gated in ``benchmarks/test_execution_throughput.py``).

``"interp"`` sessions expose the exact same interface over the reference
interpreter, which is what the differential tests compare against; bound
outputs there are finalized by copy rather than written in place.

Example::

    import numpy as np
    from repro import create_session
    from repro.models import build_model

    session = create_session(build_model("squeezenet"))
    binding = session.bind()
    staging = binding.bind_input(
        "input", np.zeros((1, 3, 224, 224), np.float32))
    binding.bind_output("softmax_0_out")    # session-managed, reused buffer
    for request in stream:
        staging[...] = request              # refill the pinned buffer
        outputs = session.run_with_binding(binding)
        # outputs["softmax_0_out"] IS the bound buffer, written in place
        # (also available as binding.get_outputs() after the first run)
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.ir.model import Model
from repro.runtime.executor import GraphExecutor
from repro.runtime.plan import ClusterSlabPlanner, ExecutionPlan, land_outputs
from repro.runtime.worker_pool import WarmExecutorPool

__all__ = [
    "EXECUTOR_REGISTRY",
    "IOBinding",
    "Session",
    "create_session",
    "known_executors",
    "validate_executor",
]

#: The one registry of execution-surface names.  Every entry point that
#: accepts an executor string — :func:`create_session` and the CLI's
#: ``trace --executor`` flag — validates against this table via
#: :func:`validate_executor` instead of keeping its own list.
EXECUTOR_REGISTRY: Dict[str, str] = {
    "plan": "compile-once ExecutionPlan hot path (zero-realloc once warm)",
    "interp": "GraphExecutor reference interpreter (semantic ground truth)",
    "pool": "generated parallel module on warm worker threads, one per placed cluster",
    "process": "generated parallel module on warm forked workers, one per placed cluster",
}


def available_cores() -> int:
    """Cores this process may run on — what a pool-backed session places
    its clusters onto (``min(clusters, cores)`` workers).  The affinity mask
    where the platform has one (Linux), the machine's core count elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def known_executors() -> Tuple[str, ...]:
    """The registered executor names, in registry order."""
    return tuple(EXECUTOR_REGISTRY)


def validate_executor(name: str, context: str = "executor") -> str:
    """Validate an executor name eagerly against the central registry.

    Raises :class:`ValueError` naming the known registry so a typo fails
    at configuration time instead of deep inside dispatch.
    """
    if name not in EXECUTOR_REGISTRY:
        raise ValueError(
            f"unknown {context} {name!r}; known executors: "
            f"{', '.join(EXECUTOR_REGISTRY)}")
    return name


class IOBinding:
    """Pinned input/output buffers for one :class:`Session`.

    Created via :meth:`Session.bind`.  Input buffers are read directly by
    the executor (zero-copy staging: write new request data into a pinned
    buffer, or cheaply rebind a new array).  Output buffers are written in
    place by ``"plan"`` sessions; ``bind_output(name)`` without a buffer
    lets the session materialize a private, reused buffer on first run.

    A binding is not thread-safe: it describes one caller's buffers, and
    concurrent ``run_with_binding`` calls over the same binding would race
    on them.
    """

    def __init__(self, session: "Session") -> None:
        self._session = session
        self._inputs: Dict[str, np.ndarray] = {}
        self._outputs: Dict[str, Optional[np.ndarray]] = {}

    # ------------------------------------------------------------------
    def bind_input(self, name: str, buffer) -> np.ndarray:
        """Pin ``buffer`` as the staging array for graph input ``name``.

        The array is validated against the model's declared signature
        (leading/batch and ``None`` dims are free); the session reads it
        directly on every :meth:`Session.run_with_binding` call, so the
        caller can refill it between runs without rebinding.
        """
        session = self._session
        if name not in session.input_names:
            raise ValueError(
                f"model {session.model_name!r} has no input {name!r}; "
                f"inputs: {sorted(session.input_names)}")
        array = np.asarray(buffer)
        info = session._input_info.get(name)
        declared = getattr(info, "shape", None)
        if declared is not None:
            if array.ndim != len(declared):
                raise ValueError(
                    f"input {name!r}: expected {len(declared)} dimensions "
                    f"{tuple(declared)}, got shape {array.shape}")
            for axis, dim in enumerate(declared):
                if axis == 0 or dim is None:
                    continue  # batch axis / wildcard
                if array.shape[axis] != dim:
                    raise ValueError(
                        f"input {name!r}: axis {axis} must be {dim}, got "
                        f"{array.shape[axis]} (shape {array.shape} vs "
                        f"declared {tuple(declared)})")
        if info is not None and np.dtype(info.dtype.value) != array.dtype:
            raise ValueError(
                f"input {name!r}: declared dtype {info.dtype.value}, got "
                f"{array.dtype}")
        self._inputs[name] = array
        return array

    def bind_output(self, name: str, buffer=None) -> Optional[np.ndarray]:
        """Bind a destination buffer for graph output ``name``.

        With ``buffer=None`` the session allocates a private buffer on the
        first bound run and reuses it afterwards (returned by
        :meth:`get_outputs`).  A caller-provided buffer must be a
        writeable array and must not overlap any other bound output; shape
        and dtype are checked against the produced output at run time.
        """
        session = self._session
        if name not in session.output_names:
            raise ValueError(
                f"model {session.model_name!r} has no output {name!r}; "
                f"outputs: {sorted(session.output_names)}")
        if buffer is None:
            return self._outputs.setdefault(name, None)
        array = np.asarray(buffer)
        if not array.flags.writeable:
            raise ValueError(
                f"output buffer for {name!r} must be writeable")
        for other_name, other in self._outputs.items():
            if (other is not None and other_name != name
                    and np.may_share_memory(array, other)):
                raise ValueError(
                    f"output buffer for {name!r} overlaps the buffer "
                    f"bound to {other_name!r}")
        self._outputs[name] = array
        return array

    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Dict[str, np.ndarray]:
        """The bound input arrays (a shallow copy of the mapping)."""
        return dict(self._inputs)

    def get_outputs(self) -> Dict[str, np.ndarray]:
        """Bound (or session-materialized) output buffers seen so far."""
        return {name: buf for name, buf in self._outputs.items()
                if buf is not None}

    def clear(self) -> None:
        """Drop every bound input and output."""
        self._inputs.clear()
        self._outputs.clear()


class Session:
    """One compiled model behind one executor, with an IOBinding surface.

    Construct via :func:`create_session` (or
    :meth:`repro.pipeline.RamielResult.session`).  A session is
    thread-safe for plain :meth:`run` calls (the underlying plan/pool
    serializes); :meth:`run_with_binding` is as thread-safe as the
    binding's buffers — use one binding per caller.
    """

    def __init__(self, executor: str, *, graph, model_name: str,
                 result=None, plan: Optional[ExecutionPlan] = None,
                 interp: Optional[GraphExecutor] = None,
                 start_pool: Optional[Callable[[], WarmExecutorPool]] = None,
                 placement: Optional[Dict] = None,
                 timeout_s: float = 300.0) -> None:
        self.executor = validate_executor(executor)
        self.result = result
        self.model_name = model_name
        self.timeout_s = timeout_s
        self._graph = graph
        self._plan = plan
        self._interp = interp
        #: builds this session's pool: at construction and at every recover()
        self._start_pool = start_pool
        self._pool = start_pool() if start_pool is not None else None
        self._placement = placement
        self._input_info = {info.name: info for info in graph.inputs}
        self._closed = False
        self._broken: Optional[str] = None
        self._tracer = None
        #: precomputed span args so traced runs do no per-call dict building
        self._span_args = {"model": model_name, "executor": self.executor}
        self._metrics_collectors: list = []
        #: ``(registry, labels)`` the pool publishes into, for its successors
        self._pool_metrics: list = []

    # ------------------------------------------------------------------
    @property
    def plan(self) -> Optional[ExecutionPlan]:
        """The underlying :class:`ExecutionPlan` (``"plan"`` sessions)."""
        return self._plan

    @property
    def interpreter(self) -> Optional[GraphExecutor]:
        """The underlying :class:`GraphExecutor` (``"interp"`` sessions)."""
        return self._interp

    @property
    def pool(self) -> Optional[WarmExecutorPool]:
        """The warm worker pool (``"pool"`` / ``"process"`` sessions)."""
        return self._pool

    @property
    def input_names(self) -> Tuple[str, ...]:
        """Graph input names of the compiled model."""
        return tuple(self._graph.input_names)

    @property
    def output_names(self) -> Tuple[str, ...]:
        """Graph output names of the compiled model."""
        return tuple(self._graph.output_names)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    @property
    def broken(self) -> bool:
        """True once a watchdog marked the session unusable."""
        return self._broken is not None

    def mark_broken(self, reason: str) -> None:
        """Mark the session unusable (e.g. a run is wedged inside it)."""
        self._broken = reason

    def recover(self) -> "Session":
        """Replace this session's executor and clear ``broken``.

        The retry path's repair hook, one rule for every executor: the
        execution machinery is replaced, never repaired in place, and the
        compiled artifact is kept (no recompile):

        * pool-backed sessions close the pool — a broken pool's process
          workers are reaped at once — and start a fresh one over the same
          placed module, weights, slab planner, ``max_batch`` and fail
          grace, with the same tracer, fault injector and metrics
          registries attached: K workers are K new ones (a one-worker
          pool starts in ~10 ms).  If the new pool fails its startup
          check this raises its
          :class:`~repro.runtime.worker_pool.ParallelExecutionError` and the
          session stays broken; the caller's own fallback takes over (a
          serving lane's forked replica retires and hands its batch to
          replica 0).  The pool's counters start again from zero;
        * ``"plan"`` sessions build a **fresh** :class:`ExecutionPlan`
          over the same optimized model — a watchdogged run may hold the
          old plan's run lock forever, so the old object is abandoned,
          not reused;
        * ``"interp"`` sessions get a fresh :class:`GraphExecutor`.

        Existing :class:`IOBinding` objects remain valid: they reference
        the session, not the replaced executor.  Raises ``RuntimeError``
        if the session is closed.
        """
        if self._closed:
            raise RuntimeError(
                f"cannot recover closed session for {self.model_name!r}")
        if self._pool is not None:
            injector = self._pool.fault_injector
            self._pool.close()
            try:
                self._pool = self._start_pool()
            except Exception as exc:
                self._broken = f"replacing its pool failed: {exc!r}"
                raise
            self._pool.set_tracer(self._tracer)
            self._pool.set_fault_injector(injector)
            for registry, labels in self._pool_metrics:
                self._pool.publish_metrics(registry, labels)
        elif self._plan is not None:
            if self.result is not None:
                source = self.result.optimized_model
            else:  # a bare-ExecutionPlan artifact: rebuild over its graph
                source = self._plan.graph
            self._plan = ExecutionPlan(source)
            if self._tracer is not None:
                self._plan.enable_tracing(self._tracer)
        elif self._interp is not None:
            self._interp = GraphExecutor(self.result.optimized_model)
        self._broken = None
        return self

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The attached :class:`~repro.observability.Tracer`, if any."""
        return self._tracer

    def set_tracer(self, tracer) -> None:
        """Attach (or, with ``None``, detach) a span tracer.

        Run-level spans (``session.run`` / ``session.run_with_binding``,
        category ``"session"``) are emitted around every execution, and a
        ``"plan"`` session propagates the tracer into its
        :class:`ExecutionPlan` so per-step spans nest inside the run span.
        Pool-backed sessions propagate the tracer into the
        :class:`WarmExecutorPool`: dispatched jobs carry trace contexts and
        the workers ship their span buffers home (see
        :meth:`worker_trace_buffers`).
        """
        self._tracer = tracer
        if self._plan is not None:
            if tracer is None:
                self._plan.disable_tracing()
            else:
                self._plan.enable_tracing(tracer)
        if self._pool is not None:
            self._pool.set_tracer(tracer)

    def worker_trace_buffers(self):
        """Per-worker span buffers of a traced pool session (else ``[]``).

        The returned :class:`~repro.observability.merge.WorkerTraceBuffer`
        list — together with the session's tracer — feeds
        :func:`repro.observability.merge.merge_traces`, which emits one
        multi-process Chrome trace on the shared ``perf_counter_ns`` clock.
        """
        if self._pool is None:
            return []
        return self._pool.worker_trace_buffers()

    def publish_metrics(self, registry, labels: Optional[Mapping[str, str]] = None) -> None:
        """Mirror this session's counters into a ``MetricsRegistry``.

        Registers a pull-style collector that refreshes gauges from
        :meth:`stats` before every registry snapshot/exposition: plan shape
        (steps, fused nodes), memory-plan allocations and slab bytes, and
        output-binding direct/copy writes — the counters that previously
        required calling ``Session.stats()`` by hand.
        """
        labels = dict(labels) if labels else {"model": self.model_name}
        gauge = registry.gauge

        def collect(_registry) -> None:
            stats = self.stats()
            plan_stats = stats.get("plan")
            if plan_stats is not None:
                gauge("plan_steps", "Compiled plan steps",
                      labels=labels).set(plan_stats["steps"])
                gauge("plan_fused_nodes", "Nodes computing in place on a dying input",
                      labels=labels).set(plan_stats["fused_nodes"])
                arena = plan_stats["arena"]
                gauge("plan_arena_allocations",
                      "Slabs and scratch buffers the plan has allocated",
                      labels=labels).set(arena["allocations"])
                gauge("plan_slab_bytes",
                      "Bytes of the plan's per-signature memory slabs",
                      labels=labels).set(arena["slab_bytes"])
                binding = plan_stats["output_binding"]
                gauge("plan_output_direct_writes",
                      "Bound outputs written in place by the producing step",
                      labels=labels).set(binding["direct_writes"])
                gauge("plan_output_copy_writes",
                      "Bound outputs finalized by an end-of-run copy",
                      labels=labels).set(binding["copy_writes"])
            if stats.get("pool_clusters") is not None:
                gauge("pool_clusters", "Workers in the warm pool (placed clusters)",
                      labels=labels).set(stats["pool_clusters"])

        registry.register_collector(collect)
        self._metrics_collectors.append((registry, collect))
        if self._pool is not None:
            # Worker-layer counters (runs, dispatch/execute/queue-wait time,
            # channel bytes) publish under the same labels.
            self._pool.publish_metrics(registry, labels)
            self._pool_metrics.append((registry, labels))

    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"session for {self.model_name!r} is closed")
        if self._broken is not None:
            raise RuntimeError(
                f"session for {self.model_name!r} is broken "
                f"({self._broken}); discard it and create a fresh one")

    def run(self, inputs: Mapping[str, np.ndarray],
            timeout: Optional[float] = None) -> Dict[str, np.ndarray]:
        """Execute one feed dict and return the graph outputs.

        ``timeout`` applies to pool-backed sessions (defaults to the
        session's ``timeout_s``).
        """
        self._check_usable()
        tracer = self._tracer
        if tracer is not None:
            with tracer.span("session.run", cat="session",
                             args=self._span_args):
                return self._run_dispatch(inputs, timeout)
        return self._run_dispatch(inputs, timeout)

    def _run_dispatch(self, inputs, timeout):
        if self._plan is not None:
            return self._plan.run(inputs)
        if self._interp is not None:
            return self._interp.run(inputs)
        return self._pool.run(
            inputs, timeout=timeout if timeout is not None else self.timeout_s)

    def bind(self) -> IOBinding:
        """A fresh :class:`IOBinding` for this session."""
        self._check_usable()
        return IOBinding(self)

    def run_with_binding(self, binding: IOBinding) -> Dict[str, np.ndarray]:
        """Execute the bound feed; bound outputs are written in place.

        Returns the output dict; for bound names the returned arrays *are*
        the bound buffers.  On a warm ``"plan"`` session this loop makes
        zero plan allocations and zero graph-output allocations.  Bound
        vs unbound runs are bitwise-identical.
        """
        self._check_usable()
        tracer = self._tracer
        if tracer is not None:
            with tracer.span("session.run_with_binding", cat="session",
                             args=self._span_args):
                return self._run_with_binding(binding)
        return self._run_with_binding(binding)

    def _run_with_binding(self, binding: IOBinding) -> Dict[str, np.ndarray]:
        if binding._session is not self:
            raise ValueError("binding belongs to a different session")
        feed = binding._inputs
        missing = [name for name in self.input_names if name not in feed]
        if missing:
            raise ValueError(
                f"binding is missing graph inputs {missing}; bind_input() "
                "them first")
        bound = {name: buf for name, buf in binding._outputs.items()
                 if buf is not None}
        if self._plan is not None:
            result = self._plan.run(feed, out=bound or None)
        else:
            # an interp/pool run lands its outputs by copy, under the
            # plan's aliasing discipline
            result = self.run(feed)
            land_outputs(result, bound)
        # Materialize lazily-bound outputs into private buffers the next
        # bound run writes in place (always a copy — never adopt the run's
        # array, which may be a view of an input or an initializer).
        for name, buf in binding._outputs.items():
            if buf is None:
                owned = np.array(np.asarray(result[name]))
                binding._outputs[name] = owned
                result[name] = owned
        return result

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Session shape plus the underlying executor's counters."""
        stats: Dict = {"model": self.model_name, "executor": self.executor}
        if self._plan is not None:
            stats["plan"] = self._plan.stats()
        if self._pool is not None:
            stats["pool_clusters"] = self._pool.num_clusters
            stats["pool"] = self._pool.stats()
        if self._placement is not None:
            stats["placement"] = dict(self._placement)
        return stats

    def close(self) -> None:
        """Release the executor's resources (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for registry, collect in self._metrics_collectors:
            registry.unregister_collector(collect)
        self._metrics_collectors.clear()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def create_session(model_or_artifact, config=None, executor: str = "plan",
                   timeout_s: float = 300.0, *, tracer=None,
                   max_batch: int = 1, cores: Optional[int] = None) -> Session:
    """Create a :class:`Session` — the package's one execution front door.

    Parameters
    ----------
    model_or_artifact:
        An IR :class:`Model` (compiled here via ``ramiel_compile``), an
        already-compiled :class:`~repro.pipeline.RamielResult`, or a bare
        :class:`ExecutionPlan` (wrapped directly; ``"plan"`` only).
    config:
        Optional :class:`~repro.pipeline.PipelineConfig` used when
        compiling a :class:`Model`; ``generate_code`` is derived from the
        executor.  Ignored for precompiled artifacts.  A compile builds no
        plan and imports no module: creating a ``"plan"`` session builds the
        artifact's plan unless an earlier call did
        (:meth:`RamielResult.plan`), and a ``"pool"`` / ``"process"``
        session imports its placed module, in this process, before any
        worker starts.
    executor:
        One of :func:`known_executors`:

        * ``"plan"`` — the compile-once :class:`ExecutionPlan` hot path
          (default; IOBinding runs are allocation-free once warm),
        * ``"interp"`` — the :class:`GraphExecutor` reference interpreter
          behind the same interface (differential testing),
        * ``"pool"`` / ``"process"`` — the generated parallel module on
          warm threads / forked processes, one per placed cluster: the
          compiled clustering is folded onto ``min(clusters,
          available_cores())`` workers, or onto one when the simulator
          predicts the spread loses (:meth:`RamielResult.placement`).
          Each worker computes into its own slab, packed over its
          cluster's nodes (:class:`~repro.runtime.plan.ClusterSlabPlanner`).
          Forked workers compute with one BLAS thread whatever the
          caller's budget, so a ``"process"`` session's outputs are
          bitwise those of the plan run at one BLAS thread
          (:func:`repro.runtime.blas.pin_blas_threads`); at another budget
          a GEMM may round differently.  This process's own budget is
          left alone.
    timeout_s:
        Per-run timeout for pool-backed sessions.
    tracer:
        Optional :class:`~repro.observability.Tracer` attached before the
        session is returned.
    max_batch:
        The largest batch the caller will stack onto the compile-time
        shapes (the serving engine passes its ``max_batch_size``); sizes a
        ``"process"`` session's tensor slots.  Larger batches still run,
        through the pickled fallback.
    cores:
        The cores a ``"pool"`` / ``"process"`` session places onto
        (default :func:`available_cores`); ``cores=1`` is one worker
        running the whole model, the serving engine's lane replica.  An
        artifact compiled with ``generate_code=False`` generates the
        placed module here.
    """
    executor = validate_executor(executor)
    obj = model_or_artifact
    if isinstance(obj, ExecutionPlan):
        if executor != "plan":
            raise ValueError(
                "an ExecutionPlan artifact can only back a 'plan' session; "
                f"got executor {executor!r}")
        session = Session("plan", graph=obj.graph, model_name=obj.model_name,
                          plan=obj, timeout_s=timeout_s)
        if tracer is not None:
            session.set_tracer(tracer)
        return session

    if isinstance(obj, Model):
        import dataclasses

        from repro.pipeline import PipelineConfig, ramiel_compile

        pipeline_config = config if config is not None else PipelineConfig()
        pipeline_config = dataclasses.replace(
            pipeline_config, generate_code=executor in ("pool", "process"))
        result = ramiel_compile(obj, config=pipeline_config)
    elif hasattr(obj, "optimized_model"):  # a RamielResult, duck-typed to
        result = obj                       # avoid a circular pipeline import
    else:
        raise TypeError(
            "create_session expects a Model, RamielResult or ExecutionPlan, "
            f"got {type(obj).__name__}")

    optimized = result.optimized_model
    name = result.model.name
    if executor == "plan":
        session = Session("plan", graph=optimized.graph, model_name=name,
                          result=result, plan=result.plan(),
                          timeout_s=timeout_s)
    elif executor == "interp":
        session = Session("interp", graph=optimized.graph, model_name=name,
                          result=result, interp=GraphExecutor(optimized),
                          timeout_s=timeout_s)
    else:
        cores = available_cores() if cores is None else cores
        placed = result.placement(cores)
        planner = ClusterSlabPlanner(
            optimized.graph, [cluster.nodes for cluster in placed.clustering.clusters])
        start_pool = functools.partial(
            WarmExecutorPool, placed.module, optimized.graph.initializers,
            backend="thread" if executor == "pool" else "process",
            max_batch=max_batch, planner=planner)
        session = Session(executor, graph=optimized.graph, model_name=name,
                          result=result, start_pool=start_pool, timeout_s=timeout_s,
                          placement={
                              "clusters": result.clustering_merged.num_clusters,
                              "workers": placed.clustering.num_clusters,
                              "cores": cores,
                              "predicted_speedup": placed.predicted_speedup})
    if tracer is not None:
        session.set_tracer(tracer)
    return session
