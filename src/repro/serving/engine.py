"""The batched inference-serving engine on top of Ramiel-compiled schedules.

:class:`InferenceEngine` turns the one-shot ``ramiel_compile`` + ``execute``
pipeline into a serving loop with one request path and **one queue**:
``submit`` validates, admits the request into the weighted admission queue
(:mod:`repro.serving.qos`) and makes sure the artifact for its signature
has a *lane*; the lane compiles the artifact, then each of its
*replicas* — one thread per replica — loops take micro-batch → stack →
execute once → scatter → resolve.  A request is one record with one
future, it waits in exactly one place, and ``submit`` never blocks on a
compile.  The stages are configured by value (:class:`EngineConfig`),
never switched off:

1. **Compiled-artifact cache** — each (model fingerprint, pipeline config,
   input signature) triple is compiled exactly once, by its lane; the
   compiled execution state is reused across requests
   (:mod:`repro.serving.artifact_cache`).
2. **Session execution** — each replica holds a
   :class:`~repro.runtime.session.Session` (the unified execution
   surface).  Replica 0's batches run in process through a compile-once
   :class:`~repro.runtime.plan.ExecutionPlan` (the model's generated
   sequential source plus a memory planner that packs one slab per input
   signature, in-place ops sharing their input's range): no per-request ``GraphExecutor``
   construction, no per-node dispatch, and a zero-realloc steady state;
   fused batches are stacked into reused staging buffers instead of a
   fresh ``concatenate`` per batch and run through ``Session.run``, and
   every in-process batch runs under a watchdog so a stuck batch cannot
   pin the artifact's lane.
3. **Replicas** — splitting one request across cores loses on a CPU at
   batch 1, while whole requests side by side scale, so every lane
   serves one hot model on every core: it holds up to
   R = ``available_cores()`` replicas and a free replica takes its share
   of the backlog.  Replica 0 is the in-process plan session above; when
   a replica's take leaves requests queued and no replica is idle, the
   lane forks one more — a one-worker ``"process"`` session of
   ``result.placement(1)`` (K = 1), which computes with one BLAS thread
   (B = 1), so K·B·R <= cores.  A lane that may fork (R > 1) holds *the
   engine's own process's* BLAS at one thread too, from its compile —
   before the batch-fusion probe and the first answer — until it closes
   (:mod:`repro.runtime.blas`), so every response is **bitwise the plan at
   B = 1**: whatever the load, whichever replica computed it and whichever
   batch it rode in (a fused answer is bitwise the request's batch-1
   answer; the probe below checks it with ``np.array_equal``).  The
   replicas are each other's redundancy, and a batch runs once: a forked
   replica whose batch fails retires and hands the batch to replica 0,
   which answers it bitwise, and the next backlog may fork a fresh
   replica.  Replica 0 raises its own error; left broken, it drops the
   artifact and the next request recompiles.
   A one-core host and a host whose BLAS the engine cannot pin
   (``"unmanaged"``) keep R = 1.
4. **Dynamic micro-batching** — concurrent :meth:`InferenceEngine.submit`
   calls against the same artifact are fused along the batch axis
   (:mod:`repro.serving.batching`).  Closing is work-conserving: a free
   replica takes its share of what is queued for its artifact *now*, in
   weighted order — the backlog divided over the replicas that could
   take it, one more while the lane may still fork, up to
   ``max_batch_size``.  An idle system serves at batch 1 with no wait
   (a lone request goes to replica 0 whenever it is idle), a window that
   fits in one batch is split over the cores, and what arrives while
   every replica executes becomes the next batches.  One batch in flight
   per replica.
5. **Metrics** — throughput, latency percentiles, batch-size histogram and
   cache hit rate (:mod:`repro.serving.metrics`), rendered by
   :func:`repro.analysis.reports.render_serving_report`.

Example::

    from repro.models import build_model
    from repro.serving import InferenceEngine, example_inputs

    engine = InferenceEngine()
    model = build_model("squeezenet", variant="small")
    outputs = engine.infer(model, example_inputs(model))
    print(engine.metrics.snapshot())
    engine.shutdown()
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ir.model import Model
from repro.models.inputs import example_inputs, signature_inputs
from repro.pipeline import (
    PipelineConfig,
    RamielResult,
    config_fingerprint,
    model_fingerprint,
    ramiel_compile,
)
from repro.runtime import session as session_module
from repro.runtime.blas import (
    UNMANAGED,
    blas_threads,
    hold_one_blas_thread,
    release_one_blas_thread,
)
from repro.runtime.session import Session, create_session
from repro.serving.artifact_cache import ArtifactCache, ArtifactKey
from repro.serving.batching import (
    BATCH_AXIS,
    ServingError,
    scatter_outputs,
    stack_requests,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.qos import QoSConfig, QoSFrontend


class ShapeMismatchError(ServingError):
    """A request's inputs do not match the model's declared signature."""


@dataclasses.dataclass
class EngineConfig:
    """Configuration of one :class:`InferenceEngine`."""

    #: most requests a replica fuses into one execution; it never waits to
    #: reach it — it takes its share of what is queued when it is free
    max_batch_size: int = 8
    #: compiled artifacts kept warm before LRU eviction; size it above the
    #: concurrently-served working set (model x config x signature triples)
    cache_capacity: int = 16
    #: per-batch time bound: replica 0 runs its batches on a watchdog
    #: thread so a stuck batch cannot pin the lane forever, and a forked
    #: replica's batch whose worker stays silent past it fails.  A forked
    #: worker that *dies* fails its batch within the pool's fail grace
    #: instead.
    timeout_s: float = 300.0
    #: admission control (:class:`repro.serving.qos.QoSConfig`) — the one
    #: queue between submit and execute: weighted deadline-aware queueing,
    #: bounded-queue backpressure and per-tenant artifact-cache quotas.
    #: Every request is admitted through it; the default is one
    #: ``"default"`` tenant under the stock bounds (64 queued per tenant,
    #: 256 engine-wide).
    qos: QoSConfig = QoSConfig()
    #: optional deterministic :class:`~repro.resilience.FaultInjector`
    #: attached to the forked replicas' workers for chaos testing; replica
    #: 0's plan has no pool to inject into
    fault_injector: Optional[object] = None
    #: compilation settings applied to every model served by this engine
    pipeline: PipelineConfig = dataclasses.field(default_factory=PipelineConfig)


class _BatchWatchdog:
    """Runs in-process batches on a private thread with a deadline.

    A worker pool has its own per-batch timeout (a run that times out
    marks the pool broken).  This gives replica 0's in-process plan the
    same semantics: batches execute on the watchdog's
    worker thread, the lane waits with a timeout, and a batch that
    never returns marks the watchdog (and its session) broken instead of
    pinning the artifact's lane forever.  The wedged
    worker thread is daemonic and leaks until its run returns — exactly
    the warm pool's failure contract.
    """

    def __init__(self, label: str) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"serve-watchdog-{label}")
        self._broken: Optional[str] = None
        self.label = label

    @property
    def broken(self) -> bool:
        return self._broken is not None

    def run(self, fn, arg, timeout: float):
        if self._broken is not None:
            raise ServingError(
                f"executor for {self.label!r} is broken after an earlier "
                f"failure ({self._broken}); the artifact should have been "
                "invalidated")
        future = self._executor.submit(fn, arg)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            self._broken = f"batch timed out after {timeout}s"
            future.cancel()
            raise ServingError(
                f"batch execution for {self.label!r} timed out after "
                f"{timeout}s; the artifact is invalidated and the next "
                "request recompiles") from None

    def close(self) -> None:
        self._executor.shutdown(wait=False)


class _PinnedStacker:
    """Stacks micro-batches into reused staging buffers: a plain feed.

    Replaces the per-batch ``np.concatenate`` with copies into staging
    arrays the stacker keeps across batches: once the largest batch shape
    has been seen, batch assembly allocates nothing.  The returned feed
    maps each input name to a view of its staging array, ready for
    ``Session.run``: the requests were validated at ``submit`` against the
    model's declared inputs, which compiling keeps as the session's.
    Single-request batches pass through zero-copy.
    """

    def __init__(self, max_batch_size: int) -> None:
        self._max_batch = max(int(max_batch_size), 1)
        self._staging: Dict[str, np.ndarray] = {}

    @property
    def staging_buffers(self) -> List[np.ndarray]:
        """The staging arrays currently in use (for alias checks)."""
        return list(self._staging.values())

    def __call__(self, requests):
        if len(requests) == 1:
            return dict(requests[0].inputs)
        total = sum(r.batch_len for r in requests)
        feed: Dict[str, np.ndarray] = {}
        for name, first in requests[0].inputs.items():
            first = np.asarray(first)
            tail, dtype = first.shape[1:], first.dtype
            staging = self._staging.get(name)
            if (staging is None or staging.shape[1:] != tail
                    or staging.dtype != dtype or staging.shape[0] < total):
                staging = np.empty((max(total, self._max_batch),) + tail, dtype)
                self._staging[name] = staging
            offset = 0
            for request in requests:
                staging[offset:offset + request.batch_len] = request.inputs[name]
                offset += request.batch_len
            feed[name] = staging[:total]
        return feed


class Replica:
    """One session of an artifact's lane, and how a batch runs on it.

    Wraps the session in what every batch needs: a time bound (a watchdog
    thread for the in-process plan, the pool's own timeout for a forked
    replica).  A batch runs once; nothing is retried or repaired in place.
    Replica 0 is the plan session the artifact was compiled into.  A
    one-worker process replica the lane forks also gets replica 0's
    :meth:`execute` as its ``failover``: when a batch fails, the forked
    replica retires and replica 0 answers that batch.
    """

    def __init__(self, index: int, session: Session, config: EngineConfig,
                 label: str, failover: Optional[Callable] = None) -> None:
        self.index = index
        self.session = session
        self.label = label
        #: a forked replica's batch failed: its thread stops and closes it
        self.retired = False
        self._timeout_s = config.timeout_s
        self._failover = failover
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(("runs", "failovers"), 0)
        self.watchdog: Optional[_BatchWatchdog] = None
        self.stacker: Optional[_PinnedStacker] = None
        if session.pool is None:
            self.watchdog = _BatchWatchdog(label)
            self.stacker = _PinnedStacker(config.max_batch_size)
        #: request list -> the stacked feed :meth:`run_batch` accepts;
        #: replica 0 of a batchable in-process artifact switches to its
        #: pinned :attr:`stacker`
        self.stack: Callable = stack_requests

    def execute(self, stacked: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """One batch on the bare session, under its time bound."""
        if self.watchdog is None:
            return self.session.run(stacked, timeout=self._timeout_s)
        outputs = self.watchdog.run(self.session.run, stacked, self._timeout_s)
        # Outputs that alias the reused staging buffers would be
        # overwritten by the next batch; hand out private copies.
        staging = self.stacker.staging_buffers
        if staging:
            for name, array in list(outputs.items()):
                array = np.asarray(array)
                if any(np.may_share_memory(array, buf) for buf in staging):
                    outputs[name] = np.array(array)
        return outputs

    @property
    def broken(self) -> bool:
        """The session, its watchdog or its pool is unusable."""
        session = self.session
        return session.broken or (self.watchdog.broken if self.watchdog
                                  else session.pool.broken)

    def run_batch(self, stacked) -> Dict[str, np.ndarray]:
        """One stacked feed -> graph outputs, in one attempt.

        A forked replica whose batch fails retires (its session is marked
        broken; its thread stops and closes it) and answers the batch
        through replica 0; if replica 0 raises too, its error surfaces,
        chained from this replica's.  Replica 0 raises its own error.
        """
        self._count("runs")
        try:
            return self.execute(stacked)
        except BaseException as exc:
            if self._failover is None:
                # Only a broken session/watchdog means replica 0 itself is
                # unusable (the batch wedged it — the stuck run may hold
                # the plan lock forever): the lane drops the artifact, so
                # the next request recompiles.  A transient error leaves it.
                if self.broken:
                    self.session.mark_broken(
                        "batch dispatch left the executor broken")
                raise
            self.retired = True
            self.session.mark_broken(f"retired after a failed batch: {exc!r}")
            self._count("failovers")
            try:
                return self._failover(stacked)
            except BaseException as failover_exc:
                raise failover_exc from exc

    def _count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def stats(self) -> Dict[str, int]:
        """Batches run on this replica's session (``runs``) and
        ``failovers``: batches this replica handed to replica 0 when it
        retired."""
        with self._lock:
            return dict(self._counts)

    def blas_threads(self, coordinator):
        """B of this replica: the coordinator's budget for an in-process
        session, else the most any of its workers reported."""
        if self.session.pool is None:
            return coordinator
        reported = [row["blas_threads"]
                    for row in self.session.pool.stats()["workers"]]
        if UNMANAGED in reported or None in reported:
            return UNMANAGED
        return max(reported)

    def close(self) -> None:
        """Shut down the watchdog and the session."""
        if self.watchdog is not None:
            self.watchdog.close()
        self.session.close()


@dataclasses.dataclass
class CompiledArtifact:
    """One compilation and the replicas its lane runs batches on.

    Every replica is a :class:`~repro.runtime.session.Session` over the
    compiled result; requests never construct a fresh ``GraphExecutor``
    (or any other per-request execution state).  ``replicas[0]`` is the
    in-process plan session.
    """

    key: ArtifactKey
    result: RamielResult
    compile_time_s: float
    #: most requests a replica takes at once (1 when not :attr:`batchable`)
    max_batch: int
    #: replica 0 first; the lane appends one-worker process replicas
    replicas: List[Replica]
    #: R — the most replicas the lane may run: the host's cores where the
    #: engine can pin BLAS, 1 otherwise
    max_replicas: int = 1
    #: the cores the lane was sized on
    cores: int = 1
    #: the lane holds the engine's process at one BLAS thread until it
    #: closes (it may fork: R > 1 when compiled)
    blas_held: bool = False

    @property
    def model_name(self) -> str:
        """Name of the compiled model."""
        return self.result.model.name

    @property
    def batchable(self) -> bool:
        """Whether concurrent requests may be fused along the batch axis:
        every output row of a fused batch is bitwise its request's batch-1
        answer.  A model whose code folds the batch into another axis (a
        reshape ``(1, 64, 256) -> (64, 256)``) is served one at a time."""
        return self.max_batch > 1

    def close(self) -> None:
        """Close every replica (warm pools included)."""
        for replica in list(self.replicas):
            replica.close()


class _Lane:
    """One artifact's threads: compile it, then serve its micro-batches.

    The artifact cache's entry.  Constructing a lane compiles nothing — the
    lane thread does, so ``submit`` never waits on a compile and a key is
    compiled once however many first requests race.  Each replica then has
    one thread looping ``take_batch -> stack -> run_batch -> scatter ->
    complete``: a free replica pulls its share of what is queued for its
    artifact the moment it can execute it, without waiting for more, and
    nothing is queued outside the admission queue.  The share divides the
    backlog over every replica that could take it now — the idle ones,
    plus one more while the lane may still grow — up to ``max_batch``, so
    a window that fits in one batch still spreads over the cores; a lone
    request goes to replica 0 whenever it is idle.  The lane thread serves
    replica 0.  When a replica's take leaves requests queued and no replica
    is idle, the lane starts one more replica thread (up to
    ``max_replicas``), which forks its one-worker process session and then
    pulls like the others.  A forked replica whose batch fails
    retires on its own, once replica 0 has answered that batch; replica 0
    left broken drops the artifact.  A closed lane (evicted,
    invalidated, engine shutdown) answers the batches it holds and stops;
    whatever is still queued for its key is served by a replacement lane
    it starts on the way out.
    """

    def __init__(self, engine: "InferenceEngine", model: Model,
                 key: ArtifactKey, partition: Optional[str]) -> None:
        self.key = key
        self.label = f"{model.name}@{key.short()}"
        self._engine = engine
        self._model = model
        self._partition = partition
        self._artifact: Future = Future()
        self._closing = False
        #: guards the replica list and the replica threads
        self._lock = threading.Lock()
        self._replica_threads: List[threading.Thread] = []
        self._growing = False
        #: process replica ids; never reused within the lane
        self._replica_ids = itertools.count(1)
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"lane-{self.label}")
        self._thread.start()

    @property
    def ready(self) -> bool:
        """Compilation has ended (either way); only then may it be evicted."""
        return self._artifact.done()

    @property
    def artifact(self) -> Optional[CompiledArtifact]:
        """The artifact once compiled; None before, or if the compile failed."""
        compiled = self._artifact
        if compiled.done() and compiled.exception() is None:
            return compiled.result()
        return None

    def wait(self, timeout: Optional[float] = None) -> CompiledArtifact:
        """Block until compiled; the artifact, or the compile error raised.

        The one way to a lane's replicas — used by ``warmup`` and the
        tests.
        """
        return self._artifact.result(timeout=timeout)

    def close(self) -> None:
        """Stop after the batches in flight; never blocks (see :meth:`join`)."""
        self._closing = True
        self._engine.qos.wake()

    def join(self, timeout: float) -> None:
        """Wait for the lane thread (which waits for the replica threads) to
        end (engine shutdown only)."""
        self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        engine, qos = self._engine, self._engine.qos
        try:
            artifact = engine._compile(self._model, self.key)
        except BaseException as exc:  # noqa: BLE001 - fail this key's requests
            self._artifact.set_exception(exc)
            # drop the entry first: a request admitted from here on finds
            # no lane and starts a fresh one instead of being stranded
            engine._cache.invalidate(self.key, expected=self)
            qos.fail_queued(self.key, exc)
            return
        self._artifact.set_result(artifact)
        try:
            self._serve_replica(artifact, artifact.replicas[0])
        finally:
            with self._lock:
                self._closing = True  # no replica starts from here on
                others = list(self._replica_threads)
            qos.wake()
            for thread in others:
                thread.join()
            engine._close_artifact(artifact)
            # whatever ended the lane, its cache entry must not outlive it
            engine._cache.invalidate(self.key, expected=self)
        if not engine._closed and qos.has_queued(self.key):
            engine._lane_for(self._model, self.key, self._partition)

    def _serve_replica(self, artifact: CompiledArtifact, replica: Replica) -> None:
        qos = self._engine.qos

        def closing() -> bool:
            return self._closing or replica.retired

        def spare() -> int:
            return self._spare(artifact)

        while True:
            batch = qos.take_batch(self.key, artifact.max_batch, closing,
                                   primary=replica.index == 0, spare=spare)
            if batch is None:
                return
            with self._lock:
                self._maybe_grow(artifact)
            self._serve(artifact, replica, batch)

    def _spare(self, artifact: CompiledArtifact) -> int:
        """1 while the lane may start one more replica, else 0.

        Read under the frontend's lock by every take, so it takes no lock
        of its own: a stale answer only changes how one backlog splits.
        """
        return int(not self._closing and not self._growing
                   and len(artifact.replicas) < artifact.max_replicas)

    def _maybe_grow(self, artifact: CompiledArtifact) -> None:
        """Start one more replica if a take left requests queued with no
        replica idle (under the lane lock, so a closing lane joins what it
        starts)."""
        if not self._spare(artifact) or not self._engine.qos.backlogged(self.key):
            return
        self._growing = True
        index = next(self._replica_ids)
        thread = threading.Thread(target=self._run_replica,
                                  args=(artifact, index), daemon=True,
                                  name=f"lane-{self.label}/r{index}")
        self._replica_threads.append(thread)
        thread.start()

    def _run_replica(self, artifact: CompiledArtifact, index: int) -> None:
        """A process replica's thread: fork its session, then serve."""
        try:
            replica = self._engine._process_replica(artifact, index)
        except Exception:
            # The lane serves on the replicas it has, and a fork that
            # failed once is not retried for this artifact; the traceback
            # goes to the thread's excepthook.
            with self._lock:
                artifact.max_replicas = len(artifact.replicas)
                self._growing = False
            raise
        with self._lock:
            self._growing = False
            serving = not self._closing
            if serving:
                artifact.replicas.append(replica)
        try:
            if serving:
                self._serve_replica(artifact, replica)
        finally:
            if serving:
                with self._lock:
                    artifact.replicas.remove(replica)
            replica.close()

    def _serve(self, artifact: CompiledArtifact, replica: Replica,
               batch: List) -> None:
        engine = self._engine
        tracer = engine.tracer
        if not artifact.batchable and batch[0].batch_len > 1:
            self._respond(batch[0], exc=ServingError(
                f"model {self._model.name!r} was compiled non-batch-fusable "
                "(a stacked batch does not give each row its batch-1 answer); "
                "requests must carry a single sample, got batch length "
                f"{batch[0].batch_len}"))
            return
        engine.metrics.record_batch(len(batch))
        if tracer is not None:
            batch_args = {"size": str(len(batch)), "lane": self.label,
                          "replica": str(replica.index)}
            t_assemble = tracer.now()
        try:
            stacked = replica.stack(batch)
            if tracer is not None:
                t_execute = tracer.now()
                tracer.emit("batch.stack", "serving", t_assemble, t_execute,
                            args=batch_args)
            outputs = replica.run_batch(stacked)
            if tracer is not None:
                t_respond = tracer.now()
                tracer.emit("batch.execute", "serving", t_execute, t_respond,
                            args=batch_args)
            scattered = scatter_outputs(outputs, batch)
        except BaseException as exc:  # noqa: BLE001 - fail every co-batched request
            if replica.index == 0 and replica.session.broken:
                # the artifact itself is unusable: drop it so this key's
                # next request (or its queue, on the way out) recompiles
                engine._cache.invalidate(self.key, expected=self)
            for request in batch:
                self._respond(request, exc=exc)
            return
        for request, result in zip(batch, scattered):
            self._respond(request, result)
        if tracer is not None:
            tracer.emit("batch.respond", "serving", t_respond, tracer.now(),
                        args=batch_args)

    def _respond(self, request, outputs=None,
                 exc: Optional[BaseException] = None) -> None:
        """Record the request and resolve its one future."""
        engine = self._engine
        engine.metrics.record_completed(
            engine.qos.clock() - request.enqueue_t, ok=exc is None)
        tracer = engine.tracer
        if tracer is not None and request.span_id:
            tracer.emit_async("request", "request", request.span_id,
                              request.submit_ns, tracer.now(),
                              args={"failed": "true"} if exc else None)
        engine.qos.complete(request, outputs, exc)


class InferenceEngine:
    """Serves Ramiel-compiled models with artifact caching, micro-batching
    and one replica per core.

    The engine is thread-safe: any number of caller threads may ``submit``
    concurrently, which is precisely what fills the micro-batches.

    **It changes the caller's numpy while it serves.**  A BLAS thread
    count is process-global: while any lane that may fork replicas lives
    (from its compile to its eviction, invalidation or :meth:`shutdown`),
    the engine holds every loaded OpenBLAS copy of *this process* at one
    thread — the caller's own BLAS calls run on one thread too — and when
    the last such lane closes the count found before the first is put
    back.  A one-core host and a host whose BLAS cannot be pinned never
    pin anything.
    """

    def __init__(self, config: Optional[EngineConfig] = None, *,
                 registry=None, tracer=None) -> None:
        self.config = config or EngineConfig()
        # One MetricsRegistry per engine (or a caller-shared one): serving
        # counters live in it, and a pull collector publishes every cached
        # artifact's plan/arena/binding gauges — the single snapshot that
        # used to take three separate stats() APIs.
        self.metrics = ServingMetrics(registry=registry)
        self.registry = self.metrics.registry
        self.tracer = tracer
        self.registry.register_collector(self._collect_artifact_metrics)
        self._config_fp = config_fingerprint(self.config.pipeline)
        # Entries are lanes; one that is still compiling is never evicted.
        self._cache = ArtifactCache(
            capacity=self.config.cache_capacity,
            on_evict=self._on_evict,
            quota_for=self.config.qos.cache_quota_for,
            evictable=lambda lane: lane.ready)
        self._closed = False
        #: this process's BLAS threads, read on first need
        self._blas = None
        # Every request waits here and only here; the lanes pull from it.
        self.qos = QoSFrontend(self.config.qos, self.registry, tracer)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, model: Model, inputs: Mapping[str, np.ndarray], *,
               tenant: Optional[str] = None,
               deadline_s: Optional[float] = None) -> Future:
        """Enqueue one inference request; returns a future of its outputs.

        The request is validated against the model's declared input
        signature (:class:`ShapeMismatchError` on mismatch), admitted into
        the admission queue, and micro-batched with concurrent compatible
        requests by the lane of the compiled artifact for its signature.
        On first sight of a signature the lane is started here and
        compiles on its own thread — ``submit`` never waits for a compile.

        Admission control (:attr:`EngineConfig.qos`): ``tenant`` selects
        the weight/queue/deadline contract (the default tenant otherwise)
        and ``deadline_s`` overrides the tenant's per-request deadline
        budget.  Rejections (queue full, overload, expired budget) raise
        :class:`~repro.serving.qos.QoSError` subclasses *synchronously*.
        """
        if self._closed:
            raise ServingError("engine is shut down")
        tracer = self.tracer
        if tracer is not None:
            with tracer.span("request.submit", cat="serving",
                             args={"model": model.name}):
                return self._submit(model, inputs, tenant, deadline_s)[0]
        return self._submit(model, inputs, tenant, deadline_s)[0]

    def _submit(self, model, inputs, tenant=None,
                deadline_s=None) -> Tuple[Future, _Lane]:
        arrays, batch_len, signature = self._validate(model, inputs)
        self.metrics.record_submitted()
        key = self._key(model, signature)
        request = self.qos.admit(key, arrays, batch_len, tenant=tenant,
                                 deadline_s=deadline_s)
        return request.future, self._lane_for(model, key, request.tenant)

    def infer(self, model: Model, inputs: Mapping[str, np.ndarray],
              timeout: Optional[float] = None) -> Dict[str, np.ndarray]:
        """Synchronous :meth:`submit` + wait."""
        return self.submit(model, inputs).result(
            timeout=timeout if timeout is not None else self.config.timeout_s + 60.0)

    def warmup(self, model: Model,
               inputs: Optional[Mapping[str, np.ndarray]] = None) -> Dict:
        """Compile (or cache-hit) the artifact for a model and run one request.

        The warmup request takes the same admitted path as any other (it
        is a default-tenant request).  Returns a small summary dict; after
        warmup, the first real request pays neither compilation nor
        worker-pool startup.
        """
        if self._closed:
            raise ServingError("engine is shut down")
        feed = dict(inputs) if inputs is not None else example_inputs(model)
        start = time.perf_counter()
        future, lane = self._submit(model, feed)
        future.result(timeout=self.config.timeout_s + 60.0)
        return {
            "model": model.name,
            "warmup_time_s": round(time.perf_counter() - start, 4),
            "batchable": lane.wait().batchable,
            "cached_artifacts": self._cache.stats()["size"],
            "compiles": self.metrics.snapshot()["cache"]["compiles"],
        }

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for queued + in-flight requests to finish; True if empty.

        New submissions during a drain are rejected with
        :class:`~repro.serving.qos.EngineOverloaded`.
        """
        return self.qos.drain(timeout=timeout)

    def shutdown(self) -> None:
        """Stop every lane and close its session and worker pool."""
        self._closed = True
        # QoS first: stop admitting, let the lanes drain the queue and
        # fail what is left before the lanes disappear underneath it.
        self.qos.close()
        lanes = self._cache.values()
        self._cache.clear()
        for lane in lanes:
            lane.join(timeout=5.0)

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Cache / compilation
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """The artifact cache's size/hit/miss/eviction counters."""
        return self._cache.stats()

    def _key(self, model: Model, signature: Tuple) -> ArtifactKey:
        return ArtifactKey(model_fingerprint(model), self._config_fp, signature)

    def _lane_for(self, model: Model, key: ArtifactKey,
                  partition: Optional[str] = None) -> _Lane:
        """The lane serving ``key``; a miss starts one (it compiles itself)."""
        lane, hit = self._cache.get_or_create(
            key, lambda: _Lane(self, model, key, partition),
            partition=partition)
        self.metrics.record_cache(hit)
        return lane

    def _compile(self, model: Model, key: ArtifactKey) -> CompiledArtifact:
        start = time.perf_counter()
        # The plan executes the optimized model directly; the parallel
        # module is generated when the lane's first process replica
        # (placement(1) only) needs it.
        result = ramiel_compile(model, config=dataclasses.replace(
            self.config.pipeline, generate_code=False))
        # Run-level session spans and per-step plan spans nest inside the
        # lane's batch.execute span; forked replicas additionally ship
        # per-worker execute spans home for merged traces.
        session = create_session(result, executor="plan", tracer=self.tracer)
        label = f"{model.name}@{key.short()}"
        replica = Replica(0, session, self.config, label)
        # read through the module: the one seam placement and tests pin
        cores = session_module.available_cores()
        max_replicas = 1
        if cores > 1 and self._coordinator_blas() != UNMANAGED:
            max_replicas = cores
            # Every answer is the plan's at B = 1, the budget each forked
            # worker pins itself to: held before the probe and the first
            # answer, not from the first fork on.
            self._blas = hold_one_blas_thread()
        try:
            batchable = self._probe_batchable(replica.execute,
                                              key.input_signature)
            if replica.broken:
                # Replaced, not repaired: the wedged probe run may hold the
                # old plan's lock and its watchdog thread forever, so
                # replica 0 becomes a new Replica over a fresh plan with a
                # fresh watchdog thread.
                replica.watchdog.close()
                replica = Replica(0, session.recover(), self.config, label)
        except BaseException:
            replica.close()
            if max_replicas > 1:
                self._blas = release_one_blas_thread()
            raise
        if batchable:
            replica.stack = replica.stacker
        compile_time = time.perf_counter() - start
        self.metrics.record_compile(compile_time)
        return CompiledArtifact(
            key=key, result=result, compile_time_s=compile_time,
            max_batch=self.config.max_batch_size if batchable else 1,
            replicas=[replica], max_replicas=max_replicas, cores=cores,
            blas_held=max_replicas > 1)

    def _close_artifact(self, artifact: CompiledArtifact) -> None:
        """Close a lane's replicas and end its BLAS hold: once the last
        holding lane in the process closes, the count found before the
        first is back."""
        try:
            artifact.close()
        finally:
            if artifact.blas_held:
                self._blas = release_one_blas_thread()

    def _process_replica(self, artifact: CompiledArtifact,
                         index: int) -> Replica:
        """Fork one more replica of a lane: a one-worker process session
        of ``placement(1)``, computing at one BLAS thread like the lane's
        replica 0 (:meth:`_compile` holds it there)."""
        session = create_session(artifact.result, executor="process",
                                 timeout_s=self.config.timeout_s,
                                 tracer=self.tracer,
                                 max_batch=self.config.max_batch_size,
                                 cores=1)
        injector = self.config.fault_injector
        if injector is not None:
            session.pool.set_fault_injector(injector)
        return Replica(index, session, self.config,
                       f"{artifact.model_name}@{artifact.key.short()}/r{index}",
                       failover=artifact.replicas[0].execute)

    def _coordinator_blas(self):
        """This process's BLAS threads (read once; the engine's own pin
        updates it)."""
        if self._blas is None:
            self._blas = blas_threads()
        return self._blas

    def _probe_batchable(self, execute, signature: Tuple) -> bool:
        """Check whether the compiled artifact tolerates batch-axis fusion.

        Runs the artifact's own ``execute`` once on a single sample and once
        on a stacked batch of two and requires every output to carry the
        batch on axis 0 with the first row *bitwise* equal to the
        single-sample run: a fused answer must be the batch-1 answer, not
        one close to it.  ``optimize_model`` makes reshape targets follow
        the batch and 2-D products run one call per sample, so every zoo
        model passes.  Probe inputs are synthesized from the *request
        signature* the artifact is keyed by — the exact shapes this
        artifact will serve — not from the model's declared shapes, whose
        wildcard dims may differ.  A model that folds the batch into
        another axis fails the probe and is served one request at a time —
        still cached and warm, just not fused.  A failing probe run may
        leave the executor broken; the caller replaces it.
        """
        if self.config.max_batch_size <= 1:
            return False
        try:
            single = signature_inputs(signature, batch_size=1, seed=0)
            other = signature_inputs(signature, batch_size=1, seed=1)
            stacked = {name: np.concatenate([single[name], other[name]],
                                            axis=BATCH_AXIS)
                       for name in single}
            reference = execute(single)
            batched = execute(stacked)
        except Exception:  # noqa: BLE001 - any failure means "do not fuse"
            return False
        for name, ref in reference.items():
            ref = np.asarray(ref)
            out = np.asarray(batched[name])
            if out.ndim < 1 or out.shape[0] != 2 or out.shape[1:] != ref.shape[1:]:
                return False
            if not np.array_equal(out[:1], ref, equal_nan=True):
                return False
        return True

    def _on_evict(self, key: ArtifactKey, lane: _Lane) -> None:
        self.metrics.record_eviction()
        lane.close()

    def _collect_artifact_metrics(self, registry) -> None:
        """Publish per-artifact lane, plan and replica gauges into the registry.

        Runs as a pull collector before every registry snapshot/exposition,
        so one ``registry.snapshot()`` exposes the serving counters, every
        cached artifact's budget (cores, replicas R, workers per replica K,
        BLAS threads B), its plan allocations and slab bytes and its
        output-binding direct/copy writes, and each replica's pool and
        failover counters (labelled ``replica="<id>"``) together.
        """
        registry.gauge("serving_cached_artifacts",
                       "Compiled artifacts currently cached"
                       ).set(self._cache.stats()["size"])
        for lane in self._cache.values():
            artifact = lane.artifact
            if artifact is None or artifact.replicas[0].session.closed:
                continue
            labels = {"model": artifact.model_name,
                      "artifact": artifact.key.short()}
            replicas = list(artifact.replicas)
            for name, value, help in _lane_gauges(
                    artifact, replicas, self._coordinator_blas()):
                registry.gauge(name, help, labels=labels).set(value)
            for replica in replicas:
                if replica.session.closed:
                    continue
                replica_labels = dict(labels, replica=str(replica.index))
                for name, value, help in _replica_gauges(replica):
                    registry.gauge(name, help, labels=replica_labels).set(value)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self, model: Model, inputs: Mapping[str, np.ndarray]):
        """Check a request against the model's declared graph inputs.

        The leading (batch) dimension of every input is free; all other
        dimensions must match the declaration exactly (``None`` dims are
        wildcards).  Every input in one request must agree on its batch
        length.  Returns ``(arrays, batch_len, signature)`` where the
        signature is the cache-key component describing the request shape.
        """
        declared = {info.name: info for info in model.graph.inputs}
        unknown = sorted(set(inputs) - set(declared))
        if unknown:
            raise ShapeMismatchError(
                f"model {model.name!r} has no inputs named {unknown}; "
                f"expected {sorted(declared)}")
        missing = sorted(set(declared) - set(inputs))
        if missing:
            raise ShapeMismatchError(
                f"request for model {model.name!r} is missing inputs {missing}")

        arrays: Dict[str, np.ndarray] = {}
        batch_len: Optional[int] = None
        signature = []
        for name in sorted(declared):
            array = np.asarray(inputs[name])
            info = declared[name]
            shape = info.shape
            if shape is not None:
                if array.ndim != len(shape):
                    raise ShapeMismatchError(
                        f"input {name!r} of model {model.name!r}: expected "
                        f"{len(shape)} dimensions {tuple(shape)}, got shape "
                        f"{array.shape}")
                for axis, declared_dim in enumerate(shape):
                    if axis == 0 or declared_dim is None:
                        continue  # batch axis / wildcard
                    if array.shape[axis] != declared_dim:
                        raise ShapeMismatchError(
                            f"input {name!r} of model {model.name!r}: axis "
                            f"{axis} must be {declared_dim}, got {array.shape[axis]} "
                            f"(full shape {array.shape} vs declared {tuple(shape)})")
            this_len = int(array.shape[0]) if array.ndim >= 1 else 1
            if batch_len is None:
                batch_len = this_len
            elif this_len != batch_len:
                raise ShapeMismatchError(
                    f"request for model {model.name!r} mixes batch lengths: "
                    f"input {name!r} has {this_len}, earlier inputs {batch_len}")
            arrays[name] = array
            signature.append((name, str(array.dtype), tuple(array.shape[1:])))
        return arrays, batch_len or 1, tuple(signature)


def _lane_gauges(artifact: CompiledArtifact, replicas: List[Replica],
                 coordinator_blas):
    """``(name, value, help)`` of every gauge one cached artifact publishes
    once: its budget, then replica 0's plan memory."""
    blas = [replica.blas_threads(coordinator_blas) for replica in replicas]
    yield ("serving_lane_cores", artifact.cores,
           "Cores a cached artifact's lane was sized on")
    yield ("serving_lane_replicas", len(replicas),
           "Replicas (R) a cached artifact's lane runs batches on")
    yield ("serving_lane_workers", 1,
           "Workers per replica (K) of a cached artifact's lane")
    yield ("serving_lane_blas_threads",
           0 if UNMANAGED in blas else max(blas),
           "BLAS threads per worker (B) of a cached artifact's lane; "
           "0 = unmanaged")
    plan = replicas[0].session.stats()["plan"]
    arena, binding = plan["arena"], plan["output_binding"]
    yield ("serving_plan_arena_allocations", arena["allocations"],
           "Slab and scratch allocations of a cached artifact's plan")
    yield ("serving_plan_slab_bytes", arena["slab_bytes"],
           "Bytes of a cached plan's per-signature memory slabs")
    yield ("serving_plan_output_direct_writes", binding["direct_writes"],
           "Bound outputs written in place by a cached plan")
    yield ("serving_plan_output_copy_writes", binding["copy_writes"],
           "Bound outputs finalized by copy in a cached plan")


def _replica_gauges(replica: Replica):
    """``(name, value, help)`` of every gauge one replica publishes."""
    stats = replica.session.stats()
    pool = stats.get("pool")
    if pool is not None:
        yield ("serving_pool_clusters", stats["pool_clusters"],
               "Warm pool workers (placed clusters) of a cached artifact")
        yield ("serving_pool_runs_total", pool["runs"],
               "Completed pool runs of a cached artifact")
        yield ("serving_pool_failures_total", pool["failures"],
               "Failed pool runs of a cached artifact")
        yield ("serving_pool_execute_seconds_total",
               pool["execute_ns_total"] / 1e9,
               "Cumulative worker execute time of a cached artifact")
    yield ("serving_resilience_failovers_total", replica.stats()["failovers"],
           "Batches a retiring forked replica handed to replica 0")
