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

1. **Replicas** — splitting one request across cores loses on a CPU at
   batch 1, while whole requests side by side scale, so every lane
   serves one hot model on every core: it holds up to
   R = ``host_profile().cores`` replicas (:mod:`repro.runtime.host`; the
   cores the process may run on) and a free replica takes its share
   of the backlog.  Every replica is a forked one-worker ``"process"``
   :class:`~repro.runtime.session.Session` of ``result.placement(1)``
   (K = 1) that computes with one BLAS thread (B = 1), so K·B·R <= cores.
   The lane thread forks replica 0 and serves it; when a replica's take
   leaves requests queued and no replica is idle, the lane forks one
   more.  The engine's own process runs no model code and never changes
   its BLAS thread count, and every response is **bitwise the plan at
   B = 1**: whatever the load, whichever replica computed it and
   whichever batch it rode in (a fused answer is bitwise the request's
   batch-1 answer; the probe below checks it with ``np.array_equal``).
   A batch runs once, under the pool's time bound.  A failed batch
   fails its requests with a :class:`ServingError` naming the replica,
   and the replica retires; the lane thread forks a fresh replica before
   its next take, and the next backlog may fork a fresh extra one.  A
   one-core host and a host whose BLAS thread count cannot be read
   (``"unmanaged"``) keep R = 1.
2. **Compiled-artifact cache** — each (model fingerprint, pipeline config,
   input signature) triple is compiled exactly once, by its lane; a
   retired replica is replaced from the compiled artifact, without a
   recompile (:mod:`repro.serving.artifact_cache`).
3. **Dynamic micro-batching** — concurrent :meth:`InferenceEngine.submit`
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
4. **Metrics** — throughput, latency percentiles, batch-size histogram and
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
from concurrent.futures import Future
from typing import Dict, List, Mapping, Optional, Tuple

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
from repro.runtime.blas import UNMANAGED, blas_threads
from repro.runtime.host import host_profile
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
    #: per-batch time bound: a replica's batch whose worker stays silent
    #: past it fails.  A worker that *dies* fails its batch within the
    #: pool's fail grace instead.
    timeout_s: float = 300.0
    #: admission control (:class:`repro.serving.qos.QoSConfig`) — the one
    #: queue between submit and execute: weighted deadline-aware queueing,
    #: bounded-queue backpressure and per-tenant artifact-cache quotas.
    #: Every request is admitted through it; the default is one
    #: ``"default"`` tenant under the stock bounds (64 queued per tenant,
    #: 256 engine-wide).
    qos: QoSConfig = QoSConfig()
    #: optional deterministic :class:`~repro.resilience.FaultInjector`
    #: attached to every replica's worker for chaos testing
    fault_injector: Optional[object] = None
    #: compilation settings applied to every model served by this engine
    pipeline: PipelineConfig = dataclasses.field(default_factory=PipelineConfig)


class Replica:
    """One forked one-worker session of an artifact's lane.

    A batch runs once on it, under the pool's time bound; nothing is
    retried or repaired in place.  A failed batch retires the replica: its
    session is marked broken, the batch's requests get a
    :class:`ServingError` naming it, and its thread closes it.
    """

    def __init__(self, index: int, session: Session, label: str) -> None:
        self.index = index
        self.session = session
        self.label = label
        #: a batch failed: its thread stops serving and closes it
        self.retired = False
        self._lock = threading.Lock()
        self._runs = 0

    @property
    def broken(self) -> bool:
        """The session or its pool is unusable."""
        return self.session.broken or self.session.pool.broken

    def retire(self, reason: str) -> None:
        """Serve no more batches; the replica's thread closes it."""
        self.retired = True
        self.session.mark_broken(f"retired: {reason}")

    def run_batch(self, stacked) -> Dict[str, np.ndarray]:
        """One stacked feed -> graph outputs, in one attempt.

        A failure retires the replica and raises a :class:`ServingError`
        that names it, chained from the cause.
        """
        with self._lock:
            self._runs += 1
        try:
            return self.session.run(stacked)
        except Exception as exc:
            self.retire(f"a batch failed: {exc!r}")
            raise ServingError(
                f"replica {self.label!r} failed its batch and retired: "
                f"{exc}") from exc

    def stats(self) -> Dict[str, int]:
        """Batches run on this replica's session (``runs``)."""
        with self._lock:
            return {"runs": self._runs}

    def blas_threads(self):
        """B of this replica: the most any of its workers reported."""
        reported = [row["blas_threads"]
                    for row in self.session.pool.stats()["workers"]]
        if UNMANAGED in reported or None in reported:
            return UNMANAGED
        return max(reported)

    def close(self) -> None:
        """Close the session and its worker."""
        self.session.close()


@dataclasses.dataclass
class CompiledArtifact:
    """One compilation and the replicas its lane runs batches on.

    Every replica is a forked one-worker
    :class:`~repro.runtime.session.Session` over the compiled result;
    requests never construct any per-request execution state.
    ``replicas[0]`` is the lane thread's replica.
    """

    key: ArtifactKey
    result: RamielResult
    compile_time_s: float
    #: most requests a replica takes at once (1 when not :attr:`batchable`)
    max_batch: int
    #: the lane thread's replica first; the lane appends extra replicas
    replicas: List[Replica]
    #: R — the most replicas the lane may run: the host's cores where
    #: BLAS threads are managed, 1 otherwise
    max_replicas: int = 1
    #: the cores the lane was sized on
    cores: int = 1

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
    ``max_replicas``), which forks its replica and then pulls like the
    others.  A replica whose batch fails retires: an extra replica's
    thread closes it and stops, and the lane thread forks a fresh replica
    0 before its next take — if that fork fails, the artifact is dropped
    and what is queued for it fails.  A closed lane (evicted,
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
        #: ids of the replicas forked after replica 0; never reused
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
            self._fail(exc)
            return
        self._artifact.set_result(artifact)
        try:
            self._serve_lane(artifact)
        finally:
            with self._lock:
                self._closing = True  # no replica starts from here on
                others = list(self._replica_threads)
            qos.wake()
            for thread in others:
                thread.join()
            artifact.close()
            # whatever ended the lane, its cache entry must not outlive it
            engine._cache.invalidate(self.key, expected=self)
        if not engine._closed and qos.has_queued(self.key):
            engine._lane_for(self._model, self.key, self._partition)

    def _fail(self, exc: BaseException) -> None:
        """Drop the lane's entry, then fail what is queued for its key."""
        # drop the entry first: a request admitted from here on finds no
        # lane and starts a fresh one instead of being stranded
        self._engine._cache.invalidate(self.key, expected=self)
        self._engine.qos.fail_queued(self.key, exc)

    def _serve_lane(self, artifact: CompiledArtifact) -> None:
        """Serve replica 0 until the lane closes, forking a fresh one
        whenever it retires (the fusion probe may have retired it)."""
        replica = artifact.replicas[0]
        while True:
            self._serve_replica(artifact, replica, primary=True)
            if self._closing or self._engine._closed or not replica.retired:
                return
            try:
                fresh = self._engine._fork_replica(
                    artifact, next(self._replica_ids))
            except Exception as exc:  # noqa: BLE001 - as a compile error
                error = ServingError(
                    f"forking a replica of {self.label!r} failed: {exc}")
                error.__cause__ = exc
                self._fail(error)
                return
            with self._lock:
                artifact.replicas[artifact.replicas.index(replica)] = fresh
            replica.close()
            replica = fresh

    def _serve_replica(self, artifact: CompiledArtifact, replica: Replica,
                       primary: bool) -> None:
        qos = self._engine.qos

        def closing() -> bool:
            return self._closing or replica.retired

        def spare() -> int:
            return self._spare(artifact)

        while True:
            batch = qos.take_batch(self.key, artifact.max_batch, closing,
                                   primary=primary, spare=spare)
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
        """An extra replica's thread: fork it, then serve."""
        try:
            replica = self._engine._fork_replica(artifact, index)
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
                self._serve_replica(artifact, replica, primary=False)
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
            stacked = stack_requests(batch)
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
    concurrently, which is precisely what fills the micro-batches.  Models
    run only in forked replicas, so the caller's process keeps its own
    BLAS thread count.
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
        # The forked replicas run the placed module, generated when the
        # first of them (placement(1) only) needs it.
        result = ramiel_compile(model, config=dataclasses.replace(
            self.config.pipeline, generate_code=False))
        # the profile's cores only: a one-worker replica never probes
        cores = host_profile().cores
        artifact = CompiledArtifact(
            key=key, result=result, compile_time_s=0.0, max_batch=1,
            replicas=[], cores=cores,
            max_replicas=(cores if cores > 1 and blas_threads() != UNMANAGED
                          else 1))
        replica = self._fork_replica(artifact, 0)
        artifact.replicas.append(replica)
        try:
            if self._probe_batchable(replica.session.run, key.input_signature):
                artifact.max_batch = self.config.max_batch_size
            elif replica.broken:
                # the lane thread forks a fresh replica before its first take
                replica.retire("the batch-fusion probe left it broken")
        except BaseException:
            replica.close()
            raise
        artifact.compile_time_s = time.perf_counter() - start
        self.metrics.record_compile(artifact.compile_time_s)
        return artifact

    def _fork_replica(self, artifact: CompiledArtifact, index: int) -> Replica:
        """Fork one replica of a lane: a one-worker process session of
        ``placement(1)`` whose worker computes at one BLAS thread."""
        session = create_session(artifact.result, executor="process",
                                 timeout_s=self.config.timeout_s,
                                 tracer=self.tracer,
                                 max_batch=self.config.max_batch_size,
                                 cores=1)
        injector = self.config.fault_injector
        if injector is not None:
            session.pool.set_fault_injector(injector)
        return Replica(index, session,
                       f"{artifact.model_name}@{artifact.key.short()}/r{index}")

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
        leave the replica broken; the caller retires it.
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
        BLAS threads B), replica 0's slab allocations and bytes, and each
        replica's pool counters (labelled ``replica="<id>"``) together.
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
            for name, value, help in _lane_gauges(artifact, replicas):
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


def _lane_gauges(artifact: CompiledArtifact, replicas: List[Replica]):
    """``(name, value, help)`` of every gauge one cached artifact publishes
    once: its budget, then replica 0's worker memory."""
    blas = [replica.blas_threads() for replica in replicas]
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
    (worker,) = replicas[0].session.stats()["pool"]["workers"]
    yield ("serving_plan_arena_allocations", worker["allocations"],
           "Slab and scratch allocations of a cached artifact's replica 0")
    yield ("serving_plan_slab_bytes", worker["slab_bytes"],
           "Bytes of a cached artifact's replica 0 memory slabs")


def _replica_gauges(replica: Replica):
    """``(name, value, help)`` of every gauge one replica publishes."""
    stats = replica.session.stats()
    pool = stats["pool"]
    yield ("serving_pool_clusters", stats["pool_clusters"],
           "Warm pool workers (placed clusters) of a cached artifact")
    yield ("serving_pool_runs_total", pool["runs"],
           "Completed pool runs of a cached artifact")
    yield ("serving_pool_failures_total", pool["failures"],
           "Failed pool runs of a cached artifact")
    yield ("serving_pool_execute_seconds_total",
           pool["execute_ns_total"] / 1e9,
           "Cumulative worker execute time of a cached artifact")
