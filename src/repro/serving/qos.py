"""Multi-tenant quality of service for the serving engine.

Every :class:`~repro.serving.engine.InferenceEngine` request is admitted
through this module, and the admission queue is the *only* place a request
waits: each compiled artifact's lane pulls its micro-batches straight out
of it at the moment it can execute them.  The default :class:`QoSConfig` is
a single ``"default"`` tenant, for which weighted fair queueing degenerates
to first come, first batched under the stock bounds.  The moment many
tenants share one engine (the gateway's whole purpose) a single heavy
tenant could otherwise monopolize the lanes, flood the queue and evict
everyone else's warm artifacts.  The admission-control layer that makes
many models x many clients safe:

* **Tenant configuration** — :class:`TenantConfig` gives every tenant a
  scheduling *weight*, a bounded admission queue, an optional default
  per-request *deadline budget* and an optional *cache quota* (how many
  compiled artifacts it may keep resident; see the partition support in
  :class:`~repro.serving.artifact_cache.ArtifactCache`).
* **Weighted, deadline-aware admission** — :class:`AdmissionQueue`
  implements start-time fair queueing: each admitted request is stamped
  with a virtual finish time ``max(V, last_finish[tenant]) +
  cost/weight`` and a lane always takes the request *for its artifact*
  with the smallest stamp, so over any busy interval tenants receive
  service in proportion to their weights regardless of arrival order —
  up to the moment of execution, because nothing is queued anywhere else.
  Requests whose deadline has passed by the time they are taken are
  failed instead of wasting service on answers nobody is waiting for.
* **Backpressure** — both the per-tenant queues and the global queue are
  bounded.  An overflowing submit fails *synchronously* with
  :class:`TenantQueueFull` (HTTP 429) or :class:`EngineOverloaded`
  (HTTP 503), each carrying a ``retry_after_s`` hint derived from the
  observed dispatch rate, so the gateway can emit honest ``Retry-After``
  headers instead of letting latency grow without bound.
* **One batch in flight per taker, closed without a timer** — a lane's
  replica takes its next batch only after answering the previous one, and
  a free replica takes its share of what is queued for its artifact *now*:
  an idle system serves at batch 1 with no wait, a backlog is divided
  over every replica that could take it, and a burst against busy
  replicas accumulates here — where fairness and deadlines apply — into
  their next batches.  No concurrency cap and no batch-closing wait are
  needed.

:class:`QoSFrontend` ties it together for the engine and starts no thread:
``admit`` admits (or rejects) a validated request, ``take_batch`` hands a
lane its next micro-batch in weighted order, ``complete`` resolves a
request's one future, and everything is observable through ``qos_*``
metrics and ``qos.admit`` / ``qos.queue`` spans in the engine's tracer.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.batching import ServingError

__all__ = [
    "AdmissionQueue",
    "DeadlineExpired",
    "EngineOverloaded",
    "QoSConfig",
    "QoSError",
    "QoSFrontend",
    "TenantConfig",
    "TenantQueueFull",
    "UnknownTenant",
]


class QoSError(ServingError):
    """Base class for admission-control failures.

    ``http_status`` is the response code a gateway should map the error
    to; ``retry_after_s``, when set, becomes the ``Retry-After`` header.
    """

    http_status = 503
    retry_after_s: Optional[float] = None

    def __init__(self, message: str,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        if retry_after_s is not None:
            self.retry_after_s = retry_after_s


class TenantQueueFull(QoSError):
    """The tenant's own admission queue is at capacity (HTTP 429)."""

    http_status = 429


class EngineOverloaded(QoSError):
    """The engine-wide queue is full, or the engine is draining (HTTP 503)."""

    http_status = 503


class DeadlineExpired(QoSError):
    """The request's deadline budget ran out before dispatch (HTTP 504)."""

    http_status = 504
    retry_after_s = None


class UnknownTenant(QoSError):
    """Strict-tenancy mode rejected an unregistered tenant (HTTP 403)."""

    http_status = 403
    retry_after_s = None


@dataclasses.dataclass(frozen=True)
class TenantConfig:
    """One tenant's service contract.

    Parameters
    ----------
    name:
        Tenant identifier (matched against the request's tenant field /
        ``X-Tenant`` header).
    weight:
        Scheduling weight: over any busy interval a tenant receives
        service proportional to ``weight / sum(weights of backlogged
        tenants)``.
    max_queue:
        Bound on this tenant's admission queue; the overflowing request
        is rejected with :class:`TenantQueueFull` (HTTP 429) while every
        already-queued request keeps its slot.
    deadline_s:
        Default per-request deadline budget, measured from admission.
        ``None`` means no deadline unless the request carries one.
    cache_quota:
        Maximum compiled artifacts this tenant may keep resident in the
        engine's artifact cache.  When the tenant compiles one more, its
        *own* least-recently-used artifact is evicted — other tenants'
        warm artifacts are never the victim.  ``None`` leaves the tenant
        under the global LRU policy only.
    """

    name: str
    weight: float = 1.0
    max_queue: int = 64
    deadline_s: Optional[float] = None
    cache_quota: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be > 0")
        if self.max_queue < 1:
            raise ValueError(f"tenant {self.name!r}: max_queue must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"tenant {self.name!r}: deadline_s must be > 0")
        if self.cache_quota is not None and self.cache_quota < 1:
            raise ValueError(f"tenant {self.name!r}: cache_quota must be >= 1")


@dataclasses.dataclass(frozen=True)
class QoSConfig:
    """Engine-wide admission-control policy.

    Parameters
    ----------
    tenants:
        Pre-registered tenant contracts.  Unknown tenants are admitted
        under ``default_tenant``'s weight/queue/deadline (auto-registered
        on first sight) unless ``strict_tenants`` is set.
    default_tenant:
        Template for requests that name no tenant (or an unregistered
        one); its ``name`` is the tenant id unnamed requests are
        accounted under.
    max_queue_depth:
        Global bound across every tenant queue; overflow rejects with
        :class:`EngineOverloaded` (HTTP 503).
    strict_tenants:
        Reject requests from unregistered tenants with
        :class:`UnknownTenant` instead of admitting them under the
        default contract.
    """

    tenants: Tuple[TenantConfig, ...] = ()
    default_tenant: TenantConfig = TenantConfig("default")
    max_queue_depth: int = 256
    strict_tenants: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in QoS config: {names}")

    def tenant_config(self, name: Optional[str]) -> TenantConfig:
        """The contract for ``name`` (the default template when unknown)."""
        if name is None:
            return self.default_tenant
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        if self.strict_tenants:
            raise UnknownTenant(
                f"unknown tenant {name!r}; registered tenants: "
                f"{sorted(t.name for t in self.tenants)}")
        return dataclasses.replace(self.default_tenant, name=name)

    def cache_quota_for(self, name: Optional[str]) -> Optional[int]:
        """Cache-partition quota for a tenant (None = global LRU only)."""
        try:
            return self.tenant_config(name).cache_quota
        except UnknownTenant:
            return None


@dataclasses.dataclass(eq=False)  # identity: ``inputs`` holds arrays
class _QoSRequest:
    """One admitted request: the only record, holding the only future."""

    tenant: str
    #: the compiled artifact the request is for (any hashable; the engine
    #: passes an :class:`~repro.serving.artifact_cache.ArtifactKey`)
    key: object
    inputs: Dict[str, np.ndarray]
    batch_len: int
    future: Future
    #: absolute deadline on the ``clock`` timeline (None = no budget)
    deadline: Optional[float]
    enqueue_t: float
    #: start-time-fair-queueing stamps (assigned by the admission queue)
    vstart: float = 0.0
    vfinish: float = 0.0
    #: tracing state (populated only when the frontend has a tracer)
    submit_ns: int = 0
    span_id: int = 0


class _TenantState:
    """A tenant's FIFO queue plus its fair-queueing bookkeeping."""

    __slots__ = ("config", "queue", "last_vfinish", "admitted", "rejected",
                 "expired", "completed", "failed")

    def __init__(self, config: TenantConfig) -> None:
        self.config = config
        self.queue: "collections.deque[_QoSRequest]" = collections.deque()
        self.last_vfinish = 0.0
        self.admitted = 0
        self.rejected = 0
        self.expired = 0
        self.completed = 0
        self.failed = 0


class AdmissionQueue:
    """Weighted fair admission queue (start-time fair queueing).

    Each tenant owns a bounded FIFO; across tenants, dispatch order is
    by virtual finish time ``vf = max(V, last_finish[tenant]) +
    cost/weight`` where ``V`` is the queue's virtual clock (the
    ``vstart`` of the last dispatched request) and ``cost`` is the
    request's batch length.  Weighted shares therefore hold over any
    interval in which tenants stay backlogged, while an idle tenant's
    stamp catches up to ``V`` on its next arrival instead of letting it
    bank unused service.

    Not thread-safe by itself: :class:`QoSFrontend` serializes access
    under its own lock.  Kept separate so the scheduling discipline is
    unit-testable without an engine.
    """

    def __init__(self, config: QoSConfig) -> None:
        self._config = config
        self._tenants: Dict[str, _TenantState] = {}
        for tenant in config.tenants:
            self._tenants[tenant.name] = _TenantState(tenant)
        self._vtime = 0.0
        self._depth = 0
        #: artifact key -> requests queued for it (keys with none are absent)
        self._queued: Dict[object, int] = {}

    # ------------------------------------------------------------------
    def tenant_state(self, name: str) -> _TenantState:
        """The (auto-registered) state for tenant ``name``."""
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(self._config.tenant_config(name))
            self._tenants[name] = state
        return state

    @property
    def depth(self) -> int:
        """Requests currently queued across every tenant."""
        return self._depth

    def tenant_depths(self) -> Dict[str, int]:
        """Per-tenant queued-request counts."""
        return {name: len(state.queue)
                for name, state in self._tenants.items()}

    def queued(self, key) -> int:
        """Requests queued for artifact ``key``, across every tenant."""
        return self._queued.get(key, 0)

    def _unqueue(self, key) -> None:
        left = self._queued[key] - 1
        if left:
            self._queued[key] = left
        else:
            del self._queued[key]

    # ------------------------------------------------------------------
    def push(self, request: _QoSRequest) -> None:
        """Admit one request, stamping its virtual start/finish times.

        Raises :class:`TenantQueueFull` / :class:`EngineOverloaded` when
        the tenant or global bound is hit — the *new* request is the one
        rejected; queued requests always keep their slots.
        """
        state = self.tenant_state(request.tenant)
        if self._depth >= self._config.max_queue_depth:
            raise EngineOverloaded(
                f"admission queue is full ({self._depth} queued, global "
                f"bound {self._config.max_queue_depth})")
        if len(state.queue) >= state.config.max_queue:
            raise TenantQueueFull(
                f"tenant {request.tenant!r} has {len(state.queue)} queued "
                f"requests (bound {state.config.max_queue})")
        cost = max(float(request.batch_len), 1.0)
        request.vstart = max(self._vtime, state.last_vfinish)
        request.vfinish = request.vstart + cost / state.config.weight
        state.last_vfinish = request.vfinish
        state.queue.append(request)
        state.admitted += 1
        self._depth += 1
        self._queued[request.key] = self._queued.get(request.key, 0) + 1

    def pop(self, key) -> Optional[_QoSRequest]:
        """Take the request for artifact ``key`` with the smallest finish stamp.

        Other artifacts' entries are skipped, not blocked and not
        reordered: the scan takes each tenant's first entry *for that
        artifact* (within a tenant stamps are monotone, so that entry
        carries the tenant's smallest stamp for the key — per-artifact
        FIFO is preserved).  Returns ``None`` when nothing is queued for
        ``key``.
        """
        if key not in self._queued:
            return None
        best: Optional[_QoSRequest] = None
        best_state: Optional[_TenantState] = None
        best_idx = -1
        for state in self._tenants.values():
            for idx, head in enumerate(state.queue):
                if head.key != key:
                    continue
                if best is None or head.vfinish < best.vfinish:
                    best = head
                    best_state = state
                    best_idx = idx
                break  # first for this key = this tenant's smallest stamp
        if best is None or best_state is None:
            return None
        del best_state.queue[best_idx]
        self._depth -= 1
        self._unqueue(key)
        self._vtime = max(self._vtime, best.vstart)
        return best

    def has(self, key) -> bool:
        """Whether any request for artifact ``key`` is queued."""
        return key in self._queued

    def drain_all(self, key=None) -> List[_QoSRequest]:
        """Remove and return every queued request (for ``key``, if given)."""
        drained: List[_QoSRequest] = []
        for state in self._tenants.values():
            kept: "collections.deque[_QoSRequest]" = collections.deque()
            for request in state.queue:
                (drained if key is None or request.key == key
                 else kept).append(request)
            state.queue = kept
        self._depth -= len(drained)
        for request in drained:
            self._unqueue(request.key)
        return drained


class _Takers:
    """The takers of one artifact key: how many wait, and what they wait on.

    A taker — a lane's replica — is *idle* from the moment it enters
    :meth:`QoSFrontend.take_batch` until it takes a batch, and *busy* from
    then until it comes back: both changes happen under the frontend's
    lock, so a count read there is exact.  A record lives while its key
    has an idle taker: the last one to leave drops it, so the frontend
    holds one record per key a taker waits on, and a missing record
    reads as "no idle taker".
    """

    __slots__ = ("cond", "idle", "primary_idle")

    def __init__(self, lock) -> None:
        #: admits for the key wake only these takers
        self.cond = threading.Condition(lock)
        self.idle = 0
        #: idle takers that are their lane's replica 0
        self.primary_idle = 0

    def count(self, primary: bool, step: int) -> None:
        self.idle += step
        if primary:
            self.primary_idle += step

    def share(self, queued: int, max_batch: int, primary: bool,
              spare: Callable[[], int]) -> int:
        """How many of ``queued`` requests one idle taker takes now (0: wait).

        The backlog is divided over every taker that could take it now —
        the idle ones, the caller included, plus ``spare()`` takers its lane
        could still start — rounded up and capped at ``max_batch``.  A
        lone request is left to an idle primary (the replica its lane's
        own thread serves), so an idle lane keeps answering from one
        replica.
        """
        if not queued or (queued == 1 and not primary and self.primary_idle):
            return 0
        takers = self.idle + spare()
        return min(-(-queued // takers), max_batch)


def _settle(future: Future, outputs=None,
            exc: Optional[BaseException] = None) -> None:
    """Resolve ``future``; one its caller already cancelled is left alone."""
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(outputs)
    except InvalidStateError:
        pass


class QoSFrontend:
    """The engine-side owner of admission control and weighted dispatch.

    :meth:`admit` performs synchronous admission (reject fast, queue
    cheap); each artifact's lane calls :meth:`take_batch` to pull its next
    micro-batch in weighted order — deadlines are enforced there, at the
    moment of execution — and :meth:`complete` to resolve each request's
    future.  No thread lives here, and no future is ever resolved while
    the admission lock is held.  The engine calls :meth:`drain` and
    :meth:`close` from its own shutdown path.
    """

    #: fallback Retry-After hint before any dispatch-rate estimate exists
    _DEFAULT_RETRY_AFTER_S = 0.1

    def __init__(self, config: QoSConfig, registry, tracer=None, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        #: the timeline of ``enqueue_t`` and deadlines
        self.clock = clock
        self._tracer = tracer
        self._queue = AdmissionQueue(config)
        self._lock = threading.RLock()
        #: what :meth:`drain` waits on for the queue to empty
        self._cond = threading.Condition(self._lock)
        #: artifact key -> its takers, who wait on their own condition
        self._takers: Dict[object, _Takers] = {}
        #: requests taken by a lane and not yet resolved
        self._taken = 0
        self._draining = False
        self._closed = False
        #: EWMA of the per-request dispatch interval, feeding Retry-After hints
        self._dispatch_interval_ewma: Optional[float] = None
        self._last_dispatch_t: Optional[float] = None
        self._instruments(registry)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _instruments(self, registry) -> None:
        self._registry = registry
        self._admitted_counters: Dict[str, object] = {}
        self._rejected_counters: Dict[Tuple[str, str], object] = {}
        self._completed_counters: Dict[Tuple[str, str], object] = {}
        self._queue_wait_hist = registry.histogram(
            "qos_queue_wait_seconds",
            "Admission-to-dispatch wait of admitted requests")
        registry.register_collector(self._collect)

    def _collect(self, registry) -> None:
        with self._lock:
            depths = self._queue.tenant_depths()
            taken = self._taken
        for tenant, depth in depths.items():
            registry.gauge("qos_queue_depth",
                           "Requests waiting in a tenant's admission queue",
                           labels={"tenant": tenant}).set(depth)
        registry.gauge("qos_inflight_requests",
                       "Admitted requests taken by a lane and not yet resolved"
                       ).set(taken)
        registry.gauge("qos_draining",
                       "1 while the engine is draining (rejecting new work)"
                       ).set(1 if self._draining else 0)

    def _count_admitted(self, tenant: str) -> None:
        counter = self._admitted_counters.get(tenant)
        if counter is None:
            counter = self._registry.counter(
                "qos_admitted_total", "Requests admitted past QoS",
                labels={"tenant": tenant})
            self._admitted_counters[tenant] = counter
        counter.inc()

    def _count_rejected(self, tenant: str, reason: str) -> None:
        key = (tenant, reason)
        counter = self._rejected_counters.get(key)
        if counter is None:
            counter = self._registry.counter(
                "qos_rejected_total",
                "Requests rejected by QoS, by tenant and reason",
                labels={"tenant": tenant, "reason": reason})
            self._rejected_counters[key] = counter
        counter.inc()

    def _count_done(self, tenant: str, outcome: str) -> None:
        key = (tenant, outcome)
        counter = self._completed_counters.get(key)
        if counter is None:
            counter = self._registry.counter(
                "qos_requests_done_total",
                "Admitted requests resolved, by tenant and outcome",
                labels={"tenant": tenant, "outcome": outcome})
            self._completed_counters[key] = counter
        counter.inc()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, key, inputs: Dict[str, np.ndarray], batch_len: int, *,
              tenant: Optional[str] = None,
              deadline_s: Optional[float] = None) -> _QoSRequest:
        """Admit one validated request for artifact ``key``, or reject.

        Returns the queued request record (``.future`` is what the caller
        waits on).  Rejections (queue full, overloaded, expired budget,
        unknown tenant under strict tenancy) raise synchronously — nothing
        of a rejected request ever reaches the queue.
        """
        tracer = self._tracer
        t0 = tracer.now() if tracer is not None else 0
        try:
            request = self._admit(key, inputs, batch_len, tenant=tenant,
                                  deadline_s=deadline_s)
        except QoSError as exc:
            if tracer is not None:
                tracer.emit("qos.admit", "qos", t0, tracer.now(),
                            args={"tenant": tenant or "", "rejected":
                                  type(exc).__name__})
            raise
        if tracer is not None:
            tracer.emit("qos.admit", "qos", t0, tracer.now(),
                        args={"tenant": request.tenant})
        return request

    def _admit(self, key, inputs, batch_len, *, tenant: Optional[str],
               deadline_s: Optional[float]) -> _QoSRequest:
        config = self.config.tenant_config(tenant)  # raises UnknownTenant
        name = tenant if tenant is not None else config.name
        budget = deadline_s if deadline_s is not None else config.deadline_s
        now = self.clock()
        if budget is not None and budget <= 0:
            self._count_rejected(name, "expired")
            with self._lock:
                self._queue.tenant_state(name).expired += 1
            raise DeadlineExpired(
                f"request for tenant {name!r} arrived with an already-"
                f"expired deadline budget ({budget}s)")
        request = _QoSRequest(
            tenant=name, key=key, inputs=inputs, batch_len=batch_len,
            future=Future(),
            deadline=(now + budget) if budget is not None else None,
            enqueue_t=now)
        tracer = self._tracer
        if tracer is not None:
            # stamped before the push: a lane may take the request at once
            request.submit_ns = tracer.now()
            request.span_id = tracer.next_async_id()
        with self._lock:
            if self._draining or self._closed:
                self._count_rejected(name, "draining")
                raise EngineOverloaded(
                    "engine is draining; not accepting new requests",
                    retry_after_s=self._retry_after_locked())
            try:
                self._queue.push(request)
            except TenantQueueFull as exc:
                self._queue.tenant_state(name).rejected += 1
                self._count_rejected(name, "queue_full")
                exc.retry_after_s = self._retry_after_locked(
                    depth=len(self._queue.tenant_state(name).queue))
                raise
            except EngineOverloaded as exc:
                self._queue.tenant_state(name).rejected += 1
                self._count_rejected(name, "overloaded")
                exc.retry_after_s = self._retry_after_locked(
                    depth=self._queue.depth)
                raise
            takers = self._takers.get(key)
            if takers is not None:
                # every one: an extra replica passes a lone request over
                # to an idle replica 0, which must be awake to take it
                takers.cond.notify_all()
        self._count_admitted(name)
        return request

    def _retry_after_locked(self, depth: int = 1) -> float:
        """Honest Retry-After hint: queued work over observed dispatch rate."""
        interval = self._dispatch_interval_ewma
        if interval is None:
            return self._DEFAULT_RETRY_AFTER_S
        return round(max(self._DEFAULT_RETRY_AFTER_S,
                         min(depth * interval, 30.0)), 3)

    # ------------------------------------------------------------------
    # Dispatch (called by the artifacts' lanes)
    # ------------------------------------------------------------------
    def take_batch(self, key, max_batch: int,
                   closing: Callable[[], bool] = lambda: False, *,
                   primary: bool = True,
                   spare: Callable[[], int] = lambda: 0
                   ) -> Optional[List[_QoSRequest]]:
        """The next micro-batch for artifact ``key``, in weighted order.

        Work-conserving: blocks (untimed) until a live request for the key
        is queued, then returns the caller's *share* of what is queued now
        — never waiting for co-travellers.  The share divides the backlog
        over every taker of the key that could take it now: the idle ones,
        the caller included, plus ``spare()`` more its lane could still
        start; rounded up, capped at ``max_batch``.  A lone taker with no
        spare takes everything queued, up to ``max_batch``: on an idle
        system that is a batch of one with no wait, and while it executes,
        arrivals accumulate and leave together as its next batch.  A taker
        that is not ``primary`` leaves a lone request to an idle primary
        taker of the key.  ``spare`` is called under the frontend's lock
        and must not block.

        Requests whose deadline has passed when they are popped are failed
        with :class:`DeadlineExpired` instead of joining the batch.  Returns
        ``None`` — the caller should stop — once the frontend is closed or
        ``closing()`` holds; a batch that was returned must be answered
        either way.  A caller whose ``closing()`` flips must call
        :meth:`wake`.
        """
        with self._lock:
            takers = self._takers_of(key)
            takers.count(primary, 1)
        idle = True
        try:
            while True:
                batch: List[_QoSRequest] = []
                expired: List[_QoSRequest] = []
                with self._lock:
                    if self._closed or closing():
                        return None
                    share = takers.share(self._queue.queued(key), max_batch,
                                         primary, spare)
                    now = self.clock()
                    while len(batch) < share:
                        request = self._queue.pop(key)
                        if request is None:
                            break
                        (batch if self._pop_is_live_locked(request, now)
                         else expired).append(request)
                    if batch:
                        self._leave_locked(key, takers, primary)  # busy
                        idle = False
                        self._observe_take_locked(now, len(batch))
                    elif not expired:
                        takers.cond.wait()  # until an admit for the key or a wake
                for request in expired:  # futures resolve outside the lock
                    self._count_rejected(request.tenant, "expired")
                    self._resolve(request, exc=DeadlineExpired(
                        f"deadline budget ran out after "
                        f"{self.clock() - request.enqueue_t:.3f}s in the "
                        f"admission queue (tenant {request.tenant!r})"))
                if batch:
                    return batch
        finally:
            if idle:
                with self._lock:
                    self._leave_locked(key, takers, primary)

    def _leave_locked(self, key, takers: _Takers, primary: bool) -> None:
        """One taker of ``key`` stops being idle; the last drops the record.

        Every taker holding ``takers`` is counted idle until it leaves, so
        no waiter is left on a dropped record's condition.
        """
        takers.count(primary, -1)
        if not takers.idle:
            del self._takers[key]

    def _takers_of(self, key) -> _Takers:
        """The takers of ``key`` (created on first use; lock held)."""
        takers = self._takers.get(key)
        if takers is None:
            takers = self._takers[key] = _Takers(self._lock)
        return takers

    def _observe_take_locked(self, now: float, taken: int) -> None:
        """Feed the dispatch-interval EWMA one sample per take.

        The sample is the time since the previous take spread over the
        requests of this one — per request, so ``depth * interval`` stays
        an honest drain time whatever the batch size.
        """
        if self._last_dispatch_t is not None:
            sample = (now - self._last_dispatch_t) / taken
            ewma = self._dispatch_interval_ewma
            self._dispatch_interval_ewma = (
                sample if ewma is None else 0.8 * ewma + 0.2 * sample)
        self._last_dispatch_t = now

    def _pop_is_live_locked(self, request: _QoSRequest, now: float) -> bool:
        """Account one popped request; False if its deadline has passed."""
        self._taken += 1
        self._queue_wait_hist.observe(now - request.enqueue_t)
        tracer = self._tracer
        if tracer is not None and request.span_id:
            tracer.emit_async("qos.queue", "qos", request.span_id,
                              request.submit_ns, tracer.now(),
                              args={"tenant": request.tenant})
        if request.deadline is not None and now >= request.deadline:
            self._queue.tenant_state(request.tenant).expired += 1
            return False
        return True

    def complete(self, request: _QoSRequest, outputs=None,
                 exc: Optional[BaseException] = None) -> None:
        """Resolve a taken request's future (``exc`` = it failed)."""
        with self._lock:
            state = self._queue.tenant_state(request.tenant)
            if exc is not None:
                state.failed += 1
            else:
                state.completed += 1
        self._count_done(request.tenant, "failed" if exc is not None else "ok")
        self._resolve(request, outputs, exc)

    def _resolve(self, request: _QoSRequest, outputs=None,
                 exc: Optional[BaseException] = None) -> None:
        _settle(request.future, outputs, exc)
        with self._lock:
            self._taken -= 1
            if self._draining:  # only drain() waits for completions
                self._wake_all_locked()

    def fail_queued(self, key, exc: BaseException) -> None:
        """Fail every request still queued for artifact ``key`` with ``exc``."""
        with self._lock:
            requests = self._queue.drain_all(key)
            for request in requests:
                self._queue.tenant_state(request.tenant).failed += 1
            self._wake_all_locked()
        for request in requests:
            self._count_done(request.tenant, "failed")
            _settle(request.future, exc=exc)

    def has_queued(self, key) -> bool:
        """Whether any admitted request still waits for artifact ``key``."""
        with self._lock:
            return self._queue.has(key)

    def backlogged(self, key) -> bool:
        """Requests for artifact ``key`` are queued and none of its takers
        is idle: the condition a lane adds a replica on."""
        with self._lock:
            takers = self._takers.get(key)
            return (self._queue.has(key)
                    and (takers is None or takers.idle == 0))

    def wake(self) -> None:
        """Re-evaluate every blocked :meth:`take_batch` (a lane is closing)."""
        with self._lock:
            self._wake_all_locked()

    def _wake_all_locked(self) -> None:
        self._cond.notify_all()
        for takers in self._takers.values():
            takers.cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once :meth:`drain` (or :meth:`close`) has begun."""
        return self._draining

    def begin_drain(self) -> None:
        """Start rejecting new submissions without waiting for the queue."""
        with self._lock:
            self._draining = True
            self._wake_all_locked()

    def drain(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop admitting, let queued + taken requests finish.

        New submissions are rejected with :class:`EngineOverloaded`
        immediately; every already-admitted request runs to completion.
        Returns ``True`` once nothing is queued and nothing taken is
        unresolved, ``False`` on timeout (work may still be running).
        """
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        with self._lock:
            self._draining = True
            self._wake_all_locked()
            while self._queue.depth > 0 or self._taken > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)
        return True

    def close(self, drain_timeout: float = 5.0) -> None:
        """Drain briefly, fail whatever is still queued, release the lanes."""
        self.drain(timeout=drain_timeout)
        with self._lock:
            self._closed = True
            leftovers = self._queue.drain_all()
            self._wake_all_locked()
        for request in leftovers:
            _settle(request.future, exc=EngineOverloaded(
                "engine shut down before the request was dispatched"))
        self._registry.unregister_collector(self._collect)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict]:
        """Per-tenant admission counters and queue depths."""
        with self._lock:
            tenants = {
                name: {
                    "weight": state.config.weight,
                    "queued": len(state.queue),
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                    "expired": state.expired,
                    "completed": state.completed,
                    "failed": state.failed,
                }
                for name, state in self._queue._tenants.items()
            }
            return {
                "tenants": tenants,
                "depth": self._queue.depth,
                "inflight": self._taken,
                "draining": self._draining,
            }
