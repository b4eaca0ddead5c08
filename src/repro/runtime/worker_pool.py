"""Warm, reusable executor pools for Ramiel-generated parallel modules.

:class:`WarmExecutorPool` is the one multi-worker runtime: it keeps one
long-lived worker per cluster function of the module it is given and feeds
it jobs through per-worker control queues, so repeated executions of the
same module only pay for the actual operator work plus the hand-offs.  A
session hands it the module of a *placement* — one worker per placed
cluster, at most one per core (:meth:`repro.pipeline.RamielResult.placement`);
the pool itself never looks at the machine.  Every run of generated
parallel code goes through it — a session's warm pool or
:meth:`repro.pipeline.RamielResult.run_parallel`'s pool used once — so the
worker protocol, the watchdog and the reap path exist exactly once.

Two backends are supported:

* ``"thread"`` — one persistent thread per placed cluster.  numpy releases
  the GIL inside BLAS so clusters still overlap; fresh thread channels are
  created per run (they are cheap) and arrays are handed over by reference.
* ``"process"`` — one persistent forked process per placed cluster (the
  paper's runtime, minus the per-call fork).  The module, the weights and a
  :class:`~repro.runtime.channels.TensorPlane` are inherited at fork: every
  cross-cluster value, graph input and graph output has a slot in one
  anonymous shared mapping, sized from the module's ``CHANNEL_SPECS`` times
  the batch the caller may stack (``max_batch``).  The coordinator writes
  the feed into the input slots once, workers hand values over with one
  copy and a semaphore post, and graph outputs are copied out of the output
  slots — the job/done control messages (ticket, trace context, fault
  directive, error text, telemetry delta) travel :class:`ControlPipe`\\ s
  without a feeder thread and carry no tensors.  Each worker owns its job
  pipe and its done pipe (one writer each), so a worker killed at any
  moment can tear only its own pipes, and a respawn replaces them.  A
  payload that does not fit its slot is pickled to a spill file instead
  and counted in ``stats()["channels"]["overflow_puts"]``.  Requires the
  ``fork`` start method.

**Memory.**  A session's pool carries a
:class:`~repro.runtime.plan.ClusterSlabPlanner`: the coordinator sweeps
shapes once per input signature, packs one slab per cluster over the
cluster's sub-order and ships each worker its layout — ``(offset, shape,
dtype)`` per destination — with the signature's first job.  Each worker
(thread or process) builds its own slab from it, keeps its own
:class:`~repro.runtime.tensor_utils.Workspace`, and calls its cluster
function with that destination table: once warm, a worker's planned
intermediates allocate nothing (``stats()["workers"][i]["allocations"]``
and ``["slab_bytes"]``).  Values another cluster reads and graph outputs
never get a range, because a thread channel hands over the producer's
very array.  A pool without a planner runs the cluster functions
standalone: every intermediate allocated.

**Liveness.**  The pool watches its own workers where it already waits.
One check proves a worker is in its job loop: a ping round trip, which
every new worker passes before the pool uses it (at construction and at
every respawn, bounded by 60 s) and which :meth:`heal` sends to find
stranded ones.  :meth:`run` respawns any worker whose thread or process
has died before it dispatches (counted in ``stats()["respawns"]``, a
``pool.respawn`` span under a tracer), and the result collector checks
the pending workers' liveness whenever a poll comes back empty, so a
worker that dies mid-run fails the run within ``fail_grace_s`` rather than
at the run's timeout.  A worker that stays silent past the run's
``timeout`` is wedged.

A run that times out or raises may leave workers blocked on a hand-off that
will never arrive, so the pool marks itself *broken* and refuses further
work.  :meth:`heal` is the one repair, in place and much cheaper than
recompiling: it respawns every worker that is dead or does not answer a
ping, and zeroes the plane's semaphores; every slot write is stamped with
its run ticket, so a value stranded by the failed run can never be
mistaken for the next run's.  A heal whose respawn fails its ping leaves
the pool broken.

**Observability.**  With a tracer attached (constructor ``tracer=`` or
:meth:`set_tracer`), every dispatched job carries a
:class:`~repro.observability.context.TraceContext`; each worker runs its
own thread/process-local :class:`~repro.observability.Tracer`, records its
``worker.execute`` spans against its **real pid/tid**, and ships the
completed buffer back with the job result.  The pool accumulates per-worker
:class:`~repro.observability.merge.WorkerTraceBuffer`\\ s (bounded, with
per-worker drop accounting) that
:func:`repro.observability.merge.merge_traces` merges into one
multi-process Chrome trace.  Workers stamp spans with the same
``perf_counter_ns`` the coordinator reads (a thread shares it; a forked
process inherits ``CLOCK_MONOTONIC``), so the merge shifts no lane.
Untraced dispatch stays on the fast path: the job tuple carries ``None``
and the worker pays one ``is None`` check (gated at paired-ratio parity
in ``benchmarks/test_observability_overhead.py``).

Worker **metrics** (dispatch/execute/queue-wait timings, channel hand-off
bytes and nanoseconds, occupancy, respawns) accumulate in ``stats()`` and
publish into a shared ``MetricsRegistry`` via :meth:`publish_metrics`.
Slot channels always account their hand-offs (process workers ship a
per-job delta home); thread channels are wrapped for accounting while a
tracer is attached.

:meth:`set_fault_injector` ships deterministic fault directives to the
workers for chaos testing (``None`` directives cost one ``is not None``
check per job).  Worker failures ship their **remote traceback text**
home, so a cross-process exception reads like a local one.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import select
import struct
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.observability.context import TraceContext
from repro.observability.merge import WorkerTraceBuffer
from repro.observability.trace import Tracer
from repro.resilience.faults import apply_worker_fault
from repro.runtime.channels import (
    ChannelTelemetry,
    ParallelExecutionError,
    TensorPlane,
    instrument_channels,
    make_process_channels,
    make_thread_channels,
)
from repro.runtime.tensor_utils import Workspace

#: sentinel ticket of the liveness pings (a reply proves the worker is in
#: its job loop): every new worker's startup check and :meth:`heal`'s probe
_PING = "__ping__"

#: how long a new worker may take to answer its startup ping
_STARTUP_TIMEOUT_S = 60.0

#: the largest pickled message a pipe write delivers whole (``PIPE_BUF``
#: less the connection's 4-byte length header)
_ATOMIC_MESSAGE_BYTES = select.PIPE_BUF - 4

#: per-worker local tracer capacity; one run's spans are drained after
#: every job, so this only bounds a single job's recording
_WORKER_TRACER_CAPACITY = 4096

#: per-worker accumulation cap in the coordinator; oldest spans are evicted
#: (and counted as drops) once a worker's lane exceeds this
_WORKER_BUFFER_CAPACITY = 16384


class ControlPipe:
    """A one-way message pipe with a queue's ``put`` / ``get(timeout)``.

    Unlike ``multiprocessing.Queue`` there is no feeder thread: ``put``
    pickles and writes in the caller, so the message is in the pipe when it
    returns.  One reader, one writing process: a job pipe is written only
    by the coordinator's threads (``run``, ``heal`` and ``close``, which
    serialize on a ``threading.Lock``), a done pipe only by its worker, so
    no lock is shared with another process.  With ``blocking=False`` (job
    pipes) a ``put`` into a pipe nobody drains raises ``queue.Full``
    instead of blocking the coordinator.  That needs the message written
    atomically, i.e. within ``PIPE_BUF``; the rare larger one (a job
    carrying a worker's slab layout, on its signature's first run) is
    written piecewise as the pipe drains, and raises ``queue.Full`` once
    ``timeout`` passes — a message torn that way leaves the pipe unusable,
    which is why the caller then marks its pool broken.
    """

    def __init__(self, ctx, blocking: bool = True) -> None:
        self.reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = threading.Lock()
        self._blocking = blocking
        if not blocking:
            os.set_blocking(self._writer.fileno(), False)

    def close_writer(self) -> None:
        """Drop this process's write end (the coordinator's copy of a done
        pipe, once its worker has forked): a dead worker then reads as
        end-of-file instead of a message that never completes."""
        self._writer.close()

    def put(self, item, timeout: Optional[float] = None) -> None:
        data = ForkingPickler.dumps(item)
        with self._lock:
            if self._blocking or len(data) <= _ATOMIC_MESSAGE_BYTES:
                try:
                    self._writer.send_bytes(data)
                except BlockingIOError:
                    raise queue.Full from None
                return
            # The connection's own framing: a 4-byte big-endian length.
            pending = memoryview(struct.pack("!i", len(data)) + data)
            fd = self._writer.fileno()
            deadline = None if timeout is None else time.monotonic() + timeout
            while pending:
                wait = None if deadline is None else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    raise queue.Full
                if select.select([], [fd], [], wait)[1]:
                    try:
                        pending = pending[os.write(fd, pending):]
                    except BlockingIOError:
                        pass

    def get(self, timeout: Optional[float] = None):
        if not self.reader.poll(timeout):
            raise queue.Empty
        return self.reader.recv()


def remote_error_text(exc: BaseException) -> str:
    """Serialize a worker-side failure as repr **plus** its traceback text.

    Exceptions cannot cross the process boundary with their traceback
    objects attached, so workers ship this string instead of a bare
    ``repr(exc)`` — the coordinator's :class:`ParallelExecutionError`
    message then points at the worker-side frame that actually raised,
    not just the exception type.
    """
    return "%r\nRemote traceback:\n%s" % (exc, traceback.format_exc())


def _reap(processes, join_timeout: float = 1.0) -> None:
    """Terminate, join and close every process; never raises.

    A failed or timed-out run must not leak live children (they would hold
    the inherited weights and tensor plane until interpreter exit).
    """
    for p in processes:
        try:
            if p.is_alive():
                p.terminate()
        except Exception:  # noqa: BLE001 - already reaped
            pass
    for p in processes:
        try:
            p.join(timeout=join_timeout)
            if p.is_alive():  # terminate lost the race: escalate
                p.kill()
                p.join(timeout=join_timeout)
            p.close()
        except Exception:  # noqa: BLE001 - already reaped / still running
            pass


def _drain_worker_tracer(tracer: Tracer, ctx: TraceContext,
                         queue_wait_ns: int) -> Dict:
    """Package a worker-local tracer's buffer for the trip home."""
    snapshot = tracer.export()
    tracer.clear()
    spans = [(e.name, e.cat, e.start_ns, e.dur_ns,
              dict(e.args) if e.args else None)
             for e in snapshot["events"]]
    return {
        "spans": spans,
        "dropped": snapshot["dropped"],
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "trace_id": ctx.trace_id,
        "queue_wait_ns": queue_wait_ns,
    }


class _WorkerMemory:
    """One worker's own memory: a scratch workspace and, per input
    signature, a slab and the destination table of views into it.

    Built from the :class:`~repro.runtime.plan.Destinations` layouts the
    coordinator ships (``(offset, shape, dtype)`` per destination, once per
    signature), never shared with another worker — no slab-backed value
    ever leaves its worker.
    """

    def __init__(self, num_slots: int) -> None:
        self.num_slots = num_slots
        self.workspace = Workspace()
        self.tables: Dict[int, List[Optional[np.ndarray]]] = {}
        self.slabs: List[np.ndarray] = []
        #: the ``(allocations, slab bytes)`` last reported home
        self.reported: Optional[Tuple[int, int]] = None

    def table(self, key: int, layout) -> List[Optional[np.ndarray]]:
        """The destination table of signature ``key`` (built from
        ``layout`` when it is shipped, i.e. on its first run here)."""
        if layout is not None:
            self.tables[key], slab = layout.table(self.num_slots)
            self.slabs.append(slab)
        return self.tables[key]

    def poison(self) -> None:
        """NaN-fill every slab and the scratch workspace (chaos testing)."""
        for slab in self.slabs:
            slab.fill(0xFF)
        self.workspace.poison()

    def changed(self) -> Optional[Tuple[int, int]]:
        """``(allocations, slab bytes)`` when it differs from what was last
        reported, else None."""
        current = (len(self.slabs) + self.workspace.allocations,
                   sum(slab.nbytes for slab in self.slabs))
        if current == self.reported:
            return None
        self.reported = current
        return current


def _worker(fn, weights, jobs, done, index,
            plane: Optional[TensorPlane] = None, num_slots: int = 0) -> None:
    """One cluster's worker loop: a thread, or (with ``plane``) a process.

    A thread job carries the feed and the run's channels by reference.  A
    process job carries only the *names* of the input slots to read: the
    worker reads the feed from, and writes its graph outputs to, the
    inherited tensor plane, and ships its channel-telemetry delta home
    (its counters are copy-on-write private to the fork).  A job of a pool
    with a slab planner names its signature's layout (shipped on the
    signature's first run): the worker then calls the cluster function
    with its own destination table and workspace, and ships its
    ``(allocations, slab bytes)`` home whenever they change.
    """
    is_process = plane is not None
    tracer: Optional[Tracer] = None
    memory = _WorkerMemory(num_slots)
    while True:
        job = jobs.get()
        if job is None:
            return
        ticket = job[0]
        if ticket == _PING:  # echo the round's token
            done.put((_PING, index, job[1], None, 0, None))
            continue
        received_ns = time.perf_counter_ns()
        _, inputs, channels, ctx, fault, layout = job
        start_ns = time.perf_counter_ns()
        # The table is built before anything can fail: the coordinator
        # ships a layout once, whatever becomes of the job carrying it.
        out = None if layout is None else memory.table(*layout)
        if fault is not None:
            try:
                action = apply_worker_fault(fault, is_process=is_process)
            except BaseException as exc:  # noqa: BLE001 - injected failure
                done.put((ticket, index, {}, remote_error_text(exc),
                          time.perf_counter_ns() - start_ns, None))
                continue
            if action == "silent":
                if fault[0] == "crash":
                    return  # a thread vanishes without replying
                continue  # hang: stay silent for this job
            if action == "corrupt":
                done.put(("__corrupt__", index))
                continue
            if action == "poison":
                memory.poison()
        try:
            payload = None
            if is_process:
                plane.ticket = ticket
                channels = plane.channels
                inputs = {name: plane.read(name) for name in inputs}
                counted = plane.telemetry.snapshot()
            if out is None:  # standalone: every call allocates
                args = (inputs, weights, channels)
            else:
                args = (inputs, weights, channels, out, memory.workspace)
            if ctx is None:
                outputs = fn(*args)
            else:
                if tracer is None:
                    tracer = Tracer(capacity=_WORKER_TRACER_CAPACITY)
                queue_wait_ns = ctx.queue_wait_ns(received_ns)
                span_args = ctx.span_args({
                    "cluster": str(index),
                    "queue_wait_us": str(queue_wait_ns // 1000)})
                with tracer.span("worker.execute", cat="worker", args=span_args):
                    outputs = fn(*args)
                payload = _drain_worker_tracer(tracer, ctx, queue_wait_ns)
            if out is not None:
                usage = memory.changed()
                if usage is not None:
                    payload = dict(payload or (), memory=usage)
            if is_process:
                produced = tuple(name for name in outputs if name in plane)
                for name in produced:
                    plane.write(name, outputs[name])
                outputs = produced
                payload = dict(payload or (), channels=ChannelTelemetry.delta(
                    plane.telemetry.snapshot(), counted))
            done.put((ticket, index, outputs, None,
                      time.perf_counter_ns() - start_ns, payload))
        except BaseException as exc:  # noqa: BLE001 - propagate to the caller
            done.put((ticket, index, {}, remote_error_text(exc),
                      time.perf_counter_ns() - start_ns, None))


def _process_main(*args) -> None:
    """Entry point of a forked worker: run :func:`_worker` on a side thread.

    glibc's main arena gives large freed blocks back to the kernel, so on a
    process's main thread a big temporary allocated on every run is
    page-faulted in again; a thread's own arena keeps it.  A worker with a
    slab still allocates what the planner does not place — values it hands
    to other clusters, graph outputs, outputs under 4 KB, the kernels'
    internal temporaries — and measured on BERT (2 vCPUs, BLAS on one
    thread, three sets of 6 x 10 runs) the main thread was still the slower
    one in every set: 35.3 / 33.8 / 39.2 ms per inference against
    34.3 / 29.4 / 38.2 ms on a side thread.
    """
    thread = threading.Thread(target=_worker, args=args, name="cluster")
    thread.start()
    thread.join()


class WarmExecutorPool:
    """Persistent workers, one per cluster function of one generated module.

    Parameters
    ----------
    module:
        The generated parallel module (or a
        :class:`repro.codegen.module_writer.GeneratedModule` wrapper).
    weights:
        Initializer values (``model.graph.initializers``); captured once at
        pool construction and shared by every run.
    backend:
        ``"thread"`` (default) or ``"process"`` (requires ``fork``).
    tracer:
        Optional coordinator :class:`~repro.observability.Tracer`: dispatch
        carries trace contexts and workers ship span buffers home.  May
        also be attached later via :meth:`set_tracer`.
    max_batch:
        The batch the caller may stack over the compile-time shapes; sizes
        the process backend's tensor slots (a larger batch still runs, via
        the pickled fallback).
    planner:
        Optional :class:`~repro.runtime.plan.ClusterSlabPlanner` over the
        module's clusters.  With one, each worker computes into its own
        slab: the coordinator plans every input signature once and ships
        each worker its layout on the signature's first run.  Without
        one, the cluster functions run standalone and allocate.
    """

    def __init__(self, module, weights: Mapping[str, np.ndarray],
                 backend: str = "thread", tracer: Optional[Tracer] = None,
                 fail_grace_s: float = 2.0, max_batch: int = 1,
                 planner=None) -> None:
        module = getattr(module, "module", module)
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}; use 'thread' or 'process'")
        self.module = module
        self.backend = backend
        self._weights = dict(weights)
        self._num_clusters = len(module.CLUSTER_FUNCTIONS)
        self._max_batch = max(int(max_batch), 1)
        #: graph inputs each cluster function reads (None: hand it all)
        reads = getattr(module, "CLUSTER_INPUTS", None)
        self._reads: List[Optional[frozenset]] = [
            None if reads is None else frozenset(reads[index])
            for index in range(self._num_clusters)]
        self._planner = planner
        #: per worker: the signature keys whose layout it has received
        self._shipped: List[set] = [set() for _ in range(self._num_clusters)]
        #: per worker: ``(allocations, slab bytes)`` as it last reported
        self._worker_memory: List[Tuple[int, int]] = [(0, 0)] * self._num_clusters
        self._tickets = itertools.count(1)
        self._lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self._broken = False

        # -- resilience state ------------------------------------------
        #: once a worker fails or is found dead mid-collection, wait at
        #: most this long for straggler results before failing the run — a
        #: broken run should cost seconds, not the full batch timeout
        self._fail_grace_s = fail_grace_s
        #: optional deterministic FaultInjector consulted per dispatch
        self._injector = None
        self._worker_respawns = [0] * self._num_clusters
        self._protocol_errors = 0

        # -- observability state ---------------------------------------
        self._tracer = tracer
        #: channel telemetry: always on for slot channels (process workers
        #: ship per-job deltas into it), on demand for thread channels
        self._telemetry: Optional[ChannelTelemetry] = (
            ChannelTelemetry() if tracer is not None or backend == "process"
            else None)
        #: accumulated per-worker span tuples (+ identity and drops)
        self._worker_spans: List[deque] = [
            deque(maxlen=_WORKER_BUFFER_CAPACITY)
            for _ in range(self._num_clusters)]
        self._worker_drops: List[int] = [0] * self._num_clusters
        self._worker_ids: List[Optional[tuple]] = [None] * self._num_clusters
        #: run/timing counters surfaced by stats() and publish_metrics()
        self._runs = 0
        self._failures = 0
        self._occupancy = 0
        self._dispatch_ns = 0
        self._collect_wait_ns = 0
        self._worker_jobs = [0] * self._num_clusters
        self._worker_execute_ns = [0] * self._num_clusters
        self._worker_queue_wait_ns = [0] * self._num_clusters
        #: optional run-latency histograms, set by publish_metrics()
        self._run_histogram = None
        self._execute_histogram = None
        self._metrics_registries: list = []

        self._spawn()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        """Create the done queue (+ the tensor plane for processes) and the
        workers."""
        module = self.module
        if self.backend == "thread":
            self._mp_ctx = None
            #: the thread workers' one shared done queue
            self._done = queue.Queue()
            self._plane = None  # fresh thread channels per run
        else:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError as exc:  # pragma: no cover - non-POSIX platforms
                raise ParallelExecutionError(
                    "the warm process pool requires the 'fork' start method"
                ) from exc
            self._mp_ctx = ctx
            # Created once and inherited at fork; slots are rewritten every
            # run under a fresh ticket, so the plane is reused across runs.
            self._plane = make_process_channels(
                module.CHANNEL_NAMES, getattr(module, "CHANNEL_SPECS", None),
                tensors=[*getattr(module, "GRAPH_INPUTS", ()),
                         *module.GRAPH_OUTPUTS],
                ctx=ctx, max_batch=self._max_batch, telemetry=self._telemetry)
            #: per process worker: its own done pipe
            self._done = [None] * self._num_clusters
        self._job_queues = [None] * self._num_clusters
        self._workers = [None] * self._num_clusters
        for index in range(self._num_clusters):
            self._start_worker(index)
        try:
            self._await_ready(range(self._num_clusters), _STARTUP_TIMEOUT_S)
        except ParallelExecutionError:
            self.close()
            raise

    def _start_worker(self, index: int) -> None:
        """Start a worker for one cluster index over fresh pipes.

        A fresh job queue per (re)spawn keeps a replacement worker from
        inheriting stale jobs a dead or wedged predecessor never consumed;
        a process worker also gets a fresh done pipe, whose write end the
        coordinator drops once the worker has forked.
        """
        fn = self.module.CLUSTER_FUNCTIONS[index]
        # A fresh worker has built no slab yet.
        self._shipped[index] = set()
        self._worker_memory[index] = (0, 0)
        slots = getattr(self.module, "NUM_NODES", 0)
        if self.backend == "thread":
            jobs, done = queue.Queue(), self._done
            worker = threading.Thread(
                target=_worker,
                args=(fn, self._weights, jobs, done, index, None, slots),
                daemon=True, name=f"warm-cluster-{index}")
        else:
            jobs = ControlPipe(self._mp_ctx, blocking=False)
            done = self._done[index] = ControlPipe(self._mp_ctx)
            worker = self._mp_ctx.Process(
                target=_process_main,
                args=(fn, self._weights, jobs, done, index, self._plane, slots),
                daemon=True, name=f"warm-cluster-{index}")
        self._job_queues[index] = jobs
        self._workers[index] = worker
        worker.start()
        if self.backend == "process":
            done.close_writer()

    def _receive(self, indices, timeout: float) -> Tuple[list, list]:
        """Wait up to ``timeout`` for messages from the workers ``indices``.

        Returns ``(messages, died)``: the ready messages, possibly none,
        and the process workers among ``indices`` whose done pipe read
        end-of-file — they have died.
        """
        if self.backend == "thread":
            try:
                return [self._done.get(timeout=timeout)], []
            except queue.Empty:
                return [], []
        readers = {self._done[i].reader: i for i in indices}
        messages, died = [], []
        for reader in wait(list(readers), timeout):
            try:
                messages.append(reader.recv())
            except (EOFError, OSError):
                died.append(readers[reader])
        return messages, died

    def _stop_workers(self, join_timeout: float) -> None:
        for jobs in self._job_queues:
            try:
                jobs.put(None)
            except Exception:  # noqa: BLE001 - queue torn down or not drained
                pass
        deadline = time.monotonic() + join_timeout
        for worker in self._workers:
            worker.join(timeout=max(deadline - time.monotonic(), 0.0))
        if self.backend == "process":
            _reap(self._workers)
            self._plane.close()

    # ------------------------------------------------------------------
    # Liveness and repair
    # ------------------------------------------------------------------
    def _well_formed(self, item) -> bool:
        """Whether a done message has the worker protocol's shape; counts a
        malformed one as a protocol error."""
        if (isinstance(item, tuple) and len(item) == 6
                and isinstance(item[1], int)):
            return True
        self._protocol_errors += 1
        return False

    def worker_alive(self, index: int) -> bool:
        """Whether worker ``index``'s thread/process is currently alive."""
        try:
            return self._workers[index].is_alive()
        except ValueError:  # a reaped (closed) process object
            return False

    def set_fault_injector(self, injector) -> None:
        """Attach (or detach, with ``None``) a deterministic FaultInjector.

        When attached, every dispatched job consults
        ``injector.directive("worker.execute", worker=i)`` and ships the
        result in the job tuple's fault slot; detached dispatch ships
        ``None`` and the workers pay one ``is not None`` check (gated at
        parity in ``benchmarks/test_observability_overhead.py``).
        """
        self._injector = injector

    def _respawn_locked(self, index: int, join_timeout: float,
                        ready_timeout: float = _STARTUP_TIMEOUT_S) -> None:
        """Replace worker ``index`` with a fresh one, under the run lock.

        Every healthy worker (and, for the process backend, the
        fork-inherited tensor plane) stays in place: the failed worker is
        terminated or abandoned, and a replacement is started over the
        same cluster function and weights with fresh pipes and must answer
        its startup ping within ``ready_timeout``.  Counted in
        ``stats()["respawns"]``; a ``pool.respawn`` span under a tracer.
        """
        start_ns = time.perf_counter_ns()
        try:  # a healthy-but-abandoned worker exits on the sentinel
            self._job_queues[index].put(None)
        except Exception:  # noqa: BLE001 - queue torn down or not drained
            pass
        if self.backend == "process":
            # Safe for a live worker too: one blocked on a hand-off waits
            # on a semaphore, which a killed waiter does not leave held.
            _reap([self._workers[index]], join_timeout)
        # A wedged *thread* cannot be killed: it is abandoned (daemonic,
        # parked on the old job queue or a stale channel) and leaks until
        # its blocking call returns — the documented watchdog contract.
        self._start_worker(index)
        self._worker_respawns[index] += 1
        self._await_ready([index], ready_timeout)
        if self._tracer is not None:
            self._tracer.emit("pool.respawn", "pool", start_ns,
                              time.perf_counter_ns(),
                              args={"model": self.module.MODEL_NAME,
                                    "worker": str(index)})

    def _unresponsive(self, indices, timeout: float) -> set:
        """The subset of ``indices`` that does not answer a ping in time.

        A worker still inside a failed run — typically blocked on a
        hand-off its failed peer never made — is alive but will not take
        the next job; it only answers once it is back in its job loop.
        Each round's ping carries a fresh token, so a late reply to an
        earlier round (say, from an abandoned thread) answers nothing.  A
        dead worker counts at once: a process's done pipe reads
        end-of-file, a thread is caught on the first quiet poll.
        """
        pending, died = set(indices), set()
        token = next(self._tickets)
        for index in pending:
            try:
                self._job_queues[index].put((_PING, token))
            except Exception:  # noqa: BLE001 - not draining its queue
                pass
        deadline = time.monotonic() + timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            messages, gone = self._receive(pending, min(remaining, 0.5))
            if not messages and not gone:
                gone = [i for i in pending if not self.worker_alive(i)]
            died.update(gone)
            pending.difference_update(gone)
            for item in messages:
                if (self._well_formed(item) and item[0] == _PING
                        and item[2] == token):
                    pending.discard(item[1])
        return pending | died

    def _await_ready(self, indices, timeout: float) -> None:
        """The startup check of new workers: one ping round.  Any worker
        that dies or stays silent past ``timeout`` marks the pool broken."""
        failed = self._unresponsive(indices, timeout)
        if failed:
            self._broken = True
            raise ParallelExecutionError(
                f"worker(s) {sorted(failed)} of {self.module.MODEL_NAME!r} "
                f"died or did not answer their startup ping within {timeout}s")

    def heal(self, join_timeout: float = 2.0) -> List[int]:
        """Respawn every dead or unresponsive worker.

        The one repair (:meth:`Session.recover` calls it after a failed
        run): replaces any worker it finds dead and any live one that does
        not answer a ping within the fail-grace window (stranded inside the
        failed run, or wedged); then zeroes the tensor plane's semaphores
        and clears ``broken`` when the full complement is alive.  Returns
        the respawned indices.  A replacement that fails its startup ping
        raises :class:`ParallelExecutionError` and leaves the pool broken.
        """
        with self._lock:
            if self._closed:
                raise ParallelExecutionError("cannot heal a closed pool")
            targets = {i for i in range(self._num_clusters)
                       if not self.worker_alive(i)}
            targets |= self._unresponsive(
                set(range(self._num_clusters)) - targets, self._fail_grace_s)
            for index in sorted(targets):
                self._respawn_locked(index, join_timeout)
            if self._plane is not None:
                # Posts a failed run left behind must not satisfy the next
                # run's waits (their slots would fail the ticket check).
                self._plane.reset()
            if all(self.worker_alive(i) for i in range(self._num_clusters)):
                self._broken = False
            return sorted(targets)

    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Number of persistent workers (one per cluster function)."""
        return self._num_clusters

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    @property
    def broken(self) -> bool:
        """True once a run failed in a way that may leave workers wedged."""
        return self._broken

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached coordinator tracer, if any."""
        return self._tracer

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or detach, with ``None``) the coordinator tracer.

        Takes effect on the next run: dispatched jobs carry trace contexts
        and workers ship their span buffers home.  For the ``"thread"``
        backend this also enables channel byte/ns telemetry (fresh channels
        are wrapped per run); slot channels account themselves regardless.
        """
        self._tracer = tracer
        if tracer is not None and self._telemetry is None:
            self._telemetry = ChannelTelemetry()

    def worker_trace_buffers(self) -> List[WorkerTraceBuffer]:
        """The accumulated per-worker span buffers, ready for merging.

        Each buffer carries the worker's real pid/tid and its drop count
        (worker-ring drops plus coordinator-side evictions past the
        per-worker cap).  Feed the result — together with the coordinator
        tracer — to :func:`repro.observability.merge.merge_traces`.
        """
        buffers: List[WorkerTraceBuffer] = []
        with self._lock:
            for index in range(self._num_clusters):
                identity = self._worker_ids[index]
                if not self._worker_spans[index] and not self._worker_drops[index]:
                    continue  # nothing traced for this worker (yet)
                pid, tid = identity if identity else (os.getpid(), 0)
                buffers.append(WorkerTraceBuffer(
                    worker=f"cluster-{index}", pid=pid, tid=tid,
                    events=list(self._worker_spans[index]),
                    dropped=self._worker_drops[index]))
        return buffers

    def clear_worker_traces(self) -> None:
        """Drop the accumulated worker spans and their drop counts."""
        with self._lock:
            for spans in self._worker_spans:
                spans.clear()
            self._worker_drops = [0] * self._num_clusters

    def _ingest_payload(self, index: int, payload: Dict) -> None:
        """Fold one shipped worker payload into the pool's accumulators.

        Called from ``_collect`` (under the run lock): the channel
        telemetry delta of a process worker and, when the run was traced,
        its span buffer.  Eviction past the per-worker cap is counted as
        coordinator-side drops so a truncated lane stays accounted, not
        silently sparse.
        """
        delta = payload.get("channels")
        if delta:
            self._telemetry.add(delta)
        if "memory" in payload:
            self._worker_memory[index] = payload["memory"]
        if "spans" not in payload:
            return
        spans = self._worker_spans[index]
        evicted = max(len(spans) + len(payload["spans"]) - spans.maxlen, 0)
        spans.extend(payload["spans"])
        self._worker_drops[index] += payload["dropped"] + min(
            evicted, len(payload["spans"]))
        self._worker_ids[index] = (payload["pid"], payload["tid"])
        self._worker_queue_wait_ns[index] += payload["queue_wait_ns"]

    def stats(self) -> Dict:
        """Run, timing, channel and trace counters for this pool."""
        channels = (self._telemetry.snapshot()
                    if self._telemetry is not None else None)
        return {
            "backend": self.backend,
            "clusters": self._num_clusters,
            "runs": self._runs,
            "failures": self._failures,
            "respawns": sum(self._worker_respawns),
            "protocol_errors": self._protocol_errors,
            "occupancy": self._occupancy,
            "dispatch_ns_total": self._dispatch_ns,
            "collect_wait_ns_total": self._collect_wait_ns,
            "execute_ns_total": sum(self._worker_execute_ns),
            "workers": [
                {"worker": index,
                 "jobs": self._worker_jobs[index],
                 "alive": self.worker_alive(index),
                 "respawns": self._worker_respawns[index],
                 "execute_ns_total": self._worker_execute_ns[index],
                 "queue_wait_ns_total": self._worker_queue_wait_ns[index],
                 "spans_buffered": len(self._worker_spans[index]),
                 "spans_dropped": self._worker_drops[index],
                 "allocations": self._worker_memory[index][0],
                 "slab_bytes": self._worker_memory[index][1]}
                for index in range(self._num_clusters)],
            "channels": channels,
        }

    def publish_metrics(self, registry,
                        labels: Optional[Mapping[str, str]] = None) -> None:
        """Mirror the pool's counters into a ``MetricsRegistry``.

        Registers a pull-style collector refreshing run/failure/respawn
        totals, occupancy, dispatch/execute/queue-wait time totals and the
        channel byte/ns counters before every snapshot, plus per-worker
        job/execute series labelled ``worker="<index>"`` — so one registry
        snapshot covers the plan, serving and worker layers together.
        Also creates ``pool_run_seconds`` / ``pool_worker_execute_seconds``
        histograms the pool observes into at run time.
        """
        labels = dict(labels) if labels else {}
        gauge = registry.gauge
        self._run_histogram = registry.histogram(
            "pool_run_seconds", "Warm-pool run wall time", labels=labels)
        self._execute_histogram = registry.histogram(
            "pool_worker_execute_seconds",
            "Per-worker cluster execute time", labels=labels)

        def collect(_registry) -> None:
            stats = self.stats()
            gauge("pool_runs_total", "Completed warm-pool runs",
                  labels=labels).set(stats["runs"])
            gauge("pool_failures_total", "Failed or timed-out pool runs",
                  labels=labels).set(stats["failures"])
            gauge("pool_worker_respawns_total",
                  "Workers respawned after dying or going silent",
                  labels=labels).set(stats["respawns"])
            gauge("pool_protocol_errors_total",
                  "Malformed result-channel messages observed",
                  labels=labels).set(stats["protocol_errors"])
            gauge("pool_workers_alive",
                  "Workers whose thread/process is currently alive",
                  labels=labels).set(
                      sum(1 for row in stats["workers"] if row["alive"]))
            gauge("pool_occupancy", "Runs currently executing (0 or 1)",
                  labels=labels).set(stats["occupancy"])
            gauge("pool_dispatch_seconds_total",
                  "Cumulative job-dispatch time",
                  labels=labels).set(stats["dispatch_ns_total"] / 1e9)
            gauge("pool_collect_wait_seconds_total",
                  "Cumulative result-collection wait",
                  labels=labels).set(stats["collect_wait_ns_total"] / 1e9)
            gauge("pool_execute_seconds_total",
                  "Cumulative worker execute time (all workers)",
                  labels=labels).set(stats["execute_ns_total"] / 1e9)
            for row in stats["workers"]:
                worker_labels = dict(labels, worker=str(row["worker"]))
                gauge("pool_worker_jobs_total", "Jobs executed by a worker",
                      labels=worker_labels).set(row["jobs"])
                gauge("pool_worker_queue_wait_seconds_total",
                      "Cumulative dispatch-to-receive wait of a worker",
                      labels=worker_labels).set(
                          row["queue_wait_ns_total"] / 1e9)
                gauge("pool_worker_spans_dropped_total",
                      "Worker trace spans lost to ring/cap drops",
                      labels=worker_labels).set(row["spans_dropped"])
            channels = stats["channels"]
            if channels:
                gauge("pool_channel_puts_total", "Channel put calls",
                      labels=labels).set(channels["puts"])
                gauge("pool_channel_gets_total", "Channel get calls",
                      labels=labels).set(channels["gets"])
                gauge("pool_channel_put_bytes_total",
                      "Payload bytes moved into channels",
                      labels=labels).set(channels["put_bytes"])
                gauge("pool_channel_get_bytes_total",
                      "Payload bytes moved out of channels",
                      labels=labels).set(channels["get_bytes"])
                gauge("pool_channel_overflow_puts_total",
                      "Payloads pickled instead of using a tensor slot",
                      labels=labels).set(channels["overflow_puts"])
                gauge("pool_channel_put_seconds_total",
                      "Cumulative producer-side channel hand-off time",
                      labels=labels).set(channels["put_ns"] / 1e9)
                gauge("pool_channel_get_seconds_total",
                      "Cumulative consumer-side channel hand-off time",
                      labels=labels).set(channels["get_ns"] / 1e9)

        registry.register_collector(collect)
        self._metrics_registries.append((registry, collect))

    # ------------------------------------------------------------------
    def run(self, inputs: Mapping[str, np.ndarray],
            timeout: float = 300.0) -> Dict[str, np.ndarray]:
        """Execute the module once and return its graph outputs.

        Runs are serialized: the pool owns exactly one set of workers, so a
        second concurrent ``run`` blocks until the first finishes.  A worker
        that died since the last run is respawned before the dispatch.
        """
        with self._lock:
            if self._closed:
                raise ParallelExecutionError("warm executor pool is closed")
            if self._broken:
                raise ParallelExecutionError(
                    "warm executor pool is broken after an earlier failure; "
                    "heal() it")
            tracer, ctx = self._tracer, None
            self._occupancy = 1
            run_start_ns = time.perf_counter_ns()
            try:
                for index in range(self._num_clusters):
                    if not self.worker_alive(index):
                        self._respawn_locked(index, 2.0,
                                             min(timeout, _STARTUP_TIMEOUT_S))
                ticket = next(self._tickets)
                ctx = TraceContext.from_tracer(tracer, parent_span="pool.run")
                injector = self._injector
                faults = None
                if injector is not None:
                    faults = [injector.directive("worker.execute", worker=i)
                              for i in range(self._num_clusters)]
                layouts = None
                if self._planner is not None:
                    key, plans = self._planner.plan(inputs)
                    layouts = [(key, None if key in self._shipped[i]
                                else plans[i])
                               for i in range(self._num_clusters)]
                deadline = time.monotonic() + timeout
                if self.backend == "thread":
                    feed, channels = inputs, make_thread_channels(
                        self.module.CHANNEL_NAMES)
                    if ctx is not None and self._telemetry is not None:
                        channels = instrument_channels(channels,
                                                       self._telemetry)
                else:
                    # The feed goes into the input slots once; the jobs
                    # only name the slots each worker reads.
                    plane, channels = self._plane, None
                    plane.ticket = ticket
                    feed = {name: None for name in inputs if name in plane}
                    for name in feed:
                        plane.write(name, inputs[name])
                for i, jobs in enumerate(self._job_queues):
                    reads = self._reads[i]
                    try:
                        jobs.put((ticket,
                                  feed if reads is None else
                                  {n: feed[n] for n in reads if n in feed},
                                  channels, ctx,
                                  faults[i] if faults is not None else None,
                                  layouts[i] if layouts is not None else None),
                                 timeout=max(deadline - time.monotonic(), 0.0))
                        if layouts is not None:
                            self._shipped[i].add(layouts[i][0])
                    except queue.Full:
                        self._broken = True
                        raise ParallelExecutionError(
                            f"worker {i} of {self.module.MODEL_NAME!r} is "
                            "not draining its job pipe") from None
                dispatch_ns = time.perf_counter_ns() - run_start_ns
                self._dispatch_ns += dispatch_ns
                outputs = self._collect(ticket, timeout)
                self._runs += 1
                return outputs
            except BaseException:
                self._failures += 1
                raise
            finally:
                self._occupancy = 0
                end_ns = time.perf_counter_ns()
                if self._run_histogram is not None:
                    self._run_histogram.observe((end_ns - run_start_ns) / 1e9)
                if tracer is not None:
                    args = {"model": self.module.MODEL_NAME,
                            "backend": self.backend}
                    if ctx is not None:
                        args["trace_id"] = str(ctx.trace_id)
                    tracer.emit("pool.run", "pool", run_start_ns, end_ns,
                                args=args)

    def _collect(self, ticket: int, timeout: float) -> Dict[str, np.ndarray]:
        merged: Dict[str, np.ndarray] = {}
        failures: List[str] = []
        pending = set(range(self._num_clusters))
        deadline = time.monotonic() + timeout
        wait_start_ns = time.perf_counter_ns()
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._broken = True
                self._collect_wait_ns += time.perf_counter_ns() - wait_start_ns
                if failures:
                    # a worker already failed; the others are presumed
                    # stranded — surface the real failure, not a timeout
                    raise ParallelExecutionError("; ".join(failures))
                raise ParallelExecutionError(
                    f"warm execution of {self.module.MODEL_NAME!r} timed out "
                    f"after {timeout}s (possible deadlock)")
            messages, died = self._receive(pending, min(remaining, 0.5))
            if not messages and not died:
                # a quiet poll: has a worker died without a word?
                died = [i for i in pending if not self.worker_alive(i)]
            for index in died:
                pending.discard(index)
                failures.append(f"cluster {index}: worker died mid-run")
                deadline = min(deadline, time.monotonic() + self._fail_grace_s)
            for item in messages:
                if not self._well_formed(item):
                    # a malformed result-channel message cannot be
                    # attributed to a worker, so the run cannot complete
                    self._broken = True
                    self._collect_wait_ns += (time.perf_counter_ns()
                                              - wait_start_ns)
                    raise ParallelExecutionError(
                        f"corrupted result-channel message during warm run "
                        f"of {self.module.MODEL_NAME!r}: {item!r:.200}")
                got_ticket, index, outputs, error, exec_ns, payload = item
                if got_ticket != ticket or index not in pending:
                    continue  # a ping reply or a straggler of a failed run
                pending.discard(index)
                self._worker_jobs[index] += 1
                self._worker_execute_ns[index] += exec_ns
                if self._execute_histogram is not None:
                    self._execute_histogram.observe(exec_ns / 1e9)
                if payload is not None:
                    self._ingest_payload(index, payload)
                if error is not None:
                    failures.append(f"cluster {index}: {error}")
                    # once one worker failed, its peers may be stranded on
                    # channels that will never fill: collect stragglers for
                    # a short grace window, then fail the run
                    deadline = min(deadline,
                                   time.monotonic() + self._fail_grace_s)
                elif self._plane is None:
                    merged.update(outputs)
                else:  # a process worker names the output slots it wrote
                    for name in outputs:
                        merged[name] = self._plane.read(name, copy=True)
        self._collect_wait_ns += time.perf_counter_ns() - wait_start_ns
        if failures:
            self._broken = True
            raise ParallelExecutionError("; ".join(failures))
        missing = [name for name in self.module.GRAPH_OUTPUTS if name not in merged]
        if missing:
            self._broken = True
            raise ParallelExecutionError(
                f"warm run of {self.module.MODEL_NAME!r} did not produce "
                f"outputs: {missing}")
        return {name: merged[name] for name in self.module.GRAPH_OUTPUTS}

    # ------------------------------------------------------------------
    def close(self, join_timeout: float = 2.0) -> None:
        """Stop all workers; idempotent.

        Deliberately does not take the run lock: a close racing an
        in-flight ``run`` (e.g. LRU eviction on another thread's submit
        path) must not block for up to the run timeout.  Workers finish
        their current job before seeing the sentinel.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for registry, collect in self._metrics_registries:
            registry.unregister_collector(collect)
        self._metrics_registries.clear()
        self._stop_workers(join_timeout)

    def __enter__(self) -> "WarmExecutorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
