"""Pool supervision: detect dead/wedged workers in seconds, respawn one.

Before this module, the only failure detector the warm pools had was the
batch watchdog: a worker that died (OOM kill, segfault, injected crash)
stalled its run until the full batch timeout — 300 s by default — and the
only recovery was a full :meth:`~repro.runtime.worker_pool.WarmExecutorPool.restart`
(or artifact invalidation and a recompile).  A :class:`PoolSupervisor` is
a small daemon thread that polls the pool's supervision primitives every
``interval_s``:

* **dead detection** — ``pool.worker_alive(i)`` (``Process.is_alive`` /
  thread liveness, i.e. the sentinel the OS already maintains).  A dead
  worker mid-run gets the in-flight run failed immediately via
  ``pool.fail_inflight`` (the caller's future fails in ~one poll interval
  instead of the batch timeout) and is respawned *individually* via
  ``pool.heal`` — healthy peers, warm weights and the fork-inherited
  tensor plane stay in place.
* **wedge detection** — heartbeat tickets (``pool.ping_workers``) are
  enqueued behind whatever a worker is doing; a live worker replies when
  it drains its queue, a wedged one stays silent.  A run in flight longer
  than ``hang_timeout_s`` whose worker has neither replied nor produced a
  result for ``hang_timeout_s`` (measured from the later of run start and
  its last message) is declared wedged, the run is failed fast, and the
  worker is terminated + respawned (threads are abandoned — they cannot
  be killed — exactly the batch-watchdog contract).

Recovery events emit ``supervisor.*`` spans through an attached tracer
and count into ``stats()`` (mirrored into a ``MetricsRegistry`` via
:meth:`publish_metrics`).  The supervisor stops itself when the pool
closes.  Fault-free overhead is one lock-free poll per interval; nothing
touches the dispatch hot path.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

__all__ = ["PoolSupervisor"]


class PoolSupervisor:
    """Watches one :class:`~repro.runtime.worker_pool.WarmExecutorPool`.

    Parameters
    ----------
    pool:
        The pool to supervise (its supervision primitives are the API
        boundary; the supervisor holds no pool internals).
    interval_s:
        Poll cadence; detection latency for dead workers is about one
        interval.
    hang_timeout_s:
        How long a worker may stay silent *during an in-flight run*
        before it is declared wedged.  Must exceed the longest legitimate
        cluster execution time.
    tracer:
        Optional :class:`~repro.observability.Tracer`; recovery events
        emit ``supervisor.respawn`` / ``supervisor.fail_inflight`` spans.
    """

    def __init__(self, pool, interval_s: float = 0.25,
                 hang_timeout_s: float = 30.0, tracer=None) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive")
        self.pool = pool
        self.interval_s = interval_s
        self.hang_timeout_s = hang_timeout_s
        self._tracer = tracer
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._deaths_detected = 0
        self._wedges_detected = 0
        self._respawns = 0
        self._failed_inflight = 0
        self._heal_errors = 0
        #: workers flagged wedged, pending a heal once the run unwinds
        self._pending_wedged: set = set()
        self._run_started = None  # monotonic start of the inflight run seen
        self._thread = threading.Thread(
            target=self._loop, daemon=True,
            name=f"pool-supervisor-{getattr(pool.module, 'MODEL_NAME', '?')}")
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "PoolSupervisor":
        """Start the supervision thread (idempotent)."""
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def stop(self, join_timeout: float = 2.0) -> None:
        """Stop supervising (the pool itself is left untouched)."""
        self._stop.set()
        if self._started:
            self._thread.join(timeout=join_timeout)

    @property
    def running(self) -> bool:
        """Whether the supervision thread is alive."""
        return self._thread.is_alive()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            if self.pool.closed:
                return
            try:
                self._tick()
            except Exception:  # noqa: BLE001 - supervision must not die
                self._heal_errors += 1

    def _tick(self) -> None:
        pool = self.pool
        inflight = pool.inflight()
        now = time.monotonic()

        # -- dead workers: the OS already knows ------------------------
        dead = [i for i in range(pool.num_clusters)
                if not pool.worker_alive(i)]
        for index in dead:
            self._deaths_detected += 1
            if inflight is not None:
                if pool.fail_inflight(
                        index, f"worker {index} died mid-run "
                        "(detected by supervisor; respawning)"):
                    self._failed_inflight += 1

        # -- wedged workers: silent while a run is stuck ---------------
        wedged: List[int] = []
        if inflight is not None:
            _, started = inflight
            if now - started > self.hang_timeout_s:
                for index in range(pool.num_clusters):
                    if index in dead:
                        continue
                    silent_for = min(pool.heartbeat_age(index), now - started)
                    if silent_for > self.hang_timeout_s:
                        wedged.append(index)
                        self._wedges_detected += 1
                        self._pending_wedged.add(index)
                        if pool.fail_inflight(
                                index, f"worker {index} wedged (silent for "
                                f"{silent_for:.1f}s; respawning)"):
                            self._failed_inflight += 1
        else:
            # idle: ping for liveness and drain ready replies so the
            # done queue stays bounded and heartbeats stay fresh
            pool.ping_workers()
            pool.poll_done()

        # -- heal: respawn dead + flagged-wedged workers ---------------
        # heal() takes the run lock, so it waits until the failed run has
        # unwound; fail_inflight above guarantees that happens within the
        # pool's fail-grace window rather than the batch timeout.
        if dead or self._pending_wedged:
            start_ns = time.perf_counter_ns() if self._tracer else 0
            respawned = pool.heal(wedged=sorted(self._pending_wedged))
            self._pending_wedged.difference_update(respawned)
            # a flagged worker that heal() did not respawn was alive and
            # not explicitly passed — drop stale flags for alive workers
            self._pending_wedged = {
                i for i in self._pending_wedged if not pool.worker_alive(i)}
            if respawned:
                self._respawns += len(respawned)
                if self._tracer is not None:
                    self._tracer.emit(
                        "supervisor.respawn", "supervisor", start_ns,
                        time.perf_counter_ns(),
                        args={"workers": ",".join(map(str, respawned)),
                              "dead": str(len(dead)),
                              "wedged": str(len(wedged))})

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Detection and recovery counters."""
        return {
            "deaths_detected": self._deaths_detected,
            "wedges_detected": self._wedges_detected,
            "respawns": self._respawns,
            "failed_inflight": self._failed_inflight,
            "heal_errors": self._heal_errors,
        }

    def publish_metrics(self, registry,
                        labels: Optional[Dict[str, str]] = None) -> None:
        """Mirror the supervisor's counters into a ``MetricsRegistry``."""
        labels = dict(labels) if labels else {}
        gauge = registry.gauge

        def collect(_registry) -> None:
            stats = self.stats()
            gauge("supervisor_deaths_detected_total",
                  "Dead workers detected by liveness polling",
                  labels=labels).set(stats["deaths_detected"])
            gauge("supervisor_wedges_detected_total",
                  "Wedged workers detected by heartbeat staleness",
                  labels=labels).set(stats["wedges_detected"])
            gauge("supervisor_respawns_total",
                  "Workers respawned by the supervisor",
                  labels=labels).set(stats["respawns"])
            gauge("supervisor_failed_inflight_total",
                  "In-flight runs failed fast on behalf of lost workers",
                  labels=labels).set(stats["failed_inflight"])

        registry.register_collector(collect)

    def __enter__(self) -> "PoolSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
