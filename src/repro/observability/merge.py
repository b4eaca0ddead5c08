"""Merging per-worker span buffers into one multi-process Chrome trace.

The warm worker pools and the process backend execute clusters on threads
and forked processes the coordinator's :class:`~repro.observability.Tracer`
cannot see into: a worker records spans on its *own* thread/process-local
tracer and ships the completed buffer back over the existing result
channels as a :class:`WorkerTraceBuffer` — plain tuples plus the worker's
real pid/tid and its drop count.  :func:`merge_traces` emits a single
Chrome trace-event JSON object in which each worker renders as its own
pid/tid lane in Perfetto, with the coordinator's request/dispatch spans
above them.

One clock: worker timestamps are ``perf_counter_ns`` readings taken in the
worker, and they are merged as recorded.  A thread worker reads the
coordinator's own clock; a process worker is forked, and ``perf_counter``
is ``CLOCK_MONOTONIC``, which a forked child shares with its parent (as
:meth:`~repro.observability.context.TraceContext.queue_wait_ns` already
relies on).  So a worker's ``worker.execute`` span lies inside the
``pool.run`` span that dispatched it, by causality alone.

Drop accounting is per worker: a buffer whose source ring wrapped (or that
the pool truncated while accumulating) carries its own ``dropped`` count,
and the merged payload's ``metadata`` lists every worker's drops next to
the coordinator tracer's, so a truncated lane is visible instead of
silently sparse.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["WorkerTraceBuffer", "merge_traces", "write_merged_trace"]

#: shipped span tuple layout: (name, cat, start_ns, dur_ns, args-or-None)
SpanTuple = Tuple[str, str, int, int, Optional[dict]]


@dataclasses.dataclass
class WorkerTraceBuffer:
    """One worker's completed spans, as shipped back to the coordinator."""

    #: human-readable lane name, e.g. ``"cluster-0"``
    worker: str
    #: the worker's real os pid (differs from the coordinator's for the
    #: process backend; equal for thread workers)
    pid: int
    #: the worker's thread ident inside its process
    tid: int
    #: span tuples ``(name, cat, start_ns, dur_ns, args)`` on the shared
    #: ``perf_counter_ns`` clock
    events: List[SpanTuple] = dataclasses.field(default_factory=list)
    #: spans lost in the worker's ring or to the pool's accumulation cap
    dropped: int = 0


def merge_traces(tracer, buffers: Sequence[WorkerTraceBuffer],
                 process_name: str = "repro") -> Dict:
    """One Chrome trace from a coordinator tracer plus worker buffers.

    Parameters
    ----------
    tracer:
        The coordinator's :class:`~repro.observability.Tracer` (may be
        ``None`` when only worker lanes are wanted).  Its epoch defines
        ``ts == 0`` of the merged trace.
    buffers:
        Per-worker buffers; their timestamps are on the coordinator's
        clock already, so only the epoch is subtracted.

    Returns the Chrome trace-event JSON object (``traceEvents`` +
    ``metadata``), loadable directly in Perfetto: coordinator spans on the
    coordinator's pid, each worker on its own pid/tid lane named after the
    worker, request spans nesting over worker execute spans by time.
    """
    if tracer is not None:
        payload = tracer.chrome_trace(process_name=process_name)
        epoch = tracer.epoch_ns
    else:
        payload = {"traceEvents": [], "displayTimeUnit": "ms",
                   "metadata": {"recorded": 0, "dropped": 0}}
        epoch = min((start_ns for b in buffers for _, _, start_ns, _, _
                     in b.events), default=0)
    trace_events: List[Dict] = payload["traceEvents"]
    metadata: Dict = payload.setdefault("metadata", {})
    metadata["coordinator_dropped"] = metadata.pop("dropped", 0)
    metadata["coordinator_recorded"] = metadata.pop("recorded", 0)
    worker_drops: Dict[str, int] = {}

    import os
    coordinator_pid = os.getpid()
    named_pids = {coordinator_pid}
    for buffer in buffers:
        if buffer.pid not in named_pids:
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": buffer.pid,
                "tid": 0, "args": {
                    "name": f"{process_name} worker {buffer.worker} "
                            f"(pid {buffer.pid})"}})
            named_pids.add(buffer.pid)
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": buffer.pid,
            "tid": buffer.tid, "args": {"name": buffer.worker}})
        for name, cat, start_ns, dur_ns, args in buffer.events:
            record = {
                "name": name, "cat": cat or "default", "ph": "X",
                "ts": (start_ns - epoch) / 1e3,
                "dur": dur_ns / 1e3,
                "pid": buffer.pid, "tid": buffer.tid,
            }
            if args:
                record["args"] = dict(args)
            trace_events.append(record)
        worker_drops[buffer.worker] = (
            worker_drops.get(buffer.worker, 0) + buffer.dropped)
    metadata["worker_drops"] = worker_drops
    metadata["workers"] = len(worker_drops)
    return payload


def write_merged_trace(path, tracer, buffers: Sequence[WorkerTraceBuffer],
                       process_name: str = "repro") -> Dict:
    """Serialize :func:`merge_traces` to ``path``; returns the payload."""
    payload = merge_traces(tracer, buffers, process_name=process_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return payload
