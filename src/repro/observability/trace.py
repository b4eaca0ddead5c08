"""Low-overhead span tracing with Chrome trace-event export.

The paper's Ramiel runtime is steered by a *profile database* holding
"information about the execution trace"; this module is the execution-trace
half of the repo's observability layer (:mod:`repro.observability.metrics`
is the counters half).  A :class:`Tracer` records **spans** — named,
categorized time intervals measured with :func:`time.perf_counter_ns` —
into a fixed-capacity, thread-safe ring buffer, and exports them in the
Chrome trace-event JSON format, loadable directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``, the same format the
torch profiler emits.

Design constraints, in order:

1. **Zero cost when absent.**  Nothing in the hot layers holds a tracer by
   default; instrumented code paths check ``tracer is None`` once per
   *run*, not per step (:class:`repro.runtime.plan.ExecutionPlan` compiles
   the traced stepper as a separate closure at enable time).
2. **Bounded memory.**  The ring buffer overwrites the oldest events once
   full and counts the overwritten ones (``stats()["dropped"]``), so a
   long-running server can keep a tracer attached as a flight recorder.
3. **Thread-safe recording.**  Spans are recorded under a lock from any
   thread; the emitting thread's id and name are captured per event so the
   exported trace shows one track per thread.

Three recording APIs, least to most convenient:

* ``emit(name, cat, start_ns, end_ns)`` — explicit timestamps taken via
  :meth:`Tracer.now`; what compiled hot loops use.
* ``begin(name, cat)`` / ``end()`` — an explicit per-thread span stack.
* ``span(name, cat)`` — a context manager over begin/end.

Request-shaped lifecycles that cross threads (submit on a caller thread,
execute on a lane thread) use **async spans** (``emit_async`` /
``async_span``): Chrome renders them on their own track, nested by
``(category, id)``, so cross-thread phases do not have to nest inside any
single thread's span stack.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = ["TraceEvent", "Tracer"]

#: event kinds (``TraceEvent.kind``): a thread-track complete span, or an
#: async begin/end pair rendered on a per-(cat, id) track
SPAN = "span"
ASYNC = "async"


class TraceEvent:
    """One recorded span: name, category, interval and emitting thread."""

    __slots__ = ("name", "cat", "start_ns", "dur_ns", "tid", "args",
                 "kind", "id")

    def __init__(self, name: str, cat: str, start_ns: int, dur_ns: int,
                 tid: int, args: Optional[Mapping] = None,
                 kind: str = SPAN, id: Optional[int] = None) -> None:
        self.name = name
        self.cat = cat
        self.start_ns = start_ns
        self.dur_ns = dur_ns
        self.tid = tid
        self.args = args
        self.kind = kind
        self.id = id

    @property
    def end_ns(self) -> int:
        """End timestamp (``start_ns + dur_ns``)."""
        return self.start_ns + self.dur_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent({self.name!r}, cat={self.cat!r}, "
                f"start_ns={self.start_ns}, dur_ns={self.dur_ns})")


class _SpanContext:
    """Reusable-per-call context manager backing :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Optional[Mapping]) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_SpanContext":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.emit(self._name, self._cat, self._start_ns,
                          time.perf_counter_ns(), args=self._args)


class _AsyncSpanContext:
    """Context manager emitting an async (cross-thread) span on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_id", "_args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, cat: str, id: int,
                 args: Optional[Mapping]) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._id = id
        self._args = args

    def __enter__(self) -> "_AsyncSpanContext":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.emit_async(self._name, self._cat, self._id,
                                self._start_ns, time.perf_counter_ns(),
                                args=self._args)


class Tracer:
    """Thread-safe ring buffer of spans with Chrome trace-event export.

    Parameters
    ----------
    capacity:
        Maximum number of buffered events; the oldest are overwritten (and
        counted as dropped) once full.
    enabled:
        Initial recording state; :meth:`enable` / :meth:`disable` toggle it
        at runtime (a disabled tracer records nothing but keeps its
        buffer).
    """

    def __init__(self, capacity: int = 65536, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = int(capacity)
        self._enabled = bool(enabled)
        self._lock = threading.Lock()
        self._ring: List[Optional[TraceEvent]] = [None] * self.capacity
        self._head = 0            # next write position
        self._recorded = 0        # total events ever recorded
        self._dropped = 0         # events overwritten by ring wraparound
        self._epoch_ns = time.perf_counter_ns()
        self._thread_names: Dict[int, str] = {}
        self._stacks = threading.local()
        self._async_ids = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @staticmethod
    def now() -> int:
        """The trace clock: :func:`time.perf_counter_ns`."""
        return time.perf_counter_ns()

    @property
    def enabled(self) -> bool:
        """Whether :meth:`emit` currently records."""
        return self._enabled

    def enable(self) -> None:
        """Resume recording."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording (buffered events are kept)."""
        self._enabled = False

    def emit(self, name: str, cat: str, start_ns: int, end_ns: int,
             args: Optional[Mapping] = None) -> None:
        """Record one complete span with explicit timestamps."""
        if not self._enabled:
            return
        tid = threading.get_ident()
        event = TraceEvent(name, cat, start_ns, end_ns - start_ns, tid, args)
        with self._lock:
            if tid not in self._thread_names:
                self._thread_names[tid] = threading.current_thread().name
            if self._ring[self._head] is not None:
                self._dropped += 1
            self._ring[self._head] = event
            self._head = (self._head + 1) % self.capacity
            self._recorded += 1

    def emit_async(self, name: str, cat: str, id: int,
                   start_ns: int, end_ns: int,
                   args: Optional[Mapping] = None) -> None:
        """Record one async span (rendered on a per-``(cat, id)`` track).

        Use for lifecycles that cross threads — e.g. a serving request
        that is submitted on a caller thread and executed on a lane
        thread — where thread-track spans could not nest well-formedly.
        """
        if not self._enabled:
            return
        tid = threading.get_ident()
        event = TraceEvent(name, cat, start_ns, end_ns - start_ns, tid,
                           args, kind=ASYNC, id=int(id))
        with self._lock:
            if tid not in self._thread_names:
                self._thread_names[tid] = threading.current_thread().name
            if self._ring[self._head] is not None:
                self._dropped += 1
            self._ring[self._head] = event
            self._head = (self._head + 1) % self.capacity
            self._recorded += 1

    def next_async_id(self) -> int:
        """A fresh id for one async lifecycle (monotonic, thread-safe)."""
        with self._lock:
            self._async_ids += 1
            return self._async_ids

    # -- span stack ----------------------------------------------------
    def span(self, name: str, cat: str = "",
             args: Optional[Mapping] = None) -> _SpanContext:
        """Context manager recording a span around its body."""
        return _SpanContext(self, name, cat, args)

    def async_span(self, name: str, cat: str, id: int,
                   args: Optional[Mapping] = None) -> _AsyncSpanContext:
        """Context manager recording an async span around its body."""
        return _AsyncSpanContext(self, name, cat, id, args)

    def begin(self, name: str, cat: str = "",
              args: Optional[Mapping] = None) -> None:
        """Open a span on this thread's stack (explicit begin/end API)."""
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        stack.append((name, cat, args, time.perf_counter_ns()))

    def end(self) -> None:
        """Close the innermost :meth:`begin` span on this thread."""
        stack = getattr(self._stacks, "stack", None)
        if not stack:
            raise RuntimeError("Tracer.end() without a matching begin() "
                               "on this thread")
        name, cat, args, start_ns = stack.pop()
        self.emit(name, cat, start_ns, time.perf_counter_ns(), args=args)

    # ------------------------------------------------------------------
    # Inspection / export
    # ------------------------------------------------------------------
    def export(self) -> Dict:
        """One consistent snapshot of the buffer and its counters.

        Everything is read under a single lock acquisition, so the
        invariant ``recorded == buffered + dropped`` holds in the returned
        snapshot even while other threads keep emitting — an export can
        never observe a span that is counted neither as buffered nor as
        dropped.  (Reading ``events()`` and ``stats()`` separately cannot
        make that promise: a wraparound between the two calls moves a span
        from the buffer into the drop count unseen.)  This is what the
        trace mergers and the registry collector read.
        """
        with self._lock:
            ordered = self._ring[self._head:] + self._ring[:self._head]
            events = [event for event in ordered if event is not None]
            return {
                "events": events,
                "thread_names": dict(self._thread_names),
                "recorded": self._recorded,
                "buffered": len(events),
                "dropped": self._dropped,
                "capacity": self.capacity,
                "enabled": self._enabled,
                "epoch_ns": self._epoch_ns,
            }

    @property
    def epoch_ns(self) -> int:
        """The trace-clock origin: ``ts`` fields are relative to this."""
        return self._epoch_ns

    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        with self._lock:
            ordered = self._ring[self._head:] + self._ring[:self._head]
        return [event for event in ordered if event is not None]

    def clear(self) -> None:
        """Drop every buffered event and reset the drop counter."""
        with self._lock:
            self._ring = [None] * self.capacity
            self._head = 0
            self._dropped = 0
            self._recorded = 0
            self._epoch_ns = time.perf_counter_ns()

    def stats(self) -> Dict[str, int]:
        """Recording counters: recorded / buffered / dropped / capacity."""
        snapshot = self.export()
        return {key: snapshot[key] for key in
                ("recorded", "buffered", "dropped", "capacity", "enabled")}

    def publish_metrics(self, registry,
                        labels: Optional[Mapping[str, str]] = None) -> None:
        """Expose the recording counters via a ``MetricsRegistry``.

        Registers a pull-style collector refreshing ``tracer_spans_recorded``
        / ``tracer_spans_dropped`` / ``tracer_spans_buffered`` gauges before
        every snapshot, so drop accounting is visible in the same Prometheus
        exposition as the serving and worker metrics instead of requiring a
        ``tracer.stats()`` call by hand.
        """
        labels = dict(labels) if labels else None
        gauge = registry.gauge

        def collect(_registry) -> None:
            snapshot = self.export()
            gauge("tracer_spans_recorded", "Spans ever recorded",
                  labels=labels).set(snapshot["recorded"])
            gauge("tracer_spans_dropped",
                  "Spans overwritten by ring wraparound",
                  labels=labels).set(snapshot["dropped"])
            gauge("tracer_spans_buffered", "Spans currently buffered",
                  labels=labels).set(snapshot["buffered"])

        registry.register_collector(collect)

    def chrome_trace(self, process_name: str = "repro") -> Dict:
        """The buffered spans as a Chrome trace-event JSON object.

        Thread-track spans become ``"ph": "X"`` complete events (``ts`` /
        ``dur`` in microseconds, relative to the tracer's epoch); async
        spans become ``"b"`` / ``"e"`` pairs keyed by ``(cat, id)``;
        process and thread names are attached as ``"M"`` metadata events.
        The result loads directly in Perfetto / ``chrome://tracing``.
        """
        pid = os.getpid()
        # One atomic snapshot: events, thread names and drop counters are
        # taken under a single lock acquisition, so an emit racing this
        # export cannot make the trace claim fewer drops than it had when
        # its newest span was buffered.
        snapshot = self.export()
        epoch = snapshot["epoch_ns"]
        trace_events: List[Dict] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process_name},
        }]
        for tid, tname in sorted(snapshot["thread_names"].items()):
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": tname},
            })
        for event in snapshot["events"]:
            ts_us = (event.start_ns - epoch) / 1e3
            dur_us = event.dur_ns / 1e3
            if event.kind == ASYNC:
                common = {"name": event.name, "cat": event.cat or "default",
                          "pid": pid, "tid": event.tid,
                          "id": event.id}
                begin = dict(common, ph="b", ts=ts_us)
                if event.args:
                    begin["args"] = dict(event.args)
                trace_events.append(begin)
                trace_events.append(dict(common, ph="e", ts=ts_us + dur_us))
            else:
                record = {
                    "name": event.name, "cat": event.cat or "default",
                    "ph": "X", "ts": ts_us, "dur": dur_us,
                    "pid": pid, "tid": event.tid,
                }
                if event.args:
                    record["args"] = dict(event.args)
                trace_events.append(record)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            # Perfetto ignores unknown top-level keys; drop accounting rides
            # along so a truncated flight-recorder trace is self-describing.
            "metadata": {
                "recorded": snapshot["recorded"],
                "dropped": snapshot["dropped"],
            },
        }

    def write_chrome_trace(self, path, process_name: str = "repro") -> None:
        """Serialize :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(process_name=process_name), fh)
