"""repro.observability — unified tracing and metrics across the stack.

The paper's Ramiel runtime is steered by a profile database holding
"information about the execution trace and the slacks during
communication"; this subsystem is the repo's version of it:

* :mod:`repro.observability.trace` — :class:`Tracer`, a low-overhead span
  recorder (``perf_counter_ns`` intervals in a thread-safe ring buffer)
  with Chrome trace-event JSON export, loadable in Perfetto.  The plan
  (per-step spans, compiled in at enable time), ``Session.run`` and the
  serving engine's request lifecycle record into it.
* :mod:`repro.observability.metrics` — :class:`MetricsRegistry`: counters,
  gauges and fixed-bucket histograms with Prometheus text exposition.
  Serving mirrors into it; sessions and engines publish arena, binding
  and worker-pool stats through pull-style collectors.
* :mod:`repro.observability.context` and :mod:`repro.observability.merge`
  (lazily exported, see ``__getattr__``) — :class:`TraceContext`, the
  picklable token dispatched work carries so per-worker spans correlate
  with their request, and :func:`merge_traces`, which merges shipped span
  buffers, as recorded on the shared clock, into one multi-process Chrome
  trace.
* :mod:`repro.observability.bench` — ``ramiel bench compare BASE``: the
  paired perflab protocol against a base commit, written to the committed
  ``BENCH_<workload>.json`` files.  Only the CLI imports it.

Entry points: ``ramiel trace <model>`` writes a ``trace.json`` plus a
metrics report (``--executor pool|process`` gives the merged multi-worker
view); ``InferenceEngine(..., tracer=...)`` and ``Session.set_tracer``
attach tracers to live systems.
"""

from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.trace import TraceEvent, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "WorkerTraceBuffer",
    "merge_traces",
    "write_merged_trace",
]

#: lazily-exported name -> defining submodule (the PR 6 export pattern:
#: ``import repro.observability`` must not pay for modules a user never
#: touches — gated by the import-cost check in tests/test_observability.py)
_LAZY_EXPORTS = {
    "TraceContext": "repro.observability.context",
    "WorkerTraceBuffer": "repro.observability.merge",
    "merge_traces": "repro.observability.merge",
    "write_merged_trace": "repro.observability.merge",
}


def __getattr__(name):
    """Lazily expose the cross-boundary modules."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.observability' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
