"""repro — reproduction of "Automatic Task Parallelization of Dataflow Graphs in ML/DL Models".

The package implements **Ramiel**, the paper's end-to-end tool, together
with every substrate it depends on:

* :mod:`repro.ir` — an ONNX-like model IR (the input format),
* :mod:`repro.models` — builders for the paper's eight benchmark models,
* :mod:`repro.graph` — dataflow-graph conversion, cost model, critical path,
* :mod:`repro.passes` — constant propagation / dead-code elimination,
* :mod:`repro.clustering` — linear clustering, merging, cloning,
  hyperclustering and schedule simulation (the paper's core contribution),
* :mod:`repro.codegen` — readable parallel Python code generation,
* :mod:`repro.runtime` — a numpy operator runtime plus process/thread
  executors and warm worker pools (one worker per placed cluster) for the
  generated code,
* :mod:`repro.baselines` — the IOS dynamic-programming scheduler and other
  comparison points,
* :mod:`repro.pipeline` — the Ramiel pipeline tying it all together, plus
  content fingerprints of models/configs for artifact caching,
* :mod:`repro.serving` — a batched inference-serving engine on top of
  compiled schedules: compile-once artifact cache, dynamic micro-batching
  of concurrent requests, and serving metrics (throughput, latency
  percentiles, batch histogram, cache hit rate),
* :mod:`repro.observability` — a span tracer with Chrome trace-event
  export (Perfetto-loadable) and one metrics registry (counters, gauges,
  histograms, Prometheus text exposition) shared by plan, session and
  serving,
* :mod:`repro.resilience` — recover or fail explicitly: deterministic
  fault injection and retry policies (a session replaces a broken worker
  pool, and a lane's replica 0 answers for a failing forked replica),
* :mod:`repro.gateway` — the asyncio HTTP front door over the serving
  engine (stdlib-only HTTP/1.1; tensors as base64 raw buffers in JSON,
  bitwise exact, parsed closed) plus
  an open-loop multi-tenant load harness; multi-tenant QoS itself
  (weighted fair admission, backpressure, deadlines, cache quotas)
  lives in :mod:`repro.serving.qos`.

Quickstart::

    from repro import ramiel_compile
    from repro.models import build_model

    model = build_model("squeezenet")
    result = ramiel_compile(model)
    print(result.summary())
"""

__version__ = "1.0.0"

from repro.ir import Model, Graph, GraphBuilder
from repro.graph import (
    DataflowGraph,
    model_to_dataflow,
    potential_parallelism,
    compute_metrics,
)

__all__ = [
    "__version__",
    "Model",
    "Graph",
    "GraphBuilder",
    "DataflowGraph",
    "model_to_dataflow",
    "potential_parallelism",
    "compute_metrics",
    "ramiel_compile",
    "RamielPipeline",
    "InferenceEngine",
    "EngineConfig",
    "QoSConfig",
    "TenantConfig",
    "GatewayServer",
    "GatewayThread",
    "GatewayConfig",
    "Session",
    "IOBinding",
    "create_session",
    "Tracer",
    "MetricsRegistry",
    "TraceContext",
    "merge_traces",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "ResilienceConfig",
]


def __getattr__(name):
    """Lazily expose the heavier pipeline entry points.

    Importing :mod:`repro.pipeline` pulls in codegen and the runtime; doing
    it lazily keeps ``import repro`` cheap for users that only need the IR
    or the graph analyses.
    """
    if name in ("ramiel_compile", "RamielPipeline", "PipelineConfig"):
        from repro import pipeline as _pipeline

        return getattr(_pipeline, name)
    if name in ("InferenceEngine", "EngineConfig", "QoSConfig",
                "TenantConfig"):
        from repro import serving as _serving

        return getattr(_serving, name)
    if name in ("GatewayServer", "GatewayThread", "GatewayConfig"):
        from repro import gateway as _gateway

        return getattr(_gateway, name)
    if name in ("Session", "IOBinding", "create_session",
                "known_executors", "validate_executor"):
        from repro.runtime import session as _session

        return getattr(_session, name)
    if name in ("Tracer", "MetricsRegistry", "TraceContext",
                "merge_traces"):
        from repro import observability as _observability

        return getattr(_observability, name)
    if name in ("FaultInjector", "FaultSpec", "InjectedFault", "RetryPolicy",
                "ResilienceConfig"):
        from repro import resilience as _resilience

        return getattr(_resilience, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
