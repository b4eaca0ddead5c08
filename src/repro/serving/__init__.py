"""repro.serving — batched inference serving on top of Ramiel-compiled schedules.

The rest of the package is one-shot: compile a model, execute it once.
This subsystem amortizes that work across request traffic:

* :mod:`repro.serving.engine` — :class:`InferenceEngine`, the front door
  and the one request path: validate → admit → cache-or-compile →
  micro-batch → dispatch under the resilience policy → session execute.
* :mod:`repro.serving.artifact_cache` — compile-exactly-once LRU cache of
  compiled artifacts keyed by (model fingerprint, config fingerprint,
  input signature).
* :mod:`repro.serving.batching` — the dynamic micro-batcher (max batch
  size / max wait policy, batch-axis stacking and scattering).
* :mod:`repro.serving.metrics` — throughput, latency percentiles,
  batch-size histogram and cache statistics.
* :mod:`repro.serving.qos` — multi-tenant admission control: weighted
  deadline-aware fair queueing, bounded-queue backpressure (429/503 +
  Retry-After), per-artifact concurrency caps and per-tenant artifact
  cache quotas.  The HTTP transport over all of this lives in
  :mod:`repro.gateway`.

See ``examples/serving_demo.py`` and the ``repro serve-bench`` /
``repro warmup`` CLI verbs.
"""

from repro.serving.artifact_cache import ArtifactCache, ArtifactKey
from repro.serving.batching import (
    BATCH_AXIS,
    BatcherClosed,
    BatchPolicy,
    MicroBatcher,
    ServingError,
    scatter_outputs,
    stack_requests,
)
from repro.serving.engine import (
    FAIL_FAST,
    CompiledArtifact,
    EngineConfig,
    InferenceEngine,
    ShapeMismatchError,
    drive_load,
    example_inputs,
    naive_throughput,
    signature_inputs,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.qos import (
    AdmissionQueue,
    DeadlineExpired,
    EngineOverloaded,
    QoSConfig,
    QoSError,
    QoSFrontend,
    TenantConfig,
    TenantQueueFull,
    UnknownTenant,
)

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
    "ArtifactCache",
    "ArtifactKey",
    "BATCH_AXIS",
    "BatchPolicy",
    "BatcherClosed",
    "CompiledArtifact",
    "EngineConfig",
    "FAIL_FAST",
    "InferenceEngine",
    "MicroBatcher",
    "ServingError",
    "ServingMetrics",
    "ShapeMismatchError",
    "drive_load",
    "example_inputs",
    "naive_throughput",
    "scatter_outputs",
    "signature_inputs",
    "stack_requests",
]
