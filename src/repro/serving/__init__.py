"""repro.serving — batched inference serving on top of Ramiel-compiled schedules.

The rest of the package is one-shot: compile a model, execute it once.
This subsystem amortizes that work across request traffic:

* :mod:`repro.serving.engine` — :class:`InferenceEngine`, the front door
  and the one request path: validate → admit; then a free replica of the
  artifact's lane (one thread per replica; a ``"plan"`` lane grows to one
  replica per core under load) takes a micro-batch out of the admission
  queue → dispatches it under the resilience policy → session execute →
  resolves each request's one future.
* :mod:`repro.serving.artifact_cache` — create-exactly-once LRU cache of
  the artifacts' lanes keyed by (model fingerprint, config fingerprint,
  input signature).
* :mod:`repro.serving.batching` — batch-axis stacking and scattering of a
  micro-batch (what a free lane finds queued for it: no closing timer).
* :mod:`repro.serving.metrics` — throughput, latency percentiles,
  batch-size histogram and cache statistics.
* :mod:`repro.serving.qos` — multi-tenant admission control and the one
  queue a request waits in: weighted deadline-aware fair queueing that
  holds up to the moment of execution, bounded-queue backpressure
  (429/503 + Retry-After) and per-tenant artifact cache quotas.  The HTTP
  transport over all of this lives in :mod:`repro.gateway`.

The request feeds and load helpers (``example_inputs``,
``signature_inputs``, ``drive_load``, ``naive_throughput``) live in
:mod:`repro.models.inputs` and are re-exported here.  See
``examples/serving_demo.py`` and the ``repro serve-bench`` /
``repro warmup`` CLI verbs.
"""

from repro.serving.artifact_cache import ArtifactCache, ArtifactKey
from repro.serving.batching import (
    BATCH_AXIS,
    ServingError,
    scatter_outputs,
    stack_requests,
)
from repro.models.inputs import (
    drive_load,
    example_inputs,
    naive_throughput,
    signature_inputs,
)
from repro.serving.engine import (
    FAIL_FAST,
    CompiledArtifact,
    EngineConfig,
    InferenceEngine,
    ShapeMismatchError,
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
    "CompiledArtifact",
    "EngineConfig",
    "FAIL_FAST",
    "InferenceEngine",
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
