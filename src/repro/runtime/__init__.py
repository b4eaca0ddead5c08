"""Execution substrate for IR graphs and for Ramiel-generated code.

The paper generates *PyTorch + Python* code.  PyTorch is not available in
this environment, so this package provides the pieces the generated code
and the benchmarks need:

* :mod:`repro.runtime.functional` — a flat namespace of numpy-backed
  operators (``conv2d``, ``relu``, ``matmul``, ``concat`` …).  Generated
  code imports it as ``import repro.runtime.functional as F`` and calls
  ``F.conv2d(...)`` exactly where the paper's code would call
  ``torch.nn.functional.conv2d``.
* :class:`repro.runtime.executor.GraphExecutor` — a reference interpreter
  that runs an IR graph directly (used to check generated code against the
  source model and by constant folding).
* :class:`repro.runtime.plan.ExecutionPlan` — the planned execution engine:
  the generated sequential module's code, computing into one
  liveness-packed memory slab per input signature (elementwise nodes in
  place on a dying input's range); the serving engine's default executor,
  differentially tested against :class:`GraphExecutor`.
* :mod:`repro.runtime.channels` — the cluster-to-cluster transports
  (shared-memory tensor slots between processes, as in the paper's
  process-per-cluster runtime; queues between threads).
* :class:`repro.runtime.worker_pool.WarmExecutorPool` — the one
  multi-worker runtime: long-lived workers, one per placed cluster (at
  most one per core), that execute a generated module repeatedly without
  per-call thread/process spawn.  Every run of generated parallel code
  goes through it; no operator keeps a thread pool of its own.
* :mod:`repro.runtime.profiler` — per-node and per-step timing, read from
  the ``"plan"`` spans a traced :class:`ExecutionPlan` emits (the tracer is
  the one per-step timer), for the schedule simulator and ``ramiel trace``.
"""

from repro.runtime.executor import GraphExecutor, execute_model, ExecutionError
from repro.runtime.plan import ExecutionPlan, PlanError
from repro.runtime.profiler import (OpProfile, GraphProfile, profile_model,
                                    profile_plan_steps)
from repro.runtime.session import (
    IOBinding,
    Session,
    create_session,
    known_executors,
    validate_executor,
)
from repro.runtime.tensor_utils import Workspace
from repro.runtime.worker_pool import WarmExecutorPool

__all__ = [
    "GraphExecutor",
    "execute_model",
    "ExecutionError",
    "ExecutionPlan",
    "IOBinding",
    "PlanError",
    "Session",
    "create_session",
    "known_executors",
    "validate_executor",
    "WarmExecutorPool",
    "Workspace",
    "OpProfile",
    "GraphProfile",
    "profile_model",
    "profile_plan_steps",
]
