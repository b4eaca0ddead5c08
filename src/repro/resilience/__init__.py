"""Self-healing execution: supervision, fault injection, retry, degradation.

The serving stack's fault-tolerance layer, built from small orthogonal
pieces that compose across :mod:`repro.runtime` and :mod:`repro.serving`:

* :class:`FaultInjector` / :class:`FaultSpec` — deterministic fault
  injection (crash, hang, slow, exception, channel corruption, slab
  poisoning) shipped to pool workers as picklable directives; zero-cost
  when detached.
* :class:`PoolSupervisor` — heartbeat + liveness polling over a
  :class:`~repro.runtime.worker_pool.WarmExecutorPool`; detects dead and
  wedged workers in seconds and respawns *individual* workers.
* :class:`RetryPolicy` — bounded attempts, deterministic-jitter backoff,
  per-request deadline budget.
* :class:`CircuitBreaker` — artifact-level closed/open/half-open gate.
* :class:`ResilientDispatcher` / :class:`ResilienceConfig` — the policy
  stack the serving engine wraps around batch dispatch (retry + recover,
  breaker, degraded fallback onto the in-process ``"plan"`` executor).
"""

from repro.resilience.breaker import BreakerOpen, CircuitBreaker
from repro.resilience.dispatch import ResilienceConfig, ResilientDispatcher
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import PoolSupervisor

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "PoolSupervisor",
    "ResilienceConfig",
    "ResilientDispatcher",
    "RetryPolicy",
]
