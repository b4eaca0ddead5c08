"""Self-healing execution: fault injection, retry, degradation.

The serving stack's fault-tolerance layer, built from small orthogonal
pieces that compose across :mod:`repro.runtime` and :mod:`repro.serving`.
Worker liveness is not here: a
:class:`~repro.runtime.worker_pool.WarmExecutorPool` watches its own
workers where it already waits (a dead worker is respawned at dispatch
and fails a run in flight within ``fail_grace_s``), and its ``heal()`` is
the recovery entry point :meth:`~repro.runtime.session.Session.recover`
calls.

* :class:`FaultInjector` / :class:`FaultSpec` — deterministic fault
  injection (crash, hang, slow, exception, channel corruption, slab
  poisoning) shipped to pool workers as picklable directives; zero-cost
  when detached.
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

__all__ = [
    "BreakerOpen",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "ResilienceConfig",
    "ResilientDispatcher",
    "RetryPolicy",
]
