"""Recover or fail explicitly: fault injection and retry.

The serving stack's fault-tolerance layer, built from small orthogonal
pieces that compose across :mod:`repro.runtime` and :mod:`repro.serving`.
The repair rule is not here: a broken executor is replaced, never healed
in place.  A :class:`~repro.runtime.worker_pool.WarmExecutorPool` watches
its own workers where it already waits (a worker dead at dispatch fails
the run at once, one dying mid-run fails it within ``fail_grace_s``) and
breaks on any failure; :meth:`~repro.runtime.session.Session.recover`
replaces the broken pool (or plan) between retries.  Redundancy is not
here either: a serving lane's replicas are each other's, and a forked
replica that still fails after its retries retires and hands its batch
to replica 0 (:class:`repro.serving.engine.Replica`).

* :class:`FaultInjector` / :class:`FaultSpec` — deterministic fault
  injection (crash, hang, slow, exception, channel corruption, slab
  poisoning) shipped to pool workers as picklable directives; zero-cost
  when detached.
* :class:`RetryPolicy` — bounded attempts, deterministic-jitter backoff,
  per-request deadline budget.
* :class:`ResilienceConfig` — the serving engine's knob bundle
  (``EngineConfig.resilience``): the retry policy every batch runs under
  and the fault injector its forked replicas' workers get.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
)
from repro.resilience.policy import ResilienceConfig, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "ResilienceConfig",
    "RetryPolicy",
]
