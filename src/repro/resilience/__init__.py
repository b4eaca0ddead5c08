"""Recover or fail explicitly: deterministic fault injection.

The serving stack's fault-tolerance layer, built from small orthogonal
pieces that compose across :mod:`repro.runtime` and :mod:`repro.serving`.
The repair rule is not here: a broken executor is replaced, never healed
in place, and a failed batch is never retried.  A
:class:`~repro.runtime.worker_pool.WarmExecutorPool` watches its own
workers where it already waits (a worker dead at dispatch fails the run
at once, one dying mid-run fails it within ``fail_grace_s``) and breaks
on any failure; :meth:`~repro.runtime.session.Session.recover` replaces
the broken pool (or plan).  Redundancy is not here either: every serving
replica is a forked one-worker session, and one whose batch fails fails
that batch with an error naming it and retires; the lane forks a fresh
one (:class:`repro.serving.engine.Replica`).

* :class:`FaultInjector` / :class:`FaultSpec` — deterministic fault
  injection (crash, hang, slow, exception, channel corruption, slab
  poisoning) shipped to pool workers as picklable directives; zero-cost
  when detached.  The serving engine attaches one to every replica's
  worker through ``EngineConfig.fault_injector``.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
]
