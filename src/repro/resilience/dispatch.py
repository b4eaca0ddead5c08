"""Resilient dispatch: retry + recover, circuit breaking, degradation.

This is the policy layer the serving engine threads between every request
batch and the executor that runs it.  A :class:`ResilientDispatcher`
wraps one *primary* dispatch callable (a session batch run) with:

1. a :class:`~repro.resilience.policy.RetryPolicy` — failed or timed-out
   batches are re-dispatched (after an injectable ``recover`` hook, e.g.
   ``Session.recover()``) so callers' futures only fail once the policy
   is exhausted;
2. a :class:`~repro.resilience.breaker.CircuitBreaker` — an executor that
   keeps failing *after its retries* trips the breaker, and while it is
   open traffic flows to the *fallback* (the serving engine supplies a
   lazily-built in-process ``"plan"`` session) instead of hammering the
   broken primary; half-open probes restore the fast path;
3. counters for every decision (retries, degraded runs, breaker opens),
   visible in :meth:`stats` (the serving engine publishes them per
   artifact as ``serving_resilience_*`` gauges).

:class:`ResilienceConfig` is the user-facing knob bundle
(``EngineConfig.resilience``).  Fail-fast serving is a *value* of it, not
its absence: the engine's default (``repro.serving.engine.FAIL_FAST``) is
one attempt, a breaker threshold that is never reached and no
degradation, so a failed batch surfaces the executor's own error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.resilience.breaker import BreakerOpen, CircuitBreaker
from repro.resilience.policy import RetryPolicy

__all__ = ["ResilienceConfig", "ResilientDispatcher"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for a serving engine (all layers optional).

    Parameters
    ----------
    retry:
        Policy applied around each primary dispatch; ``max_attempts=1``
        disables re-dispatch while keeping the breaker.
    breaker_threshold / breaker_cooldown_s / breaker_half_open_probes:
        Artifact-level circuit breaker: consecutive *post-retry* failures
        before opening, seconds before half-open probing, and how many
        concurrent probes to admit.
    degrade:
        When True (and the artifact has a degraded fallback — pool- and
        process-backed artifacts fall back to the in-process ``"plan"``
        executor), an open breaker serves degraded instead of failing.
    fault_injector:
        Optional deterministic :class:`~repro.resilience.faults.FaultInjector`
        attached to pool dispatch for chaos testing.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    breaker_half_open_probes: int = 1
    degrade: bool = True
    fault_injector: Optional[object] = None


class ResilientDispatcher:
    """Retry/breaker/degradation wrapper around one dispatch callable.

    Parameters
    ----------
    primary:
        The fast-path dispatch, called with the caller's positional
        arguments (the serving engine passes the stacked batch feed).
    config:
        The :class:`ResilienceConfig` supplying policy and breaker knobs.
    recover:
        Optional hook run between retry attempts (e.g.
        ``Session.recover``); a recovery failure aborts the retry loop
        and propagates.
    fallback:
        Optional degraded dispatch used while the breaker is open (and
        as last resort when the primary exhausts its retries).  Called
        with the same arguments as ``primary``.
    name:
        Label for metrics/stats.
    """

    def __init__(self, primary: Callable, config: ResilienceConfig,
                 recover: Optional[Callable[[], None]] = None,
                 fallback: Optional[Callable] = None,
                 name: str = "dispatch") -> None:
        self.name = name
        self.config = config
        self._primary = primary
        self._recover = recover
        self._fallback = fallback
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
            half_open_probes=config.breaker_half_open_probes)
        self._lock = threading.Lock()
        self._retries = 0
        self._recoveries = 0
        self._degraded_runs = 0
        self._primary_runs = 0
        self._exhausted = 0

    # ------------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        """Dispatch under the full policy stack; returns the result.

        Raises :class:`~repro.resilience.breaker.BreakerOpen` when the
        breaker is open and no fallback is configured (or degradation is
        disabled); otherwise raises the primary's last failure once every
        layer is exhausted and no fallback can serve.
        """
        can_degrade = self.config.degrade and self._fallback is not None
        if not self.breaker.allow():
            if can_degrade:
                return self._run_fallback(*args, **kwargs)
            raise BreakerOpen(
                f"{self.name}: circuit breaker is open and no degraded "
                "fallback is configured")
        try:
            result = self.config.retry.call(
                lambda: self._run_primary(*args, **kwargs),
                on_retry=self._on_retry)
        except Exception:
            self.breaker.record_failure()
            with self._lock:
                self._exhausted += 1
            if can_degrade:
                return self._run_fallback(*args, **kwargs)
            raise
        self.breaker.record_success()
        return result

    def _run_primary(self, *args, **kwargs):
        with self._lock:
            self._primary_runs += 1
        return self._primary(*args, **kwargs)

    def _run_fallback(self, *args, **kwargs):
        with self._lock:
            self._degraded_runs += 1
        return self._fallback(*args, **kwargs)

    def _on_retry(self, attempt: int, exc: BaseException) -> None:
        with self._lock:
            self._retries += 1
        if self._recover is not None:
            self._recover()
            with self._lock:
                self._recoveries += 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Dispatch decision counters plus the breaker's state."""
        with self._lock:
            out = {
                "primary_runs": self._primary_runs,
                "retries": self._retries,
                "recoveries": self._recoveries,
                "degraded_runs": self._degraded_runs,
                "exhausted": self._exhausted,
            }
        out["breaker"] = self.breaker.stats()
        return out
