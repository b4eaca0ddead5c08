"""Retry policies: bounded attempts, exponential backoff, deadline budget.

A :class:`RetryPolicy` is a frozen description of *how hard to try*: up to
``max_attempts`` attempts, exponential backoff between them
(``backoff_base_s`` doubling by ``backoff_multiplier`` up to
``backoff_max_s``) with **deterministic seeded jitter** — each
:meth:`call` derives its delays from a private ``random.Random(seed)`` so
a chaos test's recovery timeline replays exactly — all under an optional
``deadline_s`` wall-clock budget measured from the first attempt.

The policy is mechanism-free: :meth:`call` runs any callable, retrying on
the configured exception types and invoking an ``on_retry`` hook (used by
a serving replica to run ``Session.recover()`` and bump its counters)
between attempts.  When attempts or deadline run out, the *last* failure
propagates unchanged, so callers still see the true error.

:class:`ResilienceConfig` bundles the policy with an optional fault
injector for the serving engine.  Its default is fail-fast: one attempt.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type

__all__ = ["ResilienceConfig", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how patiently, to re-dispatch failed work.

    Parameters
    ----------
    max_attempts:
        Total attempts (1 = no retries).
    backoff_base_s:
        Delay before the first retry.
    backoff_multiplier:
        Growth factor per subsequent retry.
    backoff_max_s:
        Ceiling on any single delay (pre-jitter).
    jitter:
        Fraction of each delay drawn (deterministically, from ``seed``)
        uniformly in ``[-jitter, +jitter]`` and added — de-synchronizes
        retry storms without sacrificing replayability.
    deadline_s:
        Optional wall-clock budget across *all* attempts, measured from
        the first; once exceeded no further attempt starts.
    seed:
        Seed of the per-call jitter stream.
    retry_on:
        Exception types that trigger a retry; anything else propagates
        immediately.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.1
    deadline_s: Optional[float] = None
    seed: int = 0
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    # ------------------------------------------------------------------
    def delays(self) -> Iterator[float]:
        """The deterministic backoff sequence (one delay per retry)."""
        rng = random.Random(self.seed)
        delay = self.backoff_base_s
        for _ in range(self.max_attempts - 1):
            capped = min(delay, self.backoff_max_s)
            if self.jitter:
                capped *= 1.0 + rng.uniform(-self.jitter, self.jitter)
            yield max(capped, 0.0)
            delay *= self.backoff_multiplier

    def call(self, fn: Callable[[], object], *,
             on_retry: Optional[Callable[[int, BaseException], None]] = None,
             clock: Callable[[], float] = time.monotonic,
             sleep: Callable[[float], None] = time.sleep):
        """Run ``fn()`` under this policy; returns its result.

        ``on_retry(attempt, exc)`` runs before each re-dispatch (attempt
        numbering starts at 1 for the first *retry*); it may itself raise
        to abort the retry loop (e.g. an unrecoverable session).  ``clock``
        and ``sleep`` are injectable for tests.
        """
        deadline = (clock() + self.deadline_s
                    if self.deadline_s is not None else None)
        delays = self.delays()
        attempt = 0
        while True:
            try:
                return fn()
            except self.retry_on as exc:
                attempt += 1
                delay = next(delays, None)
                if delay is None:
                    raise
                if deadline is not None:
                    remaining = deadline - clock()
                    if remaining <= delay:
                        raise  # the budget cannot fund another attempt
                if on_retry is not None:
                    on_retry(attempt, exc)
                if delay > 0:
                    sleep(delay)


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for a serving engine.

    Parameters
    ----------
    retry:
        Policy every batch runs under, with ``Session.recover()`` between
        attempts.  The default, one attempt, is fail-fast: a failed batch
        on replica 0 fails its requests with the executor's own error.
    fault_injector:
        Optional deterministic :class:`~repro.resilience.faults.FaultInjector`
        attached to the forked replicas' pools for chaos testing.
    """

    retry: RetryPolicy = RetryPolicy(max_attempts=1)
    fault_injector: Optional[object] = None
