"""Deterministic fault injection for the execution and serving stack.

Recovery code is only trustworthy if its failure paths run in CI, and
failure paths are exactly the code you cannot reach with well-formed
inputs.  A :class:`FaultInjector` holds a list of :class:`FaultSpec`\\ s —
each naming a *site* (a string like ``"worker.execute"``), a fault *kind*,
and a deterministic schedule (skip the first ``after`` matching calls,
then fire ``times`` times, optionally only for one worker index).
:class:`~repro.runtime.worker_pool.WarmExecutorPool` is where it is
threaded through: the pool asks the injector for a *directive* per
dispatched job and ships it inside the job tuple, and the worker applies it
(crash, hang, slow, exception, corrupt) on its own side of the process
boundary with :func:`apply_worker_fault`.

The harness is **zero-cost when disabled**: an unattached pool dispatches
``None`` in the directive slot and workers pay one ``is not None`` check
(gated at parity in ``benchmarks/test_observability_overhead.py``).

Determinism: schedules are counter-based (``after`` / ``times``) so a
chaos test replays bit-for-bit; probabilistic specs draw from a private
``random.Random(seed)`` owned by the injector, never the global RNG.

Fault kinds
-----------
``"crash"``
    The worker dies abruptly — ``os._exit`` for process workers (no
    cleanup handlers, like a segfault or OOM kill), a bare ``return`` for
    thread workers (the thread vanishes without replying).
``"hang"``
    The worker sleeps for ``seconds`` *without replying* for this job —
    what a deadlocked channel ``get`` looks like from the coordinator.
``"slow"``
    The worker sleeps for ``seconds``, then executes and replies
    normally — a degraded-but-alive worker (tests deadline budgets).
``"exc"``
    The worker raises ``RuntimeError(message)`` inside its execute path —
    the traceback ships home across the process boundary.
``"corrupt"``
    The worker replies with a malformed message on the result channel —
    tests the collector's protocol hardening.
``"poison"``
    The worker fills its slabs and its scratch workspace with ``0xFF``
    bytes (NaN in every float dtype), then executes and replies normally —
    a run that reads a slab range or scratch it did not write this run
    (a destination planned to outlive its interval) returns NaN.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "apply_worker_fault",
]

#: the supported fault kinds, in documentation order
FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "slow", "exc", "corrupt", "poison")


class InjectedFault(RuntimeError):
    """Raised by ``"exc"`` faults inside a worker."""


@dataclass
class FaultSpec:
    """One deterministic fault schedule.

    Parameters
    ----------
    site:
        Dispatch-site name the spec matches (e.g. ``"worker.execute"``).
    kind:
        One of :data:`FAULT_KINDS`.
    times:
        How many matching calls fire the fault (``-1`` = every one).
    after:
        Skip this many matching calls before the first firing.
    worker:
        Restrict the fault to one worker/cluster index (``None`` = any).
    probability:
        Fire with this probability (drawn from the injector's seeded RNG)
        instead of unconditionally.  Schedules stay deterministic for a
        fixed seed.
    seconds:
        Sleep duration for ``"hang"`` / ``"slow"`` faults.
    message:
        Exception text for ``"exc"`` faults.
    """

    site: str
    kind: str
    times: int = 1
    after: int = 0
    worker: Optional[int] = None
    probability: float = 1.0
    seconds: float = 0.05
    message: str = "injected fault"
    #: matching calls seen so far (mutated by the injector, under its lock)
    seen: int = field(default=0, repr=False)
    #: times the spec actually fired
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")


class FaultInjector:
    """Decides, deterministically, which dispatches suffer which faults.

    Thread-safe: the serving engine's lane threads may consult one
    injector concurrently.  Construct with the
    specs (or :meth:`add`), attach via
    ``WarmExecutorPool.set_fault_injector`` /
    ``EngineConfig(fault_injector=...)``.
    """

    def __init__(self, specs: Optional[List[FaultSpec]] = None,
                 seed: int = 0) -> None:
        self._specs: List[FaultSpec] = list(specs or [])
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._fired: Dict[Tuple[str, str], int] = {}

    def add(self, spec: FaultSpec) -> FaultSpec:
        """Append one spec; returns it (counters live on the spec)."""
        with self._lock:
            self._specs.append(spec)
        return spec

    def clear(self) -> None:
        """Drop every spec (the injector stays attached but inert)."""
        with self._lock:
            self._specs.clear()

    # ------------------------------------------------------------------
    def directive(self, site: str,
                  worker: Optional[int] = None) -> Optional[Tuple]:
        """The fault directive for one dispatch, or ``None``.

        Coordinator-side: called once per (site, worker) dispatch; the
        returned tuple is small and picklable so it can ride a job tuple
        across the process boundary.  At most one spec fires per call
        (first match wins, in insertion order).
        """
        with self._lock:
            for spec in self._specs:
                if spec.site != site:
                    continue
                if spec.worker is not None and spec.worker != worker:
                    continue
                spec.seen += 1
                if spec.seen <= spec.after:
                    continue
                if spec.times >= 0 and spec.fired >= spec.times:
                    continue
                if spec.probability < 1.0 and \
                        self._rng.random() >= spec.probability:
                    continue
                spec.fired += 1
                key = (site, spec.kind)
                self._fired[key] = self._fired.get(key, 0) + 1
                if spec.kind in ("hang", "slow"):
                    return (spec.kind, spec.seconds)
                if spec.kind == "exc":
                    return (spec.kind, spec.message)
                return (spec.kind,)
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """``{"site:kind": fired_count}`` for every fault that fired."""
        with self._lock:
            return {f"{site}:{kind}": count
                    for (site, kind), count in sorted(self._fired.items())}


# ---------------------------------------------------------------------------
# Worker-side application (runs inside pool workers, both backends)
# ---------------------------------------------------------------------------
def apply_worker_fault(directive: Tuple, *, is_process: bool) -> str:
    """Apply a shipped directive inside a worker; returns the next action.

    Returns one of:

    * ``"run"`` — continue executing the job normally (``"slow"`` slept
      first; ``"exc"`` raises from here instead),
    * ``"silent"`` — do not reply for this job (``"hang"``, and thread
      ``"crash"`` where the caller must exit its loop),
    * ``"corrupt"`` — reply with a malformed message,
    * ``"poison"`` — overwrite the worker's memory, then run normally.

    ``"crash"`` on a process worker never returns (``os._exit``).
    """
    kind = directive[0]
    if kind == "crash":
        if is_process:
            import os
            os._exit(23)
        return "silent"
    if kind == "hang":
        time.sleep(directive[1])
        return "silent"
    if kind == "slow":
        time.sleep(directive[1])
        return "run"
    if kind == "exc":
        raise InjectedFault(directive[1])
    if kind in ("corrupt", "poison"):
        return kind
    raise InjectedFault(f"unknown fault directive {directive!r}")
