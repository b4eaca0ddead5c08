"""The host this process places on: its cores, and what they cost together.

The paper's schedule gives every cluster a dedicated core that no other
worker slows down.  A host need not honour that: a VM guest cannot see
whether its vCPUs share one physical core, and two workers that share
caches and memory bandwidth each run slower than one alone.  So the
runtime keeps one :class:`HostProfile` per process, built on first use
(never at import) and reused by every placement:

* ``cores`` — what the process may run on (the affinity mask where the
  platform has one), read when the profile is built;
* ``inflation(k)`` — the per-op slowdown when ``k`` pinned workers compute
  at once, measured by :func:`probe_inflation` the first time each ``k``
  is asked for.  One worker has none, so ``k = 1`` never probes; more
  workers than cores time-share them, so ``k > cores`` is
  ``inflation(cores) * k / cores`` (a one-core host never probes).

:meth:`repro.pipeline.RamielResult.placement` divides the simulated
K-worker speedup by ``inflation(K)`` before it decides whether a spread
wins.
"""

from __future__ import annotations

import os
import select
import signal
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.blas import pin_blas_threads, stop_blas_helpers

__all__ = ["HostProfile", "PROBE_BUDGET_S", "host_profile", "probe_inflation"]

#: wall-clock budget of one probe: forks, warm-up and every slice
PROBE_BUDGET_S = 0.15
#: a probe takes the median of at least this many alternated slices
MIN_SLICES = 3
#: a child that has not answered in this long is taken for wedged
_CHILD_TIMEOUT_S = 5.0


def _affinity_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class HostProfile:
    """``cores`` and a memoized ``inflation(k)`` for one process.

    ``measure(k)`` replaces the probe for ``2 <= k <= cores`` (a fixed
    profile passes ``lambda k: 1.0``: the paper's dedicated-core model).
    """

    def __init__(self, cores: Optional[int] = None,
                 measure: Optional[Callable[[int], float]] = None) -> None:
        self.cores = _affinity_cores() if cores is None else cores
        self._measure = measure
        self._inflation: Dict[int, float] = {}
        self._lock = threading.RLock()

    def inflation(self, k: int) -> float:
        """Per-op slowdown of ``k`` workers computing at once (1.0 for one)."""
        if k <= 1:
            return 1.0
        with self._lock:
            if k not in self._inflation:
                if self._measure is not None:
                    self._inflation[k] = float(self._measure(k))
                elif k > self.cores:
                    self._inflation[k] = self.inflation(self.cores) * k / self.cores
                else:
                    self._inflation[k] = probe_inflation(k)
            return self._inflation[k]


_PROFILE: Optional[HostProfile] = None
_PROFILE_LOCK = threading.Lock()


def host_profile() -> HostProfile:
    """This process's :class:`HostProfile`, built on the first call."""
    global _PROFILE
    with _PROFILE_LOCK:
        if _PROFILE is None:
            _PROFILE = HostProfile()
        return _PROFILE


def _mix() -> Callable[[], None]:
    """One pass of the fixed kernel mix: googlenet's inception-3a 3x3 conv
    and bert's feed-forward GEMM, at their zoo shapes, twice (~4-5 ms on
    one BLAS thread of a 2-vCPU guest).

    Twice, because on such a guest two busy vCPUs were seen to share one
    core in turns of about 4 ms: one mix (~2 ms) per worker at once often
    finished before either was stalled and read no inflation, while
    sustained concurrent passes ran at half speed.
    """
    from repro.runtime.ops.conv import conv2d
    from repro.runtime.ops.linear import gemm

    x = np.full((1, 96, 28, 28), 0.5, dtype=np.float32)
    w = np.full((128, 96, 3, 3), 0.25, dtype=np.float32)
    a = np.full((64, 256), 0.5, dtype=np.float32)
    b = np.full((256, 1024), 0.25, dtype=np.float32)

    def run() -> None:
        for _ in range(2):
            conv2d(x, w, pads=(1, 1, 1, 1))
            gemm(a, b)
    return run


def _serve(run: Callable[[], None], commands: int, results: int) -> None:
    """A probe child: one BLAS thread, one pass of the mix per ``r`` read."""
    pin_blas_threads(1)
    stop_blas_helpers()
    while os.read(commands, 1) == b"r":
        run()
        os.write(results, b"d")


def probe_inflation(k: int, budget_s: float = PROBE_BUDGET_S) -> float:
    """Measure the per-op slowdown of ``k`` concurrent pinned workers.

    Forks ``k`` children, each pinned to one BLAS thread, that run one pass
    of the fixed kernel mix per command.  A slice times, from this process,
    one child's pass alone and one pass of every child at once; the second
    wall over the first is the slice's inflation, so interference and
    workers that the scheduler stacks on one core both count.  Slices
    alternate which half goes first and which child runs alone, and stop
    while another one and the reaping still fit in ``budget_s`` (the first
    :data:`MIN_SLICES` always run).  Returns their median.
    """
    start = time.perf_counter()
    run = _mix()
    children: List[Tuple[int, int, int]] = []  # (pid, command fd, done fd)
    ok = False
    try:
        for _ in range(k):
            command_r, command_w = os.pipe()
            done_r, done_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                code = 1
                try:
                    for _, sibling_w, sibling_r in children:
                        os.close(sibling_w)
                        os.close(sibling_r)
                    os.close(command_w)
                    os.close(done_r)
                    _serve(run, command_r, done_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(command_r)
            os.close(done_w)
            children.append((pid, command_w, done_r))

        def wall(indices) -> float:
            began = time.perf_counter()
            for i in indices:
                os.write(children[i][1], b"r")
            for i in indices:
                _await(children[i][2])
            return time.perf_counter() - began

        wall(range(k))  # warm-up: each child faults in its own buffers
        ratios: List[float] = []
        sliced = time.perf_counter()
        while True:
            alone = [len(ratios) % k]
            if len(ratios) % 2:
                together = wall(range(k))
                lone = wall(alone)
            else:
                lone = wall(alone)
                together = wall(range(k))
            ratios.append(together / lone)
            now = time.perf_counter()
            per_slice = (now - sliced) / len(ratios)
            if len(ratios) >= MIN_SLICES and now + 2 * per_slice - start > budget_s:
                break
        ok = True
        return statistics.median(ratios)
    finally:
        for pid, command_w, done_r in children:
            if ok:
                os.write(command_w, b"q")
            else:
                os.kill(pid, signal.SIGKILL)
            os.close(command_w)
            os.close(done_r)
        for pid, _, _ in children:
            os.waitpid(pid, 0)


def _await(fd: int) -> None:
    ready, _, _ = select.select([fd], [], [], _CHILD_TIMEOUT_S)
    if not ready or os.read(fd, 1) != b"d":
        raise RuntimeError("a host probe child died or stopped answering")
